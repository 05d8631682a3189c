#ifndef AXMLX_COMMON_STRINGS_H_
#define AXMLX_COMMON_STRINGS_H_

#include <string>
#include <string_view>
#include <vector>

namespace axmlx {

/// Splits `input` on `sep`, keeping empty pieces.
std::vector<std::string> StrSplit(std::string_view input, char sep);

/// Joins `pieces` with `sep`.
std::string StrJoin(const std::vector<std::string>& pieces,
                    std::string_view sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view input);

/// True if `s` starts with / ends with `prefix` / `suffix`.
bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// Case-sensitive containment test.
bool Contains(std::string_view haystack, std::string_view needle);

/// Escapes the five XML special characters (& < > " ') in `s`.
std::string XmlEscape(std::string_view s);

/// XmlEscape(s) appended to `*out`, without a temporary string.
void AppendXmlEscaped(std::string_view s, std::string* out);

/// Reverses XmlEscape for the standard five entities plus decimal/hex
/// character references.
std::string XmlUnescape(std::string_view s);

}  // namespace axmlx

#endif  // AXMLX_COMMON_STRINGS_H_
