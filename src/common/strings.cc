#include "common/strings.h"

#include <cctype>
#include <cstdlib>

namespace axmlx {

std::vector<std::string> StrSplit(std::string_view input, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = input.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(input.substr(start));
      break;
    }
    out.emplace_back(input.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string StrJoin(const std::vector<std::string>& pieces,
                    std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < pieces.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(pieces[i]);
  }
  return out;
}

std::string_view StripWhitespace(std::string_view input) {
  size_t begin = 0;
  size_t end = input.size();
  while (begin < end &&
         std::isspace(static_cast<unsigned char>(input[begin]))) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(input[end - 1]))) {
    --end;
  }
  return input.substr(begin, end - begin);
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

bool Contains(std::string_view haystack, std::string_view needle) {
  return haystack.find(needle) != std::string_view::npos;
}

std::string XmlEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  AppendXmlEscaped(s, &out);
  return out;
}

void AppendXmlEscaped(std::string_view s, std::string* out) {
  // Copy runs of ordinary characters in one append each.
  size_t run = 0;
  for (size_t i = 0; i < s.size(); ++i) {
    const char* entity;
    switch (s[i]) {
      case '&':
        entity = "&amp;";
        break;
      case '<':
        entity = "&lt;";
        break;
      case '>':
        entity = "&gt;";
        break;
      case '"':
        entity = "&quot;";
        break;
      case '\'':
        entity = "&apos;";
        break;
      default:
        continue;
    }
    out->append(s.data() + run, i - run);
    out->append(entity);
    run = i + 1;
  }
  out->append(s.data() + run, s.size() - run);
}

std::string XmlUnescape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  size_t i = 0;
  while (i < s.size()) {
    if (s[i] != '&') {
      out += s[i++];
      continue;
    }
    size_t semi = s.find(';', i);
    if (semi == std::string_view::npos) {
      out += s[i++];
      continue;
    }
    std::string_view entity = s.substr(i + 1, semi - i - 1);
    if (entity == "amp") {
      out += '&';
    } else if (entity == "lt") {
      out += '<';
    } else if (entity == "gt") {
      out += '>';
    } else if (entity == "quot") {
      out += '"';
    } else if (entity == "apos") {
      out += '\'';
    } else if (!entity.empty() && entity[0] == '#') {
      // Decimal (&#65;) or hex (&#x41;) character reference. Only ASCII
      // code points are emitted as-is; others pass through untouched.
      long code = 0;
      if (entity.size() > 1 && (entity[1] == 'x' || entity[1] == 'X')) {
        code = std::strtol(std::string(entity.substr(2)).c_str(), nullptr, 16);
      } else {
        code = std::strtol(std::string(entity.substr(1)).c_str(), nullptr, 10);
      }
      if (code > 0 && code < 128) {
        out += static_cast<char>(code);
      } else {
        out += s.substr(i, semi - i + 1);
      }
    } else {
      out += s.substr(i, semi - i + 1);
    }
    i = semi + 1;
  }
  return out;
}

}  // namespace axmlx
