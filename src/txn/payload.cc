#include "txn/payload.h"

#include <optional>
#include <string_view>

#include "common/strings.h"

namespace axmlx::txn {

std::string EncodeParams(const Params& params) {
  std::string out = "<params>";
  for (const auto& [key, value] : params) {
    out += "<param name=\"" + XmlEscape(key) + "\">" + XmlEscape(value) +
           "</param>";
  }
  out += "</params>";
  return out;
}

namespace {

bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

void SkipSpace(std::string_view* in) {
  while (!in->empty() && IsSpace(in->front())) in->remove_prefix(1);
}

bool Consume(std::string_view* in, std::string_view token) {
  if (in->substr(0, token.size()) != token) return false;
  in->remove_prefix(token.size());
  return true;
}

/// Consumes the start of a tag named exactly `name` ("<name", not followed
/// by more name characters).
bool ConsumeTagOpen(std::string_view* in, std::string_view name) {
  std::string_view rest = *in;
  if (!Consume(&rest, "<") || !Consume(&rest, name)) return false;
  if (!rest.empty() && !IsSpace(rest.front()) && rest.front() != '>' &&
      rest.front() != '/') {
    return false;
  }
  *in = rest;
  return true;
}

Status Malformed(const std::string& what) {
  return ParseError("DecodeParams: " + what);
}

}  // namespace

Result<Params> DecodeParams(const std::string& body) {
  Params params;
  std::string_view in = body;
  if (in.empty()) return params;
  SkipSpace(&in);
  if (!ConsumeTagOpen(&in, "params")) {
    return Malformed("expected a <params> element");
  }
  SkipSpace(&in);
  bool open = true;
  if (Consume(&in, "/>")) {
    open = false;
  } else if (!Consume(&in, ">")) {
    return Malformed("unterminated <params> tag");
  }
  while (open) {
    SkipSpace(&in);
    if (Consume(&in, "</params>")) break;
    if (!ConsumeTagOpen(&in, "param")) {
      return Malformed("expected <param> or </params>");
    }
    std::optional<std::string> name;
    while (true) {
      SkipSpace(&in);
      if (in.empty()) return Malformed("unterminated <param> tag");
      if (in.front() == '>' || in.front() == '/') break;
      const size_t eq = in.find('=');
      if (eq == std::string_view::npos) {
        return Malformed("bad <param> attribute");
      }
      const std::string_view key = StripWhitespace(in.substr(0, eq));
      in.remove_prefix(eq + 1);
      SkipSpace(&in);
      if (in.empty() || (in.front() != '"' && in.front() != '\'')) {
        return Malformed("unquoted <param> attribute");
      }
      const size_t close = in.find(in.front(), 1);
      if (close == std::string_view::npos) {
        return Malformed("unterminated <param> attribute");
      }
      if (key == "name") name = XmlUnescape(in.substr(1, close - 1));
      in.remove_prefix(close + 1);
    }
    const bool empty = Consume(&in, "/>");
    if (!empty && !Consume(&in, ">")) return Malformed("bad <param> tag");
    if (!name.has_value()) {
      return Malformed("<param> without a name");
    }
    // The value is the element's text exactly as encoded: no trimming, so a
    // parameter reads the same on both ends of the wire.
    std::string value;
    if (!empty) {
      const size_t end = in.find('<');
      if (end == std::string_view::npos) {
        return Malformed("unterminated <param>");
      }
      value = XmlUnescape(in.substr(0, end));
      in.remove_prefix(end);
      if (!Consume(&in, "</param>")) {
        return Malformed("<param> holds only text");
      }
    }
    params.emplace_back(std::move(*name), std::move(value));
  }
  SkipSpace(&in);
  if (!in.empty()) return Malformed("trailing content after </params>");
  return params;
}

}  // namespace axmlx::txn
