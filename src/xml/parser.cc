#include "xml/parser.h"

#include <algorithm>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/strings.h"

namespace axmlx::xml {
namespace {

using Attributes = std::vector<std::pair<std::string, std::string>>;

/// Recursive-descent parser over a string_view. Tracks line numbers for
/// error messages.
class ParserImpl {
 public:
  ParserImpl(std::string_view input, const ParseOptions& options)
      : input_(input), options_(options) {}

  Result<std::unique_ptr<Document>> Run() {
    SkipWhitespaceAndMisc();
    if (!AtTagOpen()) return Error("expected a root element");
    // Parse the root element into a placeholder document, then splice it in
    // as the document root by re-parsing children directly.
    auto doc = std::make_unique<Document>("placeholder");
    AXMLX_ASSIGN_OR_RETURN(NodeId root, ParseElement(doc.get()));
    // Replace the placeholder root with the parsed element. Renaming goes
    // through the document so the interned name id and tag index follow.
    const Node* parsed = doc->Find(root);
    AXMLX_RETURN_IF_ERROR(doc->RenameElement(doc->root(), parsed->name));
    AXMLX_RETURN_IF_ERROR(doc->SetAttributes(doc->root(), parsed->attributes));
    std::vector<NodeId> children = parsed->children;
    for (NodeId c : children) {
      // Splicing inside a document nobody else has seen yet: no snapshot or
      // replica can observe the unrecorded write. lint:allow(R6)
      doc->FindMutable(c)->parent = kNullNode;
      Status s = doc->AppendChild(doc->root(), c);
      if (!s.ok()) return s;
    }
    // Same fresh-document splice as above. lint:allow(R6)
    doc->FindMutable(root)->children.clear();
    auto removed = doc->RemoveSubtree(root);
    if (!removed.ok()) return removed.status();
    SkipWhitespaceAndMisc();
    if (pos_ != input_.size()) {
      return Error("trailing content after the root element");
    }
    return doc;
  }

 private:
  bool AtEnd() const { return pos_ >= input_.size(); }
  char Peek() const { return input_[pos_]; }
  bool AtTagOpen() const { return !AtEnd() && Peek() == '<'; }

  bool LookingAt(std::string_view s) const {
    return input_.substr(pos_, s.size()) == s;
  }

  void Advance(size_t n = 1) {
    for (size_t i = 0; i < n && pos_ < input_.size(); ++i) {
      if (input_[pos_] == '\n') ++line_;
      ++pos_;
    }
  }

  /// Advances to the next `c` (or the end), counting newlines on the way.
  void AdvanceTo(char c) {
    const size_t next = std::min(input_.find(c, pos_), input_.size());
    line_ += static_cast<int>(
        std::count(input_.begin() + static_cast<ptrdiff_t>(pos_),
                   input_.begin() + static_cast<ptrdiff_t>(next), '\n'));
    pos_ = next;
  }

  Status Error(const std::string& message) const {
    std::ostringstream os;
    os << "line " << line_ << ": " << message;
    return ParseError(os.str());
  }

  /// std::isspace in the "C" locale, without the library call.
  static bool IsSpace(char c) {
    return c == ' ' || (c >= '\t' && c <= '\r');
  }

  void SkipWhitespace() {
    while (!AtEnd() && IsSpace(Peek())) Advance();
  }

  /// Skips whitespace, the XML declaration, and comments outside elements.
  void SkipWhitespaceAndMisc() {
    while (true) {
      SkipWhitespace();
      if (LookingAt("<?")) {
        while (!AtEnd() && !LookingAt("?>")) Advance();
        Advance(2);
        continue;
      }
      if (LookingAt("<!--")) {
        Advance(4);
        while (!AtEnd() && !LookingAt("-->")) Advance();
        Advance(3);
        continue;
      }
      break;
    }
  }

  // ASCII classes, as std::isalpha/isdigit give in the "C" locale.
  static bool IsNameStart(char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
           c == ':';
  }
  static bool IsNameChar(char c) {
    return IsNameStart(c) || (c >= '0' && c <= '9') || c == '-' || c == '.';
  }

  /// A name, as a view into the input (names contain no newlines).
  Result<std::string_view> ParseName() {
    if (AtEnd() || !IsNameStart(Peek())) return Error("expected a name");
    size_t start = pos_;
    while (!AtEnd() && IsNameChar(Peek())) ++pos_;
    return input_.substr(start, pos_ - start);
  }

  Result<std::string> ParseQuotedValue() {
    if (AtEnd() || (Peek() != '"' && Peek() != '\'')) {
      return Error("expected a quoted attribute value");
    }
    char quote = Peek();
    Advance();
    size_t start = pos_;
    AdvanceTo(quote);
    if (AtEnd()) return Error("unterminated attribute value");
    std::string value = XmlUnescape(input_.substr(start, pos_ - start));
    Advance();  // closing quote
    return value;
  }

  /// Parses one element (cursor at '<') into `doc`, detached.
  Result<NodeId> ParseElement(Document* doc) {
    Advance();  // '<'
    AXMLX_ASSIGN_OR_RETURN(std::string_view name, ParseName());
    NodeId elem = doc->CreateElement(name);
    // Attributes, set in one go: a repeated key keeps its first position
    // and takes the last value, as SetAttribute would.
    Attributes attrs;
    while (true) {
      SkipWhitespace();
      if (AtEnd()) return Error("unterminated start tag <" + std::string(name));
      if (Peek() == '>' || LookingAt("/>")) break;
      AXMLX_ASSIGN_OR_RETURN(std::string_view key, ParseName());
      SkipWhitespace();
      if (AtEnd() || Peek() != '=') return Error("expected '=' after attribute");
      Advance();
      SkipWhitespace();
      AXMLX_ASSIGN_OR_RETURN(std::string value, ParseQuotedValue());
      auto same = std::find_if(attrs.begin(), attrs.end(),
                               [key](const auto& kv) { return kv.first == key; });
      if (same != attrs.end()) {
        same->second = std::move(value);
      } else {
        attrs.emplace_back(key, std::move(value));
      }
    }
    if (!attrs.empty()) {
      AXMLX_RETURN_IF_ERROR(doc->SetAttributes(elem, std::move(attrs)));
    }
    if (LookingAt("/>")) {
      Advance(2);
      return elem;
    }
    Advance();  // '>'
    // Children.
    while (true) {
      if (AtEnd()) {
        return Error("unterminated element <" + std::string(name) + ">");
      }
      if (LookingAt("</")) {
        Advance(2);
        AXMLX_ASSIGN_OR_RETURN(std::string_view close, ParseName());
        if (close != name) {
          return Error("mismatched close tag </" + std::string(close) +
                       "> for <" + std::string(name) + ">");
        }
        SkipWhitespace();
        if (AtEnd() || Peek() != '>') return Error("expected '>'");
        Advance();
        return elem;
      }
      if (LookingAt("<!--")) {
        Advance(4);
        size_t start = pos_;
        while (!AtEnd() && !LookingAt("-->")) Advance();
        if (AtEnd()) return Error("unterminated comment");
        NodeId comment =
            doc->CreateComment(std::string(input_.substr(start, pos_ - start)));
        Advance(3);
        AXMLX_RETURN_IF_ERROR(doc->AppendChild(elem, comment));
        continue;
      }
      if (LookingAt("<![CDATA[")) return Error("CDATA is not supported");
      if (LookingAt("<!")) return Error("DOCTYPE is not supported");
      if (LookingAt("<?")) {
        return Error("processing instructions are not supported here");
      }
      if (Peek() == '<') {
        AXMLX_ASSIGN_OR_RETURN(NodeId child, ParseElement(doc));
        AXMLX_RETURN_IF_ERROR(doc->AppendChild(elem, child));
        continue;
      }
      // Character data up to the next '<'.
      size_t start = pos_;
      AdvanceTo('<');
      std::string_view raw = input_.substr(start, pos_ - start);
      std::string unescaped;
      if (raw.find('&') == std::string_view::npos) {
        // Nothing to unescape: the node copies the trimmed view once.
        if (!options_.keep_whitespace_text) raw = StripWhitespace(raw);
        if (raw.empty() && !options_.keep_whitespace_text) continue;
      } else {
        unescaped = XmlUnescape(raw);
        raw = unescaped;
        if (!options_.keep_whitespace_text) {
          raw = StripWhitespace(raw);
          if (raw.empty()) continue;
        }
      }
      NodeId tn = doc->CreateText(raw);
      AXMLX_RETURN_IF_ERROR(doc->AppendChild(elem, tn));
    }
  }

  std::string_view input_;
  ParseOptions options_;
  size_t pos_ = 0;
  int line_ = 1;
};

}  // namespace

Result<std::unique_ptr<Document>> Parse(std::string_view input,
                                        const ParseOptions& options) {
  ParserImpl parser(input, options);
  return parser.Run();
}

}  // namespace axmlx::xml
