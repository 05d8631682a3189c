// The recursive-descent XML parser that xml::ParserImpl replaced, kept as
// the differential oracle of parse_diff_test: it builds through the public
// Document mutators (CreateElement, SetAttributes, AppendChild), parses a
// whole document into a placeholder root and splices the parsed root in,
// and recurses once per nesting level. Apart from the depth limit (see
// RecursiveParser) the code is the old parser's.

#ifndef AXMLX_TESTS_RECURSIVE_PARSER_H_
#define AXMLX_TESTS_RECURSIVE_PARSER_H_

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "xml/document.h"
#include "xml/parser.h"

namespace axmlx::oracle {

using xml::Document;
using xml::kMaxParseDepth;
using xml::kNullNode;
using xml::Node;
using xml::NodeId;
using xml::ParseOptions;

using Attributes = std::vector<std::pair<std::string, std::string>>;

/// Recursive-descent parser over a string_view. Tracks line numbers for
/// error messages. It builds into `doc_`; with a null `doc_` it makes a dry
/// run that accepts and rejects exactly the same input, with the same
/// Status, but creates nothing and copies no names, values or text.
///
/// The one addition: ParseElement counts its nesting and rejects an
/// element below xml::kMaxParseDepth with the one-pass parser's Status.
class RecursiveParser {
 public:
  RecursiveParser(std::string_view input, const ParseOptions& options,
             Document* doc)
      : input_(input), options_(options), doc_(doc) {}

  /// Parses a whole document into a fresh Document.
  Result<std::unique_ptr<Document>> Run() {
    SkipWhitespaceAndMisc();
    if (!AtTagOpen()) return Error("expected a root element");
    // Parse the root element into a placeholder document, then splice it in
    // as the document root by re-parsing children directly.
    auto doc = std::make_unique<Document>("placeholder");
    doc_ = doc.get();
    AXMLX_ASSIGN_OR_RETURN(NodeId root, ParseElement());
    // Replace the placeholder root with the parsed element. Renaming goes
    // through the document so the interned name id and tag index follow.
    const Node* parsed = doc->Find(root);
    AXMLX_RETURN_IF_ERROR(doc->RenameElement(doc->root(), parsed->name));
    AXMLX_RETURN_IF_ERROR(doc->SetAttributes(doc->root(), parsed->attributes));
    std::vector<NodeId> children = parsed->children;
    for (NodeId c : children) {
      // Splicing inside a document nobody else has seen yet: no replica or
      // call-shape watcher can observe the unrecorded write. lint:allow(R6)
      doc->FindMutable(c)->parent = kNullNode;
      Status s = doc->AppendChild(doc->root(), c);
      if (!s.ok()) return s;
    }
    // Same fresh-document splice as above. lint:allow(R6)
    doc->FindMutable(root)->children.clear();
    auto removed = doc->RemoveSubtree(root);
    if (!removed.ok()) return removed.status();
    AXMLX_RETURN_IF_ERROR(CheckTrailing());
    return doc;
  }

  /// Parses one element as a virtual root: its children become detached
  /// top-level nodes of `doc_` (ids appended to `*top`); the element itself
  /// is checked but built nowhere.
  Status RunVirtualRoot(std::vector<NodeId>* top) {
    SkipWhitespaceAndMisc();
    if (!AtTagOpen()) return Error("expected a root element");
    AXMLX_RETURN_IF_ERROR(ParseElement(top).status());
    return CheckTrailing();
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

  Status CheckTrailing() {
    SkipWhitespaceAndMisc();
    if (pos_ != input_.size()) {
      return Error("trailing content after the root element");
    }
    return Status::Ok();
  }

  /// A quoted attribute value, still escaped, as a view into the input.
  Result<std::string_view> ParseQuotedValue() {
    if (AtEnd() || (Peek() != '"' && Peek() != '\'')) {
      return Error("expected a quoted attribute value");
    }
    char quote = Peek();
    Advance();
    size_t start = pos_;
    AdvanceTo(quote);
    if (AtEnd()) return Error("unterminated attribute value");
    std::string_view value = input_.substr(start, pos_ - start);
    Advance();  // closing quote
    return value;
  }

  /// Parses one element (cursor at '<') into `doc_`, detached, and returns
  /// its id. With a non-null `top` the element is virtual: its attributes
  /// are checked and dropped, its children are created detached and their
  /// ids appended to `*top`, and kNullNode comes back. A dry run checks the
  /// same and returns kNullNode.
  Result<NodeId> ParseElement(std::vector<NodeId>* top = nullptr,
                              size_t depth = 1) {
    if (depth > kMaxParseDepth) {
      return Error("elements nested deeper than " +
                   std::to_string(kMaxParseDepth) + " levels");
    }
    Advance();  // '<'
    AXMLX_ASSIGN_OR_RETURN(std::string_view name, ParseName());
    const bool build = doc_ != nullptr && top == nullptr;
    const NodeId elem = build ? doc_->CreateElement(name) : kNullNode;
    // Children are linked under `elem`, or listed as top-level nodes.
    auto adopt = [&](NodeId child) -> Status {
      if (top != nullptr) {
        top->push_back(child);
        return Status::Ok();
      }
      return doc_->AppendChild(elem, child);
    };
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
      AXMLX_ASSIGN_OR_RETURN(std::string_view raw, ParseQuotedValue());
      if (!build) continue;
      std::string value = XmlUnescape(raw);
      auto same = std::find_if(attrs.begin(), attrs.end(),
                               [key](const auto& kv) { return kv.first == key; });
      if (same != attrs.end()) {
        same->second = std::move(value);
      } else {
        attrs.emplace_back(key, std::move(value));
      }
    }
    if (!attrs.empty()) {
      AXMLX_RETURN_IF_ERROR(doc_->SetAttributes(elem, std::move(attrs)));
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
        const std::string_view comment = input_.substr(start, pos_ - start);
        Advance(3);
        if (doc_ != nullptr) {
          AXMLX_RETURN_IF_ERROR(adopt(doc_->CreateComment(comment)));
        }
        continue;
      }
      if (LookingAt("<![CDATA[")) return Error("CDATA is not supported");
      if (LookingAt("<!")) return Error("DOCTYPE is not supported");
      if (LookingAt("<?")) {
        return Error("processing instructions are not supported here");
      }
      if (Peek() == '<') {
        AXMLX_ASSIGN_OR_RETURN(NodeId child, ParseElement(nullptr, depth + 1));
        if (doc_ != nullptr) AXMLX_RETURN_IF_ERROR(adopt(child));
        continue;
      }
      // Character data up to the next '<'.
      size_t start = pos_;
      AdvanceTo('<');
      if (doc_ == nullptr) continue;
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
      AXMLX_RETURN_IF_ERROR(adopt(doc_->CreateText(raw)));
    }
  }

  std::string_view input_;
  ParseOptions options_;
  Document* doc_;
  size_t pos_ = 0;
  int line_ = 1;
};

/// xml::Parse as the recursive parser ran it.
inline Result<std::unique_ptr<Document>> Parse(
    std::string_view input, const ParseOptions& options = {}) {
  return RecursiveParser(input, options, /*doc=*/nullptr).Run();
}

/// xml::ParseInto as the recursive parser ran it: a dry run, then the
/// build into `target` (none with a null `target`).
inline Result<std::vector<NodeId>> ParseInto(
    Document* target, std::string_view wrapped,
    const ParseOptions& options = {}) {
  std::vector<NodeId> top;
  AXMLX_RETURN_IF_ERROR(
      RecursiveParser(wrapped, options, /*doc=*/nullptr).RunVirtualRoot(&top));
  if (target == nullptr) return top;
  top.clear();
  AXMLX_RETURN_IF_ERROR(
      RecursiveParser(wrapped, options, target).RunVirtualRoot(&top));
  return top;
}

}  // namespace axmlx::oracle

#endif  // AXMLX_TESTS_RECURSIVE_PARSER_H_
