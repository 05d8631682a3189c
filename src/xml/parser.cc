#include "xml/parser.h"

#include <algorithm>
#include <array>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/strings.h"

namespace axmlx::xml {

/// Single-pass parser over a string_view with an explicit stack of open
/// elements, so nesting costs heap, not call stack. Tracks line numbers for
/// error messages. It builds into `doc_` through Document::BuildNode; with a
/// null `doc_` it makes a dry run that accepts and rejects exactly the same
/// input, with the same Status, but creates nothing and copies no names,
/// values or text.
class ParserImpl {
 public:
  ParserImpl(std::string_view input, const ParseOptions& options,
             Document* doc)
      : input_(input), options_(options), doc_(doc) {}

  /// Parses a whole document into a fresh Document whose root is the root
  /// element itself.
  Result<std::unique_ptr<Document>> Run() {
    SkipWhitespaceAndMisc();
    if (!AtTagOpen()) return Error("expected a root element");
    std::unique_ptr<Document> doc(new Document(Document::BuildTag{}));
    doc_ = doc.get();
    AXMLX_RETURN_IF_ERROR(ParseRoot(/*top=*/nullptr));
    AXMLX_RETURN_IF_ERROR(CheckTrailing());
    return doc;
  }

  /// Parses one element as a virtual root: its children become detached
  /// top-level nodes of `doc_` (ids appended to `*top`); the element itself
  /// is checked but built nowhere.
  Status RunVirtualRoot(std::vector<NodeId>* top) {
    SkipWhitespaceAndMisc();
    if (!AtTagOpen()) return Error("expected a root element");
    AXMLX_RETURN_IF_ERROR(ParseRoot(top));
    return CheckTrailing();
  }

 private:
  /// An element whose start tag was read and whose end tag was not.
  struct Open {
    std::string_view name;
    Node* node = nullptr;  ///< Null in a dry run and for a virtual root.
  };

  /// An attribute of the start tag being read.
  struct Attribute {
    std::string_view key;
    std::string_view raw;  ///< Still escaped.
    bool entity = false;   ///< `raw` holds a '&'.
  };

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

  /// Advances to the next `c` (or the end), counting newlines on the way,
  /// and tells whether it passed a '&' (an entity to unescape). One plain
  /// loop: the runs it skips (text, attribute values) are short.
  bool AdvanceTo(char c) {
    bool entity = false;
    while (pos_ < input_.size() && input_[pos_] != c) {
      if (input_[pos_] == '\n') ++line_;
      entity |= input_[pos_] == '&';
      ++pos_;
    }
    return entity;
  }

  /// string_view equality without a library call: names are short.
  static bool SameName(std::string_view a, std::string_view b) {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i] != b[i]) return false;
    }
    return true;
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

  /// A name, as a view into the input (names contain no newlines); empty,
  /// with the cursor unmoved, when no name starts here.
  std::string_view ReadName() {
    const size_t start = pos_;
    if (AtEnd() || !IsNameStart(Peek())) return {};
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

  /// The interned id of an element name. Documents repeat a few tag names,
  /// so a small direct-mapped cache of this parse's names, keyed by
  /// spelling, stands in front of Document::InternName.
  NameId Intern(std::string_view name) {
    const unsigned char mid = name[name.size() / 2];
    const unsigned char last = name.back();
    CachedName& cached =
        name_cache_[(name.size() * 31 + mid * 7 + last) % kNameCacheSize];
    if (cached.id == kNoName || !SameName(cached.name, name)) {
      cached = {name, doc_->InternName(name)};
    }
    return cached.id;
  }

  /// Reads a start tag's attributes (cursor after the name) up to, not
  /// over, its '>' or "/>". When building, their key and escaped value
  /// views, and whether the value holds an entity, land in `attrs_`.
  Status ParseAttributes(std::string_view name, bool build) {
    attrs_.clear();
    while (true) {
      SkipWhitespace();
      if (AtEnd()) return Error("unterminated start tag <" + std::string(name));
      if (Peek() == '>' || (Peek() == '/' && pos_ + 1 < input_.size() &&
                            input_[pos_ + 1] == '>')) {
        return Status::Ok();
      }
      const std::string_view key = ReadName();
      if (key.empty()) return Error("expected a name");
      SkipWhitespace();
      if (AtEnd() || Peek() != '=') return Error("expected '=' after attribute");
      Advance();
      SkipWhitespace();
      // The value, quoted and still escaped.
      if (AtEnd() || (Peek() != '"' && Peek() != '\'')) {
        return Error("expected a quoted attribute value");
      }
      const char quote = Peek();
      ++pos_;  // a quote is no newline
      const size_t start = pos_;
      const bool entity = AdvanceTo(quote);
      if (AtEnd()) return Error("unterminated attribute value");
      if (build) {
        attrs_.push_back({key, input_.substr(start, pos_ - start), entity});
      }
      ++pos_;  // closing quote
    }
  }

  /// Writes `attrs_` onto `node` in place: a repeated key keeps its first
  /// position and takes the last value, as SetAttribute would. Values are
  /// unescaped only when they hold an entity.
  void WriteAttributes(Node* node) {
    auto& out = node->attributes;
    out.reserve(attrs_.size());
    for (const auto& [key, raw, entity] : attrs_) {
      auto same = std::find_if(out.begin(), out.end(),
                               [key = key](const auto& kv) {
                                 return kv.first == key;
                               });
      std::string& value =
          same != out.end() ? same->second : out.emplace_back(key, "").second;
      if (!entity) {
        value.assign(raw);
      } else {
        value = XmlUnescape(raw);
      }
    }
  }

  /// A new node under the innermost open element: linked into it, or a
  /// detached top-level node listed in `*top` under a virtual root.
  Node& Build(NodeType type, NameId name_id, bool attributed,
              std::vector<NodeId>* top) {
    Node& node =
        doc_->BuildNode(type, name_id, open_.back().node, attributed);
    if (top != nullptr && open_.size() == 1) top->push_back(node.id);
    return node;
  }

  /// Parses the root element (cursor at its '<') and everything inside it.
  /// With a null `top` the root is built as the document's root; with a
  /// non-null `top` it is virtual: its attributes are checked and dropped,
  /// and its children are created detached with their ids appended to
  /// `*top`. A dry run checks the same and builds nothing.
  Status ParseRoot(std::vector<NodeId>* top) {
    const bool building = doc_ != nullptr;
    open_.clear();
    // Each turn reads one start tag (cursor at its '<'), then the content
    // of the innermost open element up to the next start tag.
    while (true) {
      if (open_.size() >= options_.max_depth) {
        return Error("elements nested deeper than " +
                     std::to_string(options_.max_depth) + " levels");
      }
      ++pos_;  // '<'
      const std::string_view name = ReadName();
      if (name.empty()) return Error("expected a name");
      // The virtual root is checked but built nowhere.
      const bool build = building && !(top != nullptr && open_.empty());
      AXMLX_RETURN_IF_ERROR(ParseAttributes(name, build));
      Node* node = nullptr;
      if (build) {
        const NameId name_id = Intern(name);
        const bool attributed = !attrs_.empty();
        node = open_.empty() ? &doc_->BuildNode(NodeType::kElement, name_id,
                                                nullptr, attributed)
                             : &Build(NodeType::kElement, name_id,
                                      attributed, top);
        if (attributed) WriteAttributes(node);
      }
      if (Peek() == '/') {
        pos_ += 2;  // "/>"
        if (open_.empty()) return Status::Ok();
      } else {
        ++pos_;  // '>'
        open_.push_back({name, node});
      }
      // Content of the innermost open element, closing elements as their
      // end tags come, until a start tag or the root's end tag.
      while (true) {
        if (AtEnd()) {
          return Error("unterminated element <" +
                       std::string(open_.back().name) + ">");
        }
        if (Peek() != '<') {
          // Character data up to the next '<'.
          size_t start = pos_;
          const bool entity = AdvanceTo('<');
          if (building) {
            AddText(input_.substr(start, pos_ - start), entity, top);
          }
          continue;
        }
        // At '<': the next byte tells an end tag, a comment or a rejected
        // construct from a start tag.
        const char next = pos_ + 1 < input_.size() ? input_[pos_ + 1] : '\0';
        if (next == '/') {
          pos_ += 2;  // "</"
          const std::string_view close = ReadName();
          if (close.empty()) return Error("expected a name");
          const std::string_view open = open_.back().name;
          if (!SameName(close, open)) {
            return Error("mismatched close tag </" + std::string(close) +
                         "> for <" + std::string(open) + ">");
          }
          SkipWhitespace();
          if (AtEnd() || Peek() != '>') return Error("expected '>'");
          Advance();
          open_.pop_back();
          if (open_.empty()) return Status::Ok();
          continue;
        }
        if (next == '!') {
          if (!LookingAt("<!--")) {
            return Error(LookingAt("<![CDATA[") ? "CDATA is not supported"
                                                : "DOCTYPE is not supported");
          }
          Advance(4);
          size_t start = pos_;
          while (!AtEnd() && !LookingAt("-->")) Advance();
          if (AtEnd()) return Error("unterminated comment");
          const std::string_view comment = input_.substr(start, pos_ - start);
          Advance(3);
          if (building) {
            Build(NodeType::kComment, kNoName, false, top).text = comment;
          }
          continue;
        }
        if (next == '?') {
          return Error("processing instructions are not supported here");
        }
        break;  // a start tag
      }
    }
  }

  /// Builds a text node from raw character data, unescaped and (unless the
  /// options keep whitespace) trimmed; whitespace-only text is dropped.
  void AddText(std::string_view raw, bool entity, std::vector<NodeId>* top) {
    std::string unescaped;
    if (!entity) {
      // Nothing to unescape: the node copies the trimmed view once.
      if (!options_.keep_whitespace_text) raw = StripWhitespace(raw);
      if (raw.empty() && !options_.keep_whitespace_text) return;
    } else {
      unescaped = XmlUnescape(raw);
      raw = unescaped;
      if (!options_.keep_whitespace_text) {
        raw = StripWhitespace(raw);
        if (raw.empty()) return;
      }
    }
    Build(NodeType::kText, kNoName, false, top).text = raw;
  }

  static constexpr size_t kNameCacheSize = 32;
  struct CachedName {
    std::string_view name;
    NameId id = kNoName;
  };

  std::string_view input_;
  ParseOptions options_;
  Document* doc_;
  size_t pos_ = 0;
  int line_ = 1;
  std::vector<Open> open_;
  std::vector<Attribute> attrs_;  ///< The current start tag's attributes.
  std::array<CachedName, kNameCacheSize> name_cache_{};
};

Result<std::unique_ptr<Document>> Parse(std::string_view input,
                                        const ParseOptions& options) {
  ParserImpl parser(input, options, /*doc=*/nullptr);
  return parser.Run();
}

Result<std::vector<NodeId>> ParseInto(Document* target,
                                      std::string_view wrapped,
                                      const ParseOptions& options) {
  std::vector<NodeId> top;
  // The dry run rejects a malformed payload before `target` sees any of it.
  AXMLX_RETURN_IF_ERROR(
      ParserImpl(wrapped, options, /*doc=*/nullptr).RunVirtualRoot(&top));
  if (target == nullptr) return top;
  return ParseCheckedInto(target, wrapped, options);
}

Result<std::vector<NodeId>> ParseCheckedInto(Document* target,
                                             std::string_view wrapped,
                                             const ParseOptions& options) {
  std::vector<NodeId> top;
  AXMLX_RETURN_IF_ERROR(
      ParserImpl(wrapped, options, target).RunVirtualRoot(&top));
  return top;
}

}  // namespace axmlx::xml
