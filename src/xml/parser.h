#ifndef AXMLX_XML_PARSER_H_
#define AXMLX_XML_PARSER_H_

#include <memory>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "xml/document.h"

namespace axmlx::xml {

struct ParseOptions {
  /// When false (the default), text nodes consisting entirely of whitespace
  /// between elements are dropped and other text is trimmed; this matches
  /// how the paper's example documents are written (indentation is layout,
  /// not data).
  bool keep_whitespace_text = false;
};

/// Parses `input` into a Document. Supports the XML subset used by AXML
/// documents: an optional `<?xml ...?>` declaration, nested elements with
/// attributes (single- or double-quoted), self-closing tags, character data
/// with the five standard entities plus numeric references, and comments.
/// DOCTYPE, CDATA and processing instructions other than the declaration
/// are rejected with a kParseError status.
Result<std::unique_ptr<Document>> Parse(std::string_view input,
                                        const ParseOptions& options = {});

/// Parses an operation payload — one wrapper element, `<data>…</data>` —
/// straight into `target`: the wrapper's children become detached nodes of
/// `target`, and their ids come back in document order. Nodes take ids in
/// pre-order, as Document::ImportSubtree would give them when copying each
/// child of the Parse(wrapped) root in turn. The wrapper itself, attributes
/// included, is checked but built nowhere. A dry run of the same parser
/// checks the whole text first, so a malformed payload creates no node and
/// consumes no id; it fails with the Status Parse(wrapped) returns. With a
/// null `target` only that check runs, and the list comes back empty.
Result<std::vector<NodeId>> ParseInto(Document* target,
                                      std::string_view wrapped,
                                      const ParseOptions& options = {});

/// ParseInto's build alone, for text that ParseInto(nullptr, wrapped)
/// already accepted: one check can serve many builds of the same payload.
/// Text that was not checked first may fail part-way and leave detached
/// nodes behind.
Result<std::vector<NodeId>> ParseCheckedInto(Document* target,
                                             std::string_view wrapped,
                                             const ParseOptions& options = {});

}  // namespace axmlx::xml

#endif  // AXMLX_XML_PARSER_H_
