#ifndef AXMLX_XML_ID_CODEC_H_
#define AXMLX_XML_ID_CODEC_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "xml/document.h"
#include "xml/edit.h"

namespace axmlx::xml {

// Id-exact text form of a subtree or document: its serialization plus the
// pre-order list of its node ids. Parsing the serialization (whitespace
// kept) yields the same nodes in the same pre-order, so pairing the two
// rebuilds every node under its original id through
// Document::RestoreSubtree. The WAL writes compensating inserts this way and
// checkpoints write snapshots this way, so recovery replays a compensation
// with the ids it ran with and resumes id allocation where it stopped.

/// Pre-order node ids of `subtree` (root first), or an empty vector when the
/// subtree has no exact text form: an empty text node, two adjacent text
/// nodes (they parse back as one), a comment holding "-->", or records that
/// are not in pre-order.
std::vector<NodeId> ExactIdsOf(const DetachedSubtree& subtree);

/// The same for a whole document, root first.
std::vector<NodeId> ExactIdsOf(const Document& doc);

/// Largest id an exact text form may name. Documents size their id tables
/// by their largest id, so a damaged file must not ask for more.
inline constexpr NodeId kMaxExactId = NodeId{1} << 40;

/// Compact text form of an id list: comma-separated runs, a run of
/// consecutive ids written "first-last" ("7,12-15").
std::string EncodeIdList(const std::vector<NodeId>& ids);

/// Rebuilds the detached subtree whose serialization is `xml_text` (exactly
/// one top-level node) with the pre-order ids of `id_list` (EncodeIdList's
/// form). A malformed list, a node count that differs from the id count, a
/// repeated id, or unparsable text is an error.
Result<DetachedSubtree> DecodeSubtree(std::string_view xml_text,
                                      std::string_view id_list);

/// Rebuilds a whole document from its serialization and pre-order ids (the
/// root's id must be 1, as in every Document) in one parse plus one
/// renumbering pass (Document::AssignPreOrderIds); new nodes continue the
/// original numbering from `next_id`.
Result<std::unique_ptr<Document>> DecodeDocument(std::string_view xml_text,
                                                 std::string_view id_list,
                                                 NodeId next_id);

}  // namespace axmlx::xml

#endif  // AXMLX_XML_ID_CODEC_H_
