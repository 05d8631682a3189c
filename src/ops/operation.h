#ifndef AXMLX_OPS_OPERATION_H_
#define AXMLX_OPS_OPERATION_H_

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>

#include "common/status.h"
#include "xml/document.h"
#include "xml/edit.h"

namespace axmlx::ops {

/// The possible operations on AXML documents (paper §3): "queries, updates,
/// inserts and deletes (update operations with action types 'replace',
/// 'insert' and 'delete', respectively)".
enum class ActionType { kQuery, kInsert, kDelete, kReplace };

const char* ActionTypeName(ActionType type);

/// One AXML operation. "AXML update operations can be divided into two
/// parts: 1) the <location> query to locate the target nodes, and 2) the
/// actual update actions." (§3.1)
///
/// Operations are plain data and serialize to the paper's `<action>` XML so
/// they can be shipped between peers — including compensating operations
/// shipped for peer-independent compensation (§3.2). Compensating
/// operations constructed from the log target nodes *directly by id*
/// (`target_node`), which is how the paper compensates inserts ("a delete
/// operation to delete the node having the corresponding ID").
struct Operation {
  ActionType type = ActionType::kQuery;

  /// `<location>` select statement (see query/parser.h). Empty when the
  /// operation targets a node directly via `target_node` or `path`.
  std::string location;

  /// Direct target by element path (xml/element_path.h), the form a peer
  /// journals its effects in: the record names the element it changed by
  /// position, so any copy of the document with the same elements applies
  /// it without running a query. For kDelete/kReplace the element to
  /// delete/replace; for kInsert the parent to insert under (or, with
  /// kBefore/kAfter, the anchor sibling). For kQuery the path names an
  /// `axml:sc` element and `data_xml` its materialized results: applying
  /// the record replaces the call's results (replace mode) or appends them
  /// (merge mode), invoking nothing. Empty for logical operations.
  std::string path;

  /// `<data>` payload for insert/replace: serialized XML of the node(s) to
  /// insert. Multiple top-level nodes are allowed.
  std::string data_xml;

  /// Direct target by node id (compensating operations): for kDelete the
  /// node to delete, for kInsert the parent to insert under.
  xml::NodeId target_node = xml::kNullNode;

  /// For kInsert with a direct target: insert at this child index, restoring
  /// the original ordering (the paper's ordered-document caveat, §3.1).
  bool has_position = false;
  size_t position = 0;

  /// Sibling-relative insertion for ordered documents: "the situation is
  /// simplified if the insert operation allows insertion 'before/after' a
  /// specific node [16]" (§3.1). With kBefore/kAfter the <location> query
  /// selects the anchor sibling(s) and the data is inserted adjacent to
  /// each anchor, under the anchor's parent.
  enum class Anchor { kInto, kBefore, kAfter };
  Anchor anchor = Anchor::kInto;

  /// Query evaluation mode (§3.1): lazy materializes only the embedded
  /// calls the query needs; eager materializes everything in scope.
  bool eager = false;

  /// Optional exact-restore payload for compensating inserts built from the
  /// log: the deleted subtree with its original node ids. When present (and
  /// the target is direct) the executor re-attaches it id-preservingly, so
  /// chains of compensating operations that reference ids inside earlier
  /// deleted subtrees stay valid. ToXml writes it as an `ids` attribute
  /// beside `data_xml` (its serialization; xml/id_codec.h), so a WAL replay
  /// installs the compensation exactly as it ran. A subtree with no exact
  /// text form (adjacent text nodes) is written without ids and replays as
  /// fresh-id insertion of `data_xml`, the paper's semantic compensation.
  std::shared_ptr<const xml::DetachedSubtree> restore;

  /// Serializes to the paper's syntax:
  ///   <action type="delete"><location>Select ...</location></action>
  /// A path target is written as an attribute:
  ///   <action type="insert" path="/Doc/log[0]"><data>...</data></action>
  std::string ToXml() const;

  /// Parses an `<action>` element. ToXml's own output is decoded directly;
  /// any other spelling goes through the XML parser. A malformed or
  /// mismatched `ids` list is an error.
  static Result<Operation> FromXml(std::string_view xml_text);
};

/// Convenience constructors.
Operation MakeQuery(std::string location, bool eager = false);
Operation MakeInsert(std::string location, std::string data_xml);
Operation MakeDelete(std::string location);
Operation MakeReplace(std::string location, std::string data_xml);
Operation MakeDeleteById(xml::NodeId node);
Operation MakeInsertAt(xml::NodeId parent, size_t position,
                       std::string data_xml);
/// Inserts `data_xml` immediately before/after the sibling(s) located by
/// `location` (ordered-document insertion, §3.1).
Operation MakeInsertBefore(std::string location, std::string data_xml);
Operation MakeInsertAfter(std::string location, std::string data_xml);

}  // namespace axmlx::ops

#endif  // AXMLX_OPS_OPERATION_H_
