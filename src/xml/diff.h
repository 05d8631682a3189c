#ifndef AXMLX_XML_DIFF_H_
#define AXMLX_XML_DIFF_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "xml/document.h"
#include "xml/edit.h"

namespace axmlx::xml {

/// One step of a document diff script.
struct DiffOp {
  enum class Kind {
    kInsertSubtree,   ///< Insert `subtree` under parent at index.
    kRemoveSubtree,   ///< Remove the subtree rooted at `node`.
    kSetText,         ///< Set text node `node` to `text`.
    kSetAttributes,   ///< Replace element `node`'s attribute list.
    kMove,            ///< Re-position `node` under parent at index.
  };
  Kind kind = Kind::kInsertSubtree;
  NodeId node = kNullNode;
  NodeId parent = kNullNode;
  size_t index = 0;
  DetachedSubtree subtree;  ///< kInsertSubtree payload (ids preserved).
  std::string text;         ///< kSetText payload.
  std::vector<std::pair<std::string, std::string>> attributes;
};

/// An id-based diff script transforming one version of a document into
/// another.
///
/// Replicated AXML documents (paper §1, after [2]) share node ids: the
/// replica is maintained by id-preserving clones, so two divergent versions
/// can be compared exactly by id. `ComputeDiff(from, to)` produces the
/// minimal-ish script that turns `from` into `to`:
/// - ids present only in `to` become inserts (with their subtrees),
/// - ids present only in `from` become removes,
/// - shared text nodes with different text become kSetText,
/// - shared elements with different attributes become kSetAttributes,
/// - shared nodes living under a different parent/position become kMove.
///
/// The script ships efficiently (only the delta) — this is the simulator's
/// stand-in for the replication layer's incremental synchronization, used
/// when a disconnected peer rejoins and must catch up with its replica.
struct DocumentDiff {
  std::vector<DiffOp> ops;

  bool empty() const { return ops.empty(); }
  size_t size() const { return ops.size(); }

  /// Total nodes the script touches (the usual cost measure).
  size_t NodesAffected() const;
};

/// Computes the script transforming `from` into `to`. Both documents must
/// have the same root id (true for clone-derived replicas).
Result<DocumentDiff> ComputeDiff(const Document& from, const Document& to);

/// ComputeDiff(*doc, to) followed by ApplyDiff(doc, ...), in one pass and
/// without ComputeDiff's scratch copy of `doc`: brings `doc` to `to`'s
/// state and returns the script it applied (empty = already equal).
Result<DocumentDiff> SyncDocument(Document* doc, const Document& to);

/// Applies `diff` to `doc` (which must be in the `from` state). Afterwards
/// Document::Equals(doc, to) holds, including child order, and shared ids
/// are preserved.
Status ApplyDiff(Document* doc, const DocumentDiff& diff);

}  // namespace axmlx::xml

#endif  // AXMLX_XML_DIFF_H_
