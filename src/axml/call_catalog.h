#ifndef AXMLX_AXML_CALL_CATALOG_H_
#define AXMLX_AXML_CALL_CATALOG_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/status.h"
#include "xml/document.h"

namespace axmlx::axml {

/// The embedded service calls visible from one node, in document order,
/// with what lazy selection needs to know about each (DESIGN.md §8): the
/// calls ValidateServiceCall rejects, an index from each `outputName`
/// and `methodName` to its position, and for every node on a path to a
/// call the range of calls visible from it. Immutable once built; it
/// describes the document as of one (identity, call-shape generation).
class CallIndex {
 public:
  static constexpr uint32_t kNoPosition = 0xFFFFFFFFu;

  /// Indexes FindServiceCalls(doc, from).
  static CallIndex Build(const xml::Document& doc, xml::NodeId from);

  xml::NodeId from() const { return from_; }
  uint64_t identity() const { return identity_; }
  uint64_t generation() const { return generation_; }

  /// The visible calls, in document order.
  const std::vector<xml::NodeId>& calls() const { return calls_; }

  /// The calls ValidateServiceCall rejected at build time: position and
  /// Status, ascending by position.
  const std::vector<std::pair<uint32_t, Status>>& malformed() const {
    return malformed_;
  }

  /// Position of `sc` in calls(), or kNoPosition.
  uint32_t PositionOf(xml::NodeId sc) const;

  /// When `node` is `from` or on the path from it to a visible call (a
  /// call included), sets [*begin, *end) to the positions of the calls
  /// visible from `node` and returns true.
  bool SpanOf(xml::NodeId node, uint32_t* begin, uint32_t* end) const;

  /// Appends, ascending and without repeats, the positions in [begin, end)
  /// of the calls ProducesAnyOf(doc, call, wanted) holds for: the calls
  /// whose `outputName` or `methodName` is wanted, and the calls that hold
  /// a result child (IsResultChild) of a wanted name, found through the
  /// document's tag index. Only the second part reads the live document,
  /// since materialization changes results without moving the generation.
  void AppendNeeded(const xml::Document& doc,
                    const std::unordered_set<std::string>& wanted,
                    uint32_t begin, uint32_t end,
                    std::vector<uint32_t>* out) const;

 private:
  struct Span {
    xml::NodeId node = xml::kNullNode;
    uint32_t begin = 0;
    uint32_t end = 0;
  };

  xml::NodeId from_ = xml::kNullNode;
  uint64_t identity_ = 0;
  uint64_t generation_ = 0;
  std::vector<xml::NodeId> calls_;
  std::vector<std::pair<uint32_t, Status>> malformed_;
  std::vector<std::pair<xml::NodeId, uint32_t>> positions_;  ///< By id.
  std::vector<Span> spans_;                                  ///< By node.
  std::vector<std::pair<std::string, uint32_t>> named_;  ///< By name, pos.
};

/// The calls visible from one node: positions [begin, end) of `index`.
/// When no call is visible the range is empty and `index` is null.
struct CallView {
  std::shared_ptr<const CallIndex> index;
  uint32_t begin = 0;
  uint32_t end = 0;
};

/// One hosted document's call index (DESIGN.md §8). The index of the calls
/// visible from the root is built on first use and rebuilt only when the
/// document's identity or call-shape generation has moved since, so
/// lazy queries stop rediscovering and re-validating every call.
/// Materializing a call and compensating it leave the generation alone, so
/// the commit and abort paths keep the index.
class CallCatalog {
 public:
  /// The calls FindServiceCalls(doc, node) would list now, with their
  /// index. A node off every path to a visible call, but itself visible
  /// from the root, sees none. A node hidden from the root (under a
  /// bookkeeping element or detached) gets an index of its own.
  /// Watches `doc`'s call-shape generation (Document::WatchCallShape).
  CallView VisibleFrom(xml::Document* doc, xml::NodeId node);

  /// Root indexes built so far.
  int64_t builds() const { return builds_; }

 private:
  std::shared_ptr<const CallIndex> root_;
  int64_t builds_ = 0;
};

}  // namespace axmlx::axml

#endif  // AXMLX_AXML_CALL_CATALOG_H_
