#ifndef AXMLX_XML_NODE_H_
#define AXMLX_XML_NODE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace axmlx::xml {

/// Stable identifier of a node within its owning `Document`. Ids are never
/// reused within a document. The paper's compensation scheme relies on this:
/// "we assume that the [insert] operation returns the (unique) ID of the
/// inserted node ... the compensating operation is a delete operation to
/// delete the node having the corresponding ID" (§3.1).
using NodeId = uint64_t;

/// Sentinel for "no node".
inline constexpr NodeId kNullNode = 0;

/// Interned tag-name id, valid within the owning `Document`'s string table
/// (see Document::InternName). Element name equality inside one document is
/// an integer compare on `Node::name_id`; the spelling in `Node::name` stays
/// authoritative for cross-document comparisons and detached node records.
using NameId = uint32_t;

/// Sentinel NameId: text/comment nodes, and "name not interned here".
inline constexpr NameId kNoName = 0xFFFFFFFFu;

/// Well-known AXML tag names, interned by every `Document` at construction
/// in this fixed order so the ids below are valid in every document and the
/// query evaluator can classify nodes without string compares. They are
/// also the names whose elements make up a service call's shape: a change
/// to any of them moves Document::call_shape_generation().
inline constexpr NameId kNameAxmlSc = 0;        ///< "axml:sc"
inline constexpr NameId kNameAxmlParams = 1;    ///< "axml:params"
inline constexpr NameId kNameAxmlCatch = 2;     ///< "axml:catch"
inline constexpr NameId kNameAxmlCatchAll = 3;  ///< "axml:catchAll"
inline constexpr NameId kNameAxmlRetry = 4;     ///< "axml:retry"
inline constexpr NameId kNameAxmlParam = 5;     ///< "axml:param"
inline constexpr NameId kNumReservedNames = 6;

/// True for the reserved AXML names above.
inline constexpr bool IsReservedName(NameId name_id) {
  return name_id < kNumReservedNames;
}

enum class NodeType {
  kElement,
  kText,
  kComment,
};

/// A single XML node. Nodes are owned and linked by their `Document`; user
/// code manipulates them through `Document` APIs and treats `Node` as a
/// read-mostly record. Storage-wise nodes live in the document's slab pages
/// (see Document), so `Node*` stays valid until the node is destroyed.
struct Node {
  NodeId id = kNullNode;
  NodeType type = NodeType::kElement;
  NodeId parent = kNullNode;

  /// Element tag name (element nodes only). Kept as a string so detached
  /// node records (xml/edit.h) remain meaningful across documents.
  std::string name;

  /// Interned id of `name` in the owning document's string table; kNoName
  /// for text/comment nodes. Maintained by Document mutators — do not write
  /// directly.
  NameId name_id = kNoName;

  /// Text content (text and comment nodes only).
  std::string text;

  /// Attributes in document order (element nodes only).
  std::vector<std::pair<std::string, std::string>> attributes;

  /// Ordered child ids (element nodes only).
  std::vector<NodeId> children;

  bool is_element() const { return type == NodeType::kElement; }
  bool is_text() const { return type == NodeType::kText; }

  /// Returns the attribute value or nullptr if absent.
  const std::string* FindAttribute(const std::string& key) const {
    for (const auto& [k, v] : attributes) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

}  // namespace axmlx::xml

#endif  // AXMLX_XML_NODE_H_
