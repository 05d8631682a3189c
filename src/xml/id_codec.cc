#include "xml/id_codec.h"

#include <algorithm>
#include <limits>

#include "xml/parser.h"

namespace axmlx::xml {

namespace {

/// True when a node parses back from its serialization as one node of the
/// same kind: text must be non-empty, and a comment must not close early.
bool NodeRoundTrips(const Node& n) {
  if (n.type == NodeType::kText) return !n.text.empty();
  if (n.type == NodeType::kComment) {
    return n.text.find("--") == std::string::npos;
  }
  return true;
}

/// True unless two text nodes sit side by side among `n`'s children in
/// `doc` (the parser would merge them).
bool NoAdjacentText(const Document& doc, const Node& n) {
  bool prev_text = false;
  for (NodeId c : n.children) {
    const Node* child = doc.Find(c);
    if (child == nullptr || (child->is_text() && prev_text)) return false;
    prev_text = child->is_text();
  }
  return true;
}

bool HasDuplicate(std::vector<NodeId> sorted) {
  std::sort(sorted.begin(), sorted.end());
  return std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end();
}

/// Appends the pre-order of the subtree at `id` in `doc` to `out`.
void PreOrder(const Document& doc, NodeId id, std::vector<const Node*>* out) {
  std::vector<NodeId> stack = {id};
  while (!stack.empty()) {
    const Node* n = doc.Find(stack.back());
    stack.pop_back();
    if (n == nullptr) continue;
    out->push_back(n);
    stack.insert(stack.end(), n->children.rbegin(), n->children.rend());
  }
}

/// Node records of the parsed nodes `order` (one subtree in pre-order, its
/// root first), renumbered through `remap` (parsed id -> original id).
void Renumber(const std::vector<const Node*>& order,
              const std::vector<NodeId>& remap, std::vector<Node>* out) {
  out->reserve(order.size());
  for (const Node* n : order) {
    Node rec;
    rec.id = remap[n->id];
    rec.type = n->type;
    rec.parent = out->empty() ? kNullNode : remap[n->parent];
    rec.name = n->name;
    rec.text = n->text;
    rec.attributes = n->attributes;
    rec.children.reserve(n->children.size());
    for (NodeId c : n->children) rec.children.push_back(remap[c]);
    out->push_back(std::move(rec));
  }
}

Result<std::unique_ptr<Document>> ParseExact(std::string_view xml_text) {
  ParseOptions options;
  options.keep_whitespace_text = true;
  // The text is the program's own record of a document (a snapshot, a
  // journaled subtree), which inserts may have grown past the default limit.
  options.max_depth = std::numeric_limits<size_t>::max();
  return Parse(xml_text, options);
}

/// Parses EncodeIdList's form. Rejects empty or malformed input, id 0, ids
/// above kMaxExactId, descending runs, and lists of more than `max_ids` ids.
Result<std::vector<NodeId>> DecodeIdList(std::string_view text,
                                         size_t max_ids) {
  std::vector<NodeId> ids;
  const auto number = [&text](size_t* pos, NodeId* value) {
    size_t start = *pos;
    NodeId v = 0;
    while (*pos < text.size() && text[*pos] >= '0' && text[*pos] <= '9') {
      if (*pos - start >= 18) return false;  // would overflow NodeId
      v = v * 10 + static_cast<NodeId>(text[*pos] - '0');
      ++*pos;
    }
    *value = v;
    return *pos > start && v != kNullNode;
  };
  size_t pos = 0;
  while (pos < text.size()) {
    NodeId first = 0;
    NodeId last = 0;
    if (!number(&pos, &first)) {
      return ParseError("id list: expected a node id at offset " +
                        std::to_string(pos));
    }
    last = first;
    if (pos < text.size() && text[pos] == '-') {
      ++pos;
      if (!number(&pos, &last) || last < first) {
        return ParseError("id list: malformed run ending at offset " +
                          std::to_string(pos));
      }
    }
    if (last - first >= max_ids - std::min(max_ids, ids.size())) {
      return InvalidArgument("id list: more than " + std::to_string(max_ids) +
                             " ids");
    }
    if (last > kMaxExactId) {
      return InvalidArgument("id list: id " + std::to_string(last) +
                             " out of range");
    }
    for (NodeId id = first; id <= last; ++id) ids.push_back(id);
    if (pos < text.size()) {
      if (text[pos] != ',' || pos + 1 == text.size()) {
        return ParseError("id list: expected ',' at offset " +
                          std::to_string(pos));
      }
      ++pos;
    }
  }
  if (ids.empty()) return ParseError("id list: empty");
  return ids;
}

}  // namespace

std::vector<NodeId> ExactIdsOf(const DetachedSubtree& subtree) {
  std::vector<NodeId> ids;
  // The records must already be in pre-order (DetachSubtree walks the
  // document that way); check it while collecting. `take` returns the next
  // record when it is `id`'s and round-trips, else null: the subtree has no
  // exact form.
  size_t pos = 0;
  auto take = [&](NodeId id) -> const Node* {
    if (pos >= subtree.nodes.size() || subtree.nodes[pos].id != id) {
      return nullptr;
    }
    const Node& n = subtree.nodes[pos++];
    if (!NodeRoundTrips(n)) return nullptr;
    ids.push_back(n.id);
    return &n;
  };
  // Depth-first with an explicit stack: each frame is a record, the next of
  // its children to visit, and whether the child visited last was text.
  struct Frame {
    const Node* n;
    size_t next;
    bool prev_text;
  };
  const Node* root = take(subtree.root);
  std::vector<Frame> frames;
  if (root != nullptr) frames.push_back({root, 0, false});
  while (!frames.empty()) {
    Frame& f = frames.back();
    if (f.next == f.n->children.size()) {
      frames.pop_back();
      continue;
    }
    const Node* child = take(f.n->children[f.next++]);
    if (child == nullptr || (child->is_text() && f.prev_text)) return {};
    f.prev_text = child->is_text();
    frames.push_back({child, 0, false});
  }
  if (root == nullptr || pos != subtree.nodes.size()) return {};
  return ids;
}

std::vector<NodeId> ExactIdsOf(const Document& doc) {
  std::vector<const Node*> order;
  PreOrder(doc, doc.root(), &order);
  std::vector<NodeId> ids;
  ids.reserve(order.size());
  for (const Node* n : order) {
    if (!NodeRoundTrips(*n) || !NoAdjacentText(doc, *n)) {
      return {};
    }
    ids.push_back(n->id);
  }
  return ids;
}

std::string EncodeIdList(const std::vector<NodeId>& ids) {
  std::string out;
  for (size_t i = 0; i < ids.size();) {
    size_t j = i;
    while (j + 1 < ids.size() && ids[j + 1] == ids[j] + 1) ++j;
    if (!out.empty()) out.push_back(',');
    out += std::to_string(ids[i]);
    if (j > i) {
      out.push_back('-');
      out += std::to_string(ids[j]);
    }
    i = j + 1;
  }
  return out;
}

Result<DetachedSubtree> DecodeSubtree(std::string_view xml_text,
                                      std::string_view id_list) {
  std::string wrapped;
  wrapped.reserve(xml_text.size() + 7);
  wrapped.append("<w>").append(xml_text).append("</w>");
  AXMLX_ASSIGN_OR_RETURN(auto parsed, ParseExact(wrapped));
  const Node* wrapper = parsed->Find(parsed->root());
  if (wrapper->children.size() != 1) {
    return InvalidArgument("exact subtree: expected one top-level node, got " +
                           std::to_string(wrapper->children.size()));
  }
  std::vector<const Node*> order;
  PreOrder(*parsed, wrapper->children.front(), &order);
  AXMLX_ASSIGN_OR_RETURN(std::vector<NodeId> ids,
                         DecodeIdList(id_list, order.size()));
  if (order.size() != ids.size()) {
    return InvalidArgument("exact subtree: " + std::to_string(order.size()) +
                           " nodes but " + std::to_string(ids.size()) +
                           " ids");
  }
  if (HasDuplicate(ids)) return InvalidArgument("exact subtree: repeated id");
  std::vector<NodeId> remap(parsed->next_id(), kNullNode);
  for (size_t i = 0; i < order.size(); ++i) remap[order[i]->id] = ids[i];
  DetachedSubtree subtree;
  subtree.root = ids.front();
  Renumber(order, remap, &subtree.nodes);
  return subtree;
}

Result<std::unique_ptr<Document>> DecodeDocument(std::string_view xml_text,
                                                 std::string_view id_list,
                                                 NodeId next_id) {
  AXMLX_ASSIGN_OR_RETURN(auto doc, ParseExact(xml_text));
  AXMLX_ASSIGN_OR_RETURN(std::vector<NodeId> ids,
                         DecodeIdList(id_list, doc->size()));
  if (ids.front() != doc->root()) {
    return InvalidArgument("exact document: root id " +
                           std::to_string(ids.front()) + " is not " +
                           std::to_string(doc->root()));
  }
  AXMLX_RETURN_IF_ERROR(doc->AssignPreOrderIds(ids, next_id));
  return doc;
}

}  // namespace axmlx::xml
