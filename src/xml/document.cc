#include "xml/document.h"

#include <algorithm>
#include <atomic>

#include "common/strings.h"

namespace axmlx::xml {

namespace {

/// Well-known AXML names, interned by every document in this fixed order so
/// the kNameAxml* constants in node.h hold everywhere.
constexpr const char* kReservedNames[kNumReservedNames] = {
    "axml:sc",       "axml:params", "axml:catch",
    "axml:catchAll", "axml:retry",  "axml:param"};

/// The same names as strings, for NameOf.
const std::string kReservedNameStrings[kNumReservedNames] = {
    kReservedNames[0], kReservedNames[1], kReservedNames[2],
    kReservedNames[3], kReservedNames[4], kReservedNames[5]};

const std::string kEmptyName;

/// Makes room for `n` entries in `v`, growing geometrically from a floor of
/// eight: a small document's table takes one allocation, at first use.
template <typename T>
void ReserveFor(std::vector<T>* v, size_t n) {
  if (n > v->capacity()) {
    v->reserve(std::max<size_t>({n, 2 * v->capacity(), 8}));
  }
}

/// Source of Document::identity(); atomic so documents may be built on any
/// thread.
std::atomic<uint64_t> next_identity{1};

}  // namespace

Document::Document(RawTag)
    : identity_(next_identity.fetch_add(1, std::memory_order_relaxed)) {}

Document::Document(const std::string& root_name) : Document(BuildTag{}) {
  root_ = CreateElement(root_name);
}

Document::Document(BuildTag) : Document(RawTag{}) {}

std::unique_ptr<Document> Document::Clone() const {
  std::unique_ptr<Document> copy(new Document(RawTag{}));
  copy->next_id_ = next_id_;
  copy->root_ = root_;
  copy->live_nodes_ = live_nodes_;
  copy->call_shape_generation_ = call_shape_generation_;
  copy->pages_.reserve(pages_.size());
  copy->chunks_.reserve(chunks_.size());
  for (size_t p = 0; p < pages_.size(); ++p) {
    const uint32_t capacity = PageCapacity(p);
    const uint32_t used =
        std::min(capacity, slots_used_ - PageStart(p));  // last page: partial
    auto new_page = std::make_unique_for_overwrite<Node[]>(capacity);
    std::copy(pages_[p].get(), pages_[p].get() + used, new_page.get());
    copy->AddPage(std::move(new_page), capacity);
  }
  copy->slots_used_ = slots_used_;
  copy->free_slots_ = free_slots_;
  copy->slot_gen_ = slot_gen_;
  copy->id_slots_ = id_slots_;
  copy->names_ = names_;
  copy->name_ids_ = name_ids_;
  copy->storage_stats_ = storage_stats_;
  return copy;
}

std::unique_ptr<Document> Document::CloneForReplica() {
  std::unique_ptr<Document> copy = Clone();
  TrackSyncedReplica(*copy);
  return copy;
}

void Document::TrackSyncedReplica(const Document& replica) {
  track_changes_ = true;
  changed_ids_.clear();
  synced_identity_ = replica.identity_;
  synced_mutations_ = replica.mutations_;
}

// Writes the replica's nodes without recording versions on purpose: the push
// copies the primary's records, exactly as a Clone() would, and is not a
// local change. lint:allow(R6)
bool Document::SyncReplica(Document* replica) {
  if (!track_changes_ || replica == nullptr || replica == this ||
      replica->identity_ != synced_identity_ ||
      replica->mutations_ != synced_mutations_) {
    return false;
  }
  Document& r = *replica;
  // Ids are never reused, so each touched id's current record (or its
  // absence) is its whole story; duplicates and order do not matter.
  std::sort(changed_ids_.begin(), changed_ids_.end());
  changed_ids_.erase(std::unique(changed_ids_.begin(), changed_ids_.end()),
                     changed_ids_.end());
  for (NodeId id : changed_ids_) {
    const Node* src = Find(id);
    const Node* old = r.Find(id);
    // The records are written directly, so the replica's call-shape
    // generation moves here: for any reserved record on either side, except
    // one that kept its name, place and attributes (only its children
    // changed, and each child that came or went is a touched id itself).
    const bool was_reserved = old != nullptr && IsReservedName(old->name_id);
    if (r.call_shape_watched_ &&
        (was_reserved || (src != nullptr && IsReservedName(src->name_id)))) {
      const bool children_only = was_reserved && src != nullptr &&
                                 old->name_id == src->name_id &&
                                 old->parent == src->parent &&
                                 old->attributes == src->attributes;
      if (!children_only) r.MoveCallShape();
    }
    if (src == nullptr) {
      if (old != nullptr) r.FreeNode(id);
      continue;
    }
    Node* dst;
    if (old == nullptr) {
      const uint32_t slot = r.AllocSlot();
      dst = &r.NodeAt(slot);
      r.MapIdToSlot(id, slot);
    } else {
      dst = r.FindMutable(id);
    }
    // Every live element sits in its current name's bucket, so only a new
    // element, or one whose name changed, needs an index entry.
    const bool indexed = old != nullptr && dst->is_element() &&
                         src->is_element() && dst->name == src->name;
    *dst = *src;  // copy-assignment reuses the slot's string/vector capacity
    if (dst->is_element()) {
      dst->name_id = r.InternName(dst->name);
      if (!indexed) r.IndexBucket(dst->name_id).push_back(id);
    } else {
      dst->name_id = kNoName;
    }
  }
  changed_ids_.clear();
  // The replica did not record these writes, so if it pushes on to a
  // replica of its own, that push must be a full copy.
  r.track_changes_ = false;
  r.next_id_ = next_id_;
  r.root_ = root_;
  // What a Clone() would carry besides the nodes: the storage counters.
  r.storage_stats_ = storage_stats_;
  synced_mutations_ = r.mutations_;
  return true;
}

void Document::RecordObserved(NodeId id, Touch touch, NameId becomes) {
  if (track_changes_) changed_ids_.push_back(id);
  // A child list changes only by attaching or destroying children, and
  // those carry the change: their own records (kAttach, or kRecord for each
  // destroyed node) move the generation when they hold a reserved element.
  // So the child-list change itself never does — in particular an
  // `axml:sc` gaining or losing plain results.
  if (call_shape_watched_ && touch != Touch::kChildList) {
    bool shape = IsReservedName(becomes);
    if (!shape) {
      const Node* n = Find(id);
      if (n != nullptr) {
        shape = touch == Touch::kRecord ? IsReservedName(n->name_id)
                                        : HoldsReservedElement(id);
      }
    }
    if (shape) MoveCallShape();
  }
}

NameId Document::ReservedNameId(std::string_view name) {
  if (name.size() < 7 || name.substr(0, 5) != "axml:") return kNoName;
  for (NameId id = 0; id < kNumReservedNames; ++id) {
    if (name == kReservedNames[id]) return id;
  }
  return kNoName;
}

NameId Document::InternName(std::string_view name) {
  if (NameId reserved = ReservedNameId(name); reserved != kNoName) {
    return reserved;
  }
  auto it = name_ids_.find(name);
  if (it != name_ids_.end()) return it->second;
  // The reserved names take ids 0..kNumReservedNames-1 without a hash
  // entry: ReservedNameId resolves them by spelling.
  const NameId id = static_cast<NameId>(interned_names());
  IndexBucket(id);
  names_[id].name = name;
  name_ids_.emplace(names_[id].name, id);
  return id;
}

std::vector<NodeId>& Document::IndexBucket(NameId name_id) {
  if (name_id >= names_.size()) {
    ReserveFor(&names_, name_id + 1);
    names_.resize(name_id + 1);
  }
  return names_[name_id].index;
}

NameId Document::FindNameId(std::string_view name) const {
  if (NameId reserved = ReservedNameId(name); reserved != kNoName) {
    return reserved;
  }
  auto it = name_ids_.find(name);
  return it == name_ids_.end() ? kNoName : it->second;
}

const std::string& Document::NameOf(NameId name_id) const {
  if (IsReservedName(name_id)) return kReservedNameStrings[name_id];
  if (name_id >= names_.size()) return kEmptyName;
  return names_[name_id].name;
}

uint32_t Document::AllocSlot() {
  if (!free_slots_.empty()) {
    uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    ++storage_stats_.slots_reused;
    return slot;
  }
  if (slots_used_ == PageStart(pages_.size())) {  // every page is full
    const uint32_t capacity = PageCapacity(pages_.size());
    // Default-initialized: every Node member has its own initializer, so
    // the page needs no zero fill first.
    AddPage(std::make_unique_for_overwrite<Node[]>(capacity), capacity);
    ++storage_stats_.pages_allocated;
  }
  uint32_t slot = slots_used_++;
  ReserveFor(&slot_gen_, slots_used_);
  slot_gen_.push_back(0);
  return slot;
}

void Document::AddPage(std::unique_ptr<Node[]> page, uint32_t capacity) {
  for (uint32_t run = 0; run < capacity; run += 1u << kChunkBits) {
    chunks_.push_back(page.get() + run);
  }
  pages_.push_back(std::move(page));
}

void Document::MapIdToSlot(NodeId id, uint32_t slot) {
  if (id >= id_slots_.size()) {
    ReserveFor(&id_slots_, id + 1);
    id_slots_.resize(id + 1);
  }
  id_slots_[id] = {slot, slot_gen_[slot]};
  if (id >= next_id_) next_id_ = id + 1;
  ++live_nodes_;
}

Node& Document::NewNode(NodeType type, NameId name_id) {
  uint32_t slot = AllocSlot();
  NodeId id = next_id_;
  // the id did not exist before
  RecordVersion(id, Touch::kRecord, name_id);
  MapIdToSlot(id, slot);
  Node& node = NodeAt(slot);
  node.id = id;
  node.type = type;
  node.parent = kNullNode;
  ++storage_stats_.nodes_allocated;
  return node;
}

// Slot recycling, not a logical mutation: every caller (RemoveSubtree /
// DestroySubtree / RollbackAll) records the mutation of `id` before freeing
// it. lint:allow(R6)
void Document::FreeNode(NodeId id) {
  uint32_t slot = id_slots_[id].slot;
  Node& node = NodeAt(slot);
  // Keep the tag index tight under create/destroy churn: drop this node's
  // entry when it sits at its bucket's tail (the common LIFO case), plus
  // any already-dead ids that pop exposes. Entries elsewhere in the bucket
  // stay until CollectElementsNamed's sweep.
  if (node.is_element() && node.name_id != kNoName &&
      node.name_id < names_.size()) {
    std::vector<NodeId>& bucket = names_[node.name_id].index;
    if (!bucket.empty() && bucket.back() == id) {
      bucket.pop_back();
      while (!bucket.empty() && Find(bucket.back()) == nullptr) {
        bucket.pop_back();
        ++storage_stats_.index_entries_swept;
      }
    }
  }
  // clear() keeps string/vector capacity, so a recycled slot serves its
  // next node without fresh heap allocations.
  node.id = kNullNode;
  node.parent = kNullNode;
  node.name.clear();
  node.name_id = kNoName;
  node.text.clear();
  node.attributes.clear();
  node.children.clear();
  ++slot_gen_[slot];
  id_slots_[id].slot = kInvalidSlot;
  free_slots_.push_back(slot);
  ++storage_stats_.nodes_freed;
  --live_nodes_;
}

NodeId Document::CreateElement(std::string_view name) {
  NameId name_id = InternName(name);
  Node& node = NewNode(NodeType::kElement, name_id);
  node.name = name;
  node.name_id = name_id;
  IndexBucket(name_id).push_back(node.id);
  return node.id;
}

NodeId Document::CreateText(std::string_view text) {
  Node& node = NewNode(NodeType::kText);
  node.text = text;
  return node.id;
}

NodeId Document::CreateComment(std::string_view text) {
  Node& node = NewNode(NodeType::kComment);
  node.text = text;
  return node.id;
}

Node& Document::BuildNode(NodeType type, NameId name_id, Node* parent,
                          bool attributed) {
  Node& node = NewNode(type, name_id);
  const NodeId id = node.id;
  if (type == NodeType::kElement) {
    node.name = NameOf(name_id);
    node.name_id = name_id;
    IndexBucket(name_id).push_back(id);
    if (attributed) RecordVersion(id);
  }
  if (parent != nullptr) {
    RecordVersion(parent->id, Touch::kChildList);
    RecordVersion(id, Touch::kAttach);
    parent->children.push_back(id);
    node.parent = parent->id;
  } else if (root_ == kNullNode) {
    root_ = id;
    ++next_id_;
  }
  return node;
}

Status Document::AppendChild(NodeId parent, NodeId child) {
  Node* p = FindMutable(parent);
  if (p == nullptr) return NotFound("AppendChild: unknown parent");
  return InsertAt(parent, p->children.size(), child);
}

Status Document::InsertAt(NodeId parent, size_t index, NodeId child) {
  Node* p = FindMutable(parent);
  Node* c = FindMutable(child);
  if (p == nullptr) return NotFound("InsertAt: unknown parent");
  if (c == nullptr) return NotFound("InsertAt: unknown child");
  if (!p->is_element()) {
    return InvalidArgument("InsertAt: parent is not an element");
  }
  if (c->parent != kNullNode) {
    return FailedPrecondition("InsertAt: child is already attached");
  }
  if (index > p->children.size()) {
    return OutOfRange("InsertAt: index beyond end of children");
  }
  // Reject cycles: `parent` must not live inside `child`'s subtree.
  for (NodeId cur = parent; cur != kNullNode; cur = Find(cur)->parent) {
    if (cur == child) {
      return InvalidArgument("InsertAt: would create a cycle");
    }
  }
  RecordVersion(parent, Touch::kChildList);
  RecordVersion(child, Touch::kAttach);
  // RecordVersion never touches the slab, so the Node pointers above stay
  // valid.
  p->children.insert(p->children.begin() + static_cast<ptrdiff_t>(index),
                     child);
  c->parent = parent;
  return Status::Ok();
}

Result<Document::RemovedInfo> Document::RemoveSubtree(NodeId id) {
  Node* n = FindMutable(id);
  if (n == nullptr) return NotFound("RemoveSubtree: unknown node");
  if (id == root_) {
    return FailedPrecondition("RemoveSubtree: cannot remove the root");
  }
  RemovedInfo info;
  info.parent = n->parent;
  if (n->parent != kNullNode) {
    RecordVersion(n->parent, Touch::kChildList);
    Node* p = FindMutable(n->parent);
    auto it = std::find(p->children.begin(), p->children.end(), id);
    info.index = static_cast<size_t>(it - p->children.begin());
    p->children.erase(it);
    n->parent = kNullNode;
  }
  DestroySubtree(id);
  return info;
}

void Document::DestroySubtree(NodeId id) {
  // Iterative destruction; FreeNode clears the child list, so children are
  // pushed onto the work stack first.
  std::vector<NodeId>& stack = walk_scratch_;
  stack.clear();
  stack.push_back(id);
  while (!stack.empty()) {
    NodeId cur = stack.back();
    stack.pop_back();
    Node* n = FindMutable(cur);
    if (n == nullptr) continue;
    for (NodeId c : n->children) stack.push_back(c);
    RecordVersion(cur);
    FreeNode(cur);
  }
}

Status Document::SetText(NodeId id, const std::string& text) {
  Node* n = FindMutable(id);
  if (n == nullptr) return NotFound("SetText: unknown node");
  if (n->is_element()) return InvalidArgument("SetText: node is an element");
  RecordVersion(id);
  n->text = text;
  return Status::Ok();
}

Status Document::RenameElement(NodeId id, const std::string& name) {
  Node* n = FindMutable(id);
  if (n == nullptr) return NotFound("RenameElement: unknown node");
  if (!n->is_element()) {
    return InvalidArgument("RenameElement: node is not an element");
  }
  NameId name_id = InternName(name);
  if (name_id == n->name_id) return Status::Ok();
  RecordVersion(id, Touch::kRecord, name_id);
  // The entry under the old name goes stale; CollectElementsNamed filters
  // and sweeps it on the next lookup.
  n->name = name;
  n->name_id = name_id;
  IndexBucket(name_id).push_back(id);
  return Status::Ok();
}

Status Document::SetAttribute(NodeId id, const std::string& key,
                              const std::string& value) {
  Node* n = FindMutable(id);
  if (n == nullptr) return NotFound("SetAttribute: unknown node");
  if (!n->is_element()) {
    return InvalidArgument("SetAttribute: node is not an element");
  }
  RecordVersion(id);
  for (auto& [k, v] : n->attributes) {
    if (k == key) {
      v = value;
      return Status::Ok();
    }
  }
  n->attributes.emplace_back(key, value);
  return Status::Ok();
}

Status Document::SetAttributes(
    NodeId id, std::vector<std::pair<std::string, std::string>> attributes) {
  Node* n = FindMutable(id);
  if (n == nullptr) return NotFound("SetAttributes: unknown node");
  if (!n->is_element()) {
    return InvalidArgument("SetAttributes: node is not an element");
  }
  RecordVersion(id);
  n->attributes = std::move(attributes);
  return Status::Ok();
}

Result<NodeId> Document::ImportSubtree(const Document& src, NodeId src_id) {
  if (src.Find(src_id) == nullptr) {
    return NotFound("ImportSubtree: unknown source node");
  }
  // Pre-order with an explicit stack, so copies take their ids in document
  // order and each parent gains its children in order. Each entry is a
  // source node and the copy that adopts it (kNullNode: the detached root).
  std::vector<std::pair<NodeId, NodeId>> stack = {{src_id, kNullNode}};
  NodeId root = kNullNode;
  while (!stack.empty()) {
    const auto [from, parent] = stack.back();
    stack.pop_back();
    const Node* s = src.Find(from);
    NodeId id;
    switch (s->type) {
      case NodeType::kText:
        id = CreateText(s->text);
        break;
      case NodeType::kComment:
        id = CreateComment(s->text);
        break;
      default:
        id = CreateElement(s->name);
    }
    Node* d = FindMutable(id);
    d->attributes = s->attributes;
    if (root == kNullNode) root = id;
    if (parent != kNullNode) {
      d->parent = parent;
      FindMutable(parent)->children.push_back(id);
    }
    for (size_t i = s->children.size(); i > 0; --i) {
      stack.emplace_back(s->children[i - 1], id);
    }
  }
  return root;
}

Result<std::unique_ptr<Document>> Document::ExtractFragment(NodeId id) const {
  if (Find(id) == nullptr) return NotFound("ExtractFragment: unknown node");
  auto frag = std::make_unique<Document>("fragment");
  AXMLX_ASSIGN_OR_RETURN(NodeId copy, frag->ImportSubtree(*this, id));
  AXMLX_RETURN_IF_ERROR(frag->AppendChild(frag->root(), copy));
  return frag;
}

Status Document::RestoreSubtree(const std::vector<Node>& nodes,
                                NodeId subtree_root, NodeId parent,
                                size_t index) {
  Node* p = FindMutable(parent);
  if (p == nullptr) return NotFound("RestoreSubtree: unknown parent");
  if (!p->is_element()) {
    return InvalidArgument("RestoreSubtree: parent is not an element");
  }
  if (index > p->children.size()) {
    return OutOfRange("RestoreSubtree: index beyond end of children");
  }
  for (const Node& n : nodes) {
    if (Contains(n.id)) {
      return AlreadyExists("RestoreSubtree: node id is live");
    }
  }
  RecordVersion(parent, Touch::kChildList);
  for (const Node& n : nodes) {
    // Re-intern from the spelling: the record may come from a document with
    // a different name table (diff replay between replicas).
    const NameId name_id = n.is_element() ? InternName(n.name) : kNoName;
    // "absent": the id was free before the restore
    RecordVersion(n.id, Touch::kRecord, name_id);
    uint32_t slot = AllocSlot();
    Node& stored = NodeAt(slot);
    stored = n;
    stored.name_id = name_id;
    if (stored.is_element()) IndexBucket(name_id).push_back(stored.id);
    MapIdToSlot(n.id, slot);
    ++storage_stats_.nodes_allocated;
  }
  Node* r = FindMutable(subtree_root);
  if (r == nullptr) return Internal("RestoreSubtree: root not among nodes");
  r->parent = parent;
  p->children.insert(p->children.begin() + static_cast<ptrdiff_t>(index),
                     subtree_root);
  return Status::Ok();
}

Status Document::AssignPreOrderIds(const std::vector<NodeId>& ids,
                                   NodeId next_id) {
  if (track_changes_) {
    return FailedPrecondition(
        "AssignPreOrderIds: the document has readers of its ids");
  }
  std::vector<NodeId> order;
  order.reserve(live_nodes_);
  std::vector<NodeId> stack = {root_};
  while (!stack.empty()) {
    const NodeId id = stack.back();
    stack.pop_back();
    order.push_back(id);
    const Node* n = Find(id);
    stack.insert(stack.end(), n->children.rbegin(), n->children.rend());
  }
  if (order.size() != ids.size()) {
    return InvalidArgument("AssignPreOrderIds: " +
                           std::to_string(order.size()) + " nodes but " +
                           std::to_string(ids.size()) + " ids");
  }
  NodeId top = 0;
  std::vector<NodeId> remap(next_id_, kNullNode);
  for (size_t i = 0; i < order.size(); ++i) {
    if (ids[i] == kNullNode) return InvalidArgument("AssignPreOrderIds: id 0");
    remap[order[i]] = ids[i];
    top = std::max(top, ids[i]);
  }
  if (top >= next_id) {
    return InvalidArgument("AssignPreOrderIds: id " + std::to_string(top) +
                           " is not below the next id " +
                           std::to_string(next_id));
  }
  std::vector<IdSlot> id_slots(top + 1);
  for (NodeId old : order) {
    const uint32_t slot = id_slots_[old].slot;
    const NodeId id = remap[old];
    if (id_slots[id].slot != kInvalidSlot) {
      return InvalidArgument("AssignPreOrderIds: repeated id " +
                             std::to_string(id));
    }
    id_slots[id] = {slot, slot_gen_[slot]};
  }
  // Validated: rewrite every record's links. No replica is tracked, so the
  // version entries only count the mutation.
  for (NodeId old : order) {
    Node& n = NodeAt(id_slots_[old].slot);
    RecordVersion(remap[old]);
    n.id = remap[old];
    n.parent = n.parent == kNullNode ? kNullNode : remap[n.parent];
    for (NodeId& c : n.children) c = remap[c];
  }
  for (NameEntry& entry : names_) {
    std::vector<NodeId>& bucket = entry.index;
    size_t w = 0;
    for (NodeId old : bucket) {
      if (old < remap.size() && remap[old] != kNullNode && Find(old)) {
        bucket[w++] = remap[old];
      }
    }
    bucket.resize(w);
  }
  id_slots_ = std::move(id_slots);
  root_ = remap[root_];
  next_id_ = next_id;
  // Every id changed under the records' feet.
  MoveCallShape();
  return Status::Ok();
}

bool Document::HoldsReservedElement(NodeId id) const {
  std::vector<NodeId>& stack = walk_scratch_;
  stack.clear();
  stack.push_back(id);
  while (!stack.empty()) {
    const Node* n = Find(stack.back());
    stack.pop_back();
    if (n == nullptr) continue;
    if (IsReservedName(n->name_id)) return true;
    stack.insert(stack.end(), n->children.begin(), n->children.end());
  }
  return false;
}

void Document::CollectElementsNamed(NameId name_id,
                                    std::vector<NodeId>* out) const {
  if (name_id >= names_.size()) return;
  std::vector<NodeId>& bucket = names_[name_id].index;
  // Filter + compact in place: survivors are the live elements still named
  // `name_id`; everything else (destroyed or renamed) is swept.
  size_t w = 0;
  for (NodeId id : bucket) {
    const Node* n = Find(id);
    if (n == nullptr || n->name_id != name_id) continue;
    bucket[w++] = id;
    out->push_back(id);
  }
  storage_stats_.index_entries_swept +=
      static_cast<int64_t>(bucket.size() - w);
  bucket.resize(w);
}

size_t Document::SubtreeSize(NodeId id) const {
  if (Find(id) == nullptr) return 0;
  size_t count = 0;
  std::vector<NodeId>& stack = walk_scratch_;
  stack.clear();
  stack.push_back(id);
  while (!stack.empty()) {
    const Node* n = Find(stack.back());
    stack.pop_back();
    if (n == nullptr) continue;
    ++count;
    for (NodeId c : n->children) stack.push_back(c);
  }
  return count;
}

size_t Document::IndexInParent(NodeId id) const {
  const Node* n = Find(id);
  if (n == nullptr || n->parent == kNullNode) return kNpos;
  const Node* p = Find(n->parent);
  auto it = std::find(p->children.begin(), p->children.end(), id);
  return it == p->children.end()
             ? kNpos
             : static_cast<size_t>(it - p->children.begin());
}

void Document::AppendTextContent(NodeId id, std::string* out) const {
  const Node* start = Find(id);
  if (start == nullptr) return;
  if (start->is_text()) {
    out->append(start->text);
    return;
  }
  // Fast path for leaf elements (all children are text) — the dominant
  // shape for scalar fields like <rank>7</rank>.
  bool flat = true;
  for (NodeId c : start->children) {
    const Node* child = Find(c);
    if (child != nullptr && !child->is_text()) {
      flat = false;
      break;
    }
  }
  if (flat) {
    for (NodeId c : start->children) {
      const Node* child = Find(c);
      if (child != nullptr) out->append(child->text);
    }
    return;
  }
  // Iterative pre-order with a reversed-children stack so text concatenates
  // in document order without per-node callback overhead.
  std::vector<NodeId>& stack = walk_scratch_;
  stack.clear();
  stack.push_back(id);
  while (!stack.empty()) {
    const Node* n = Find(stack.back());
    stack.pop_back();
    if (n == nullptr) continue;
    if (n->is_text()) {
      out->append(n->text);
      continue;
    }
    for (size_t i = n->children.size(); i > 0; --i) {
      stack.push_back(n->children[i - 1]);
    }
  }
}

std::string Document::TextContent(NodeId id) const {
  std::string out;
  AppendTextContent(id, &out);
  return out;
}

void Document::Walk(NodeId id,
                    const std::function<bool(const Node&)>& fn) const {
  // Its own stack, not walk_scratch_: `fn` may call the internal walks.
  std::vector<NodeId> stack = {id};
  while (!stack.empty()) {
    const Node* n = Find(stack.back());
    stack.pop_back();
    if (n == nullptr || !fn(*n)) continue;
    stack.insert(stack.end(), n->children.rbegin(), n->children.rend());
  }
}

std::string Document::PathOf(NodeId id) const {
  const Node* n = Find(id);
  if (n == nullptr) return "<unknown>";
  // Climb to the topmost ancestor, then write the steps down from it.
  std::vector<NodeId> below;  // `id` first, the top's child last.
  for (NodeId cur = id; n != nullptr && n->parent != kNullNode;) {
    below.push_back(cur);
    cur = n->parent;
    n = Find(cur);
  }
  std::string out = n == nullptr ? "<unknown>" : "/" + n->name;
  for (auto it = below.rbegin(); it != below.rend(); ++it) {
    const Node* step = Find(*it);
    out.push_back('/');
    out.append(step->is_element() ? step->name : "#text");
    const size_t idx = IndexInParent(*it);
    if (idx != kNpos) out += "[" + std::to_string(idx) + "]";
  }
  return out;
}

namespace {

/// Writes the subtree at `id`, resolving ids through `find` (nullptr: the
/// node is left out). Document::Serialize and Document::SerializeRecords
/// both write through this, so a node reads byte for byte alike either way.
/// Iterative: an element with children leaves a closing entry under its
/// children on the stack, so nesting depth costs heap, not call stack.
template <typename FindFn>
void SerializeSubtree(const FindFn& find, NodeId id, bool pretty,
                      std::string* out) {
  struct Entry {
    NodeId id;
    size_t depth;
    const Node* close;  ///< Non-null: write this element's end tag.
  };
  std::vector<Entry> stack = {{id, 0, nullptr}};
  while (!stack.empty()) {
    const Entry e = stack.back();
    stack.pop_back();
    const size_t indent = pretty ? e.depth * 2 : 0;
    if (e.close != nullptr) {
      out->append(indent, ' ');
      out->append("</");
      out->append(e.close->name);
      out->push_back('>');
      if (pretty) *out += "\n";
      continue;
    }
    const Node* n = find(e.id);
    if (n == nullptr) continue;
    out->append(indent, ' ');
    switch (n->type) {
      case NodeType::kText:
        AppendXmlEscaped(n->text, out);
        if (pretty) *out += "\n";
        continue;
      case NodeType::kComment:
        out->append("<!--");
        out->append(n->text);
        out->append("-->");
        if (pretty) *out += "\n";
        continue;
      case NodeType::kElement:
        break;
    }
    out->push_back('<');
    out->append(n->name);
    for (const auto& [k, v] : n->attributes) {
      out->push_back(' ');
      out->append(k);
      out->append("=\"");
      AppendXmlEscaped(v, out);
      out->push_back('"');
    }
    if (n->children.empty()) {
      out->append("/>");
      if (pretty) *out += "\n";
      continue;
    }
    out->push_back('>');
    if (pretty) *out += "\n";
    stack.push_back({kNullNode, e.depth, n});
    for (size_t i = n->children.size(); i > 0; --i) {
      stack.push_back({n->children[i - 1], e.depth + 1, nullptr});
    }
  }
}

}  // namespace

std::string Document::Serialize(NodeId id, bool pretty) const {
  std::string out;
  SerializeTo(id, &out, pretty);
  return out;
}

void Document::SerializeTo(NodeId id, std::string* out, bool pretty) const {
  if (id == kNullNode) id = root_;
  SerializeSubtree([this](NodeId n) { return Find(n); }, id, pretty, out);
}

std::string Document::SerializeRecords(const std::vector<Node>& records,
                                       NodeId root) {
  std::vector<const Node*> by_id;
  by_id.reserve(records.size());
  for (const Node& n : records) by_id.push_back(&n);
  std::stable_sort(by_id.begin(), by_id.end(),
                   [](const Node* a, const Node* b) { return a->id < b->id; });
  auto find = [&by_id](NodeId id) -> const Node* {
    auto it = std::lower_bound(
        by_id.begin(), by_id.end(), id,
        [](const Node* n, NodeId key) { return n->id < key; });
    return it != by_id.end() && (*it)->id == id ? *it : nullptr;
  };
  std::string out;
  SerializeSubtree(find, root, /*pretty=*/false, &out);
  return out;
}

bool Document::SubtreeEquals(const Document& a, NodeId a_id, const Document& b,
                             NodeId b_id) {
  auto is_comment = [](const Document& doc, NodeId id) {
    return doc.Find(id)->type == NodeType::kComment;
  };
  std::vector<std::pair<NodeId, NodeId>> stack = {{a_id, b_id}};
  while (!stack.empty()) {
    const auto [ia, ib] = stack.back();
    stack.pop_back();
    const Node* na = a.Find(ia);
    const Node* nb = b.Find(ib);
    if (na == nullptr || nb == nullptr) {
      if (na != nb) return false;
      continue;
    }
    if (na->type != nb->type) return false;
    if (!na->is_element()) {
      if (na->text != nb->text) return false;
      continue;
    }
    // Cross-document comparison: spellings, not per-document NameIds.
    if (na->name != nb->name) return false;
    if (na->attributes != nb->attributes) return false;
    // Pair the children up, skipping comments on both sides.
    const std::vector<NodeId>& ca = na->children;
    const std::vector<NodeId>& cb = nb->children;
    size_t i = 0;
    size_t j = 0;
    while (true) {
      while (i < ca.size() && is_comment(a, ca[i])) ++i;
      while (j < cb.size() && is_comment(b, cb[j])) ++j;
      if (i == ca.size() || j == cb.size()) break;
      stack.emplace_back(ca[i++], cb[j++]);
    }
    if (i != ca.size() || j != cb.size()) return false;
  }
  return true;
}

}  // namespace axmlx::xml
