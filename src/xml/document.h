#ifndef AXMLX_XML_DOCUMENT_H_
#define AXMLX_XML_DOCUMENT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "xml/node.h"

namespace axmlx::xml {

/// A consistent read position over a versioned document (DESIGN.md §10).
///
/// `version` is the document's mutation counter captured at transaction
/// begin; reads through the view resolve every node to its state as of that
/// version. `writer` is the reading transaction's own writer tag: nodes it
/// wrote after the snapshot stay visible in their current (live) state, so
/// a transaction always reads its own writes. An inactive view reads the
/// live document (plain `Find`).
struct ReadView {
  uint64_t version = 0;  ///< Snapshot: document version at transaction begin.
  uint64_t writer = 0;   ///< Reader's writer tag (0 = read-only observer).
  bool active = false;   ///< False = live reads, no snapshot.
};

/// An in-memory XML tree with stable node ids and ordered children.
///
/// `Document` is the storage substrate for AXML repositories: every peer in
/// the simulated overlay hosts its documents as `Document` instances, and
/// all operations (query / insert / delete / replace, plus service-call
/// materializations) are edits against a `Document`.
///
/// A `Document` is also used to represent free-standing *fragments*, such
/// as a service invocation result: a fragment is simply a document whose
/// root carries the fragment's top-level nodes. Operation payloads are not
/// fragments: xml::ParseInto builds them straight into their target.
///
/// Storage layout (DESIGN.md §8): nodes live in slab pages — arrays of
/// `Node` that start small (8 slots) and double up to 512 — with a free
/// list of reusable slots. A `NodeId` maps to its slot through dense
/// per-id arrays with a generation check, so `Find` is two array reads,
/// stale ids of destroyed nodes resolve to nullptr, and `Node*` handles
/// stay valid until the node is destroyed (pages are never moved or
/// shrunk). Ids are still never reused, which the paper's compensation
/// contract (§3.1) relies on.
///
/// Tag names are interned in a per-document string table (`NameId`), and an
/// incidence index `NameId -> node ids` accelerates descendant-axis query
/// steps. The index is maintained lazily: entries of destroyed or renamed
/// nodes are filtered (and compacted) on lookup.
///
/// Not thread-safe; the discrete-event simulator is single-threaded.
class Document {
 public:
  /// Creates an empty document with a root element named `root_name`.
  /// Operation data (`<data>` payloads) no longer builds fragment documents
  /// — xml::ParseInto creates it in the target — so the small documents
  /// built here are service results and query-result copies.
  explicit Document(const std::string& root_name = "root");

  Document(const Document&) = delete;
  Document& operator=(const Document&) = delete;
  Document(Document&&) = default;
  Document& operator=(Document&&) = default;

  /// Deep copy (fresh ids are NOT assigned: ids are preserved so that
  /// snapshots taken for tests compare structurally AND positionally).
  std::unique_ptr<Document> Clone() const;

  // --- Replica synchronization (DESIGN.md §8) ------------------------------
  //
  // Eager replication keeps a copy of a peer's document on its replica
  // peer. Instead of re-cloning the whole document after every service, the
  // primary remembers which node ids it touched since the last push (the
  // RecordVersion hook every mutator already calls) and copies only those
  // records. That is sound only while the replica still is the copy the
  // primary last produced, which the primary checks by the replica's
  // identity and mutation count.

  /// Full copy for a replica: Clone(), and from now on this document
  /// records the ids it touches so SyncReplica can ship only those.
  std::unique_ptr<Document> CloneForReplica();

  /// Brings `replica` up to this document's state by copying the node
  /// records touched since the last push (id-preserving). Returns false,
  /// leaving `replica` untouched, unless `replica` provably still is the
  /// copy this document produced last time — same identity, no mutation
  /// since — and this document has tracked every change since; the caller
  /// then falls back to CloneForReplica().
  bool SyncReplica(Document* replica);

  /// Declares `replica` an exact copy of this document (same ids, same node
  /// records), so the next SyncReplica into it ships only the nodes touched
  /// from now on. CloneForReplica does this for the copy it makes; a replica
  /// resync that found no difference proves it for an existing copy.
  void TrackSyncedReplica(const Document& replica);

  /// Process-unique identity, fresh for every constructed or cloned
  /// document (a replaced document never passes for its predecessor).
  uint64_t identity() const { return identity_; }

  /// Counts every recorded node-state change, versioning on or off.
  uint64_t mutation_count() const { return mutations_; }

  /// Call-shape generation (DESIGN.md §8). After WatchCallShape() it moves
  /// at the next mutation that touches a reserved AXML element (node.h):
  /// one is created, destroyed, renamed to or from a reserved name,
  /// re-attributed, or attached inside a subtree. A child-list change by
  /// itself does not count — the children attached or destroyed carry it —
  /// so materializing a call and compensating it, which only swap an
  /// `axml:sc`'s plain result children, leave it alone. Whatever was
  /// derived from the calls' shape (which calls are visible, in what order,
  /// their attributes and their validity) at a watched generation stays
  /// valid while the generation and identity() are unchanged.
  uint64_t call_shape_generation() const { return call_shape_generation_; }

  /// Returns call_shape_generation() and makes the next call-shape change
  /// move it. Changes while nobody watches leave it alone — every holder
  /// of an older value already sees it differ — so building and loading a
  /// document pays nothing for it.
  uint64_t WatchCallShape() {
    call_shape_watched_ = true;
    return call_shape_generation_;
  }

  NodeId root() const { return root_; }

  /// Returns the node or nullptr if the id is unknown (e.g. deleted).
  const Node* Find(NodeId id) const {
    if (id == kNullNode || id >= slot_of_id_.size()) return nullptr;
    const uint32_t slot = slot_of_id_[id];
    if (slot == kInvalidSlot || slot_gen_[slot] != gen_of_id_[id]) {
      return nullptr;
    }
    return &NodeAt(slot);
  }

  /// Mutable access for internal editors. Prefer the typed mutators below.
  Node* FindMutable(NodeId id) {
    return const_cast<Node*>(std::as_const(*this).Find(id));
  }

  /// True if `id` identifies a live node of this document.
  bool Contains(NodeId id) const { return Find(id) != nullptr; }

  // --- Multi-version reads (DESIGN.md §10) ---------------------------------
  //
  // Versioning turns the slab's never-reused ids into cheap copy-on-write
  // history: every mutation first pushes the *prior* state of each touched
  // node onto that node's undo chain, tagged with the mutation's version
  // number and the current writer tag. A snapshot is just the version
  // counter captured at transaction begin; reconstructing a node at
  // snapshot S walks its chain for the oldest record newer than S. Live
  // reads stay two array reads — the chains are consulted only through
  // FindAt with an active view.

  /// Turns on version recording (idempotent). History starts empty: states
  /// from before the call cannot be reconstructed, which is fine because
  /// snapshots are always taken at or after the current version.
  void EnableVersioning() { versioning_enabled_ = true; }
  bool versioning_enabled() const { return versioning_enabled_; }

  /// Mutation counter: incremented once per recorded node-state change.
  uint64_t version() const { return version_; }

  /// Tags subsequent mutations with `writer` (a transaction's writer tag;
  /// 0 = untagged). Conflict detection and read-your-own-writes key off it.
  void SetWriter(uint64_t writer) { writer_ = writer; }
  uint64_t writer() const { return writer_; }

  /// `Find` as of `view`: the live node when unchanged since the snapshot
  /// (or last written by the view's own writer), the reconstructed prior
  /// state when another writer touched it afterwards, and nullptr when the
  /// node did not exist at the snapshot. The returned pointer stays valid
  /// until the next mutation or PruneVersionsBefore call.
  const Node* FindAt(NodeId id, const ReadView& view) const {
    if (!view.active || !versioning_enabled_) return Find(id);
    return FindVersioned(id, view);
  }

  /// Invokes `fn(version, writer)` for every retained history record of
  /// `id` with version > `since`, oldest first. Conflict detection scans
  /// these to find overlapping writers.
  void ForEachWriteSince(
      NodeId id, uint64_t since,
      const std::function<void(uint64_t version, uint64_t writer)>& fn) const;

  /// Concatenated descendant text as of `view` (live walk when inactive).
  void AppendTextContentAt(NodeId id, const ReadView& view,
                           std::string* out) const;

  /// Drops history records with version <= `min_version` — safe once no
  /// active snapshot is older than that version. Chains that empty are
  /// erased entirely, so an idle document carries no history at all.
  void PruneVersionsBefore(uint64_t min_version);

  /// Retained history records across all chains (introspection/tests).
  size_t VersionRecordCount() const;

  // --- Interned tag names --------------------------------------------------

  /// Returns the id of `name` in this document's string table, interning it
  /// on first use. Ids are stable for the document's lifetime.
  NameId InternName(std::string_view name);

  /// Returns the id of `name` if already interned, else kNoName. Lets
  /// lookups conclude "no element of this name exists here" without a scan.
  NameId FindNameId(std::string_view name) const;

  /// Spelling of an interned name (empty string for kNoName/out of range).
  const std::string& NameOf(NameId name_id) const;

  /// Number of distinct interned names.
  size_t interned_names() const { return names_.size(); }


  // --- Node creation -------------------------------------------------------

  /// Creates a detached element node; attach it with AppendChild/InsertAt.
  NodeId CreateElement(std::string_view name);

  /// Creates a detached text node.
  NodeId CreateText(std::string_view text);

  /// Creates a detached comment node.
  NodeId CreateComment(std::string_view text);

  // --- Tree mutation -------------------------------------------------------

  /// Appends detached node `child` as the last child of `parent`.
  Status AppendChild(NodeId parent, NodeId child);

  /// Inserts detached node `child` under `parent` at position `index`
  /// (0 = first; index == children.size() appends). The paper notes that
  /// compensating a delete in an *ordered* document needs insertion at a
  /// specific position (§3.1) — this is that primitive.
  Status InsertAt(NodeId parent, size_t index, NodeId child);

  /// Detaches and destroys the subtree rooted at `id`. Returns the former
  /// parent and position so callers (the op log) can build the inverse.
  struct RemovedInfo {
    NodeId parent = kNullNode;
    size_t index = 0;
  };
  Result<RemovedInfo> RemoveSubtree(NodeId id);

  /// Sets the text of a text node.
  Status SetText(NodeId id, const std::string& text);

  /// Renames an element node, keeping the interned id and tag index in sync.
  Status RenameElement(NodeId id, const std::string& name);

  /// Sets (adds or overwrites) an attribute on an element node.
  Status SetAttribute(NodeId id, const std::string& key,
                      const std::string& value);

  /// Replaces an element node's whole attribute list.
  Status SetAttributes(
      NodeId id, std::vector<std::pair<std::string, std::string>> attributes);

  // --- Subtree copy --------------------------------------------------------

  /// Deep-copies the subtree rooted at `src_id` in `src` into this document,
  /// detached (fresh ids). Returns the new subtree root id.
  Result<NodeId> ImportSubtree(const Document& src, NodeId src_id);

  /// Extracts the subtree rooted at `id` into a new fragment document whose
  /// root's children are [the copied subtree]. Does not modify `this`.
  Result<std::unique_ptr<Document>> ExtractFragment(NodeId id) const;

  /// Re-inserts a set of node records (a previously detached subtree,
  /// root-first, with internal parent/children links intact) under `parent`
  /// at `index`, preserving the original node ids. All ids must be free;
  /// `next_id_` is advanced past the largest restored id. Used by the edit
  /// log to roll back deletions exactly (see xml/edit.h). Record `name`
  /// spellings are re-interned, so records may originate from another
  /// document (diff replay between replicas).
  Status RestoreSubtree(const std::vector<Node>& nodes, NodeId subtree_root,
                        NodeId parent, size_t index);

  /// Renumbers a document nobody has read ids from yet (no versioning, no
  /// replica tracking): the i-th node in pre-order, root first, takes
  /// `ids[i]`, and new nodes continue from `next_id`. Rebuilds a document
  /// from an id-exact snapshot in one pass after parsing it
  /// (xml/id_codec.h). A count mismatch, or a repeated or zero id, or one
  /// not below `next_id`, is an error and leaves the document unchanged.
  Status AssignPreOrderIds(const std::vector<NodeId>& ids, NodeId next_id);

  // --- Tag index -----------------------------------------------------------

  /// Appends the ids of all live element nodes whose current name is
  /// `name_id` (attached or detached, in allocation order — NOT document
  /// order). Stale index entries are swept as a side effect.
  void CollectElementsNamed(NameId name_id, std::vector<NodeId>* out) const;

  /// False when CollectElementsNamed(name_id) would append nothing because
  /// the index holds no entry, live or stale, for `name_id`. O(1).
  bool HasIndexEntries(NameId name_id) const {
    return name_id < name_index_.size() && !name_index_[name_id].empty();
  }

  // --- Introspection -------------------------------------------------------

  /// Number of live nodes (including the root).
  size_t size() const { return live_nodes_; }

  /// One past the largest id ever allocated here; the next new node's id.
  NodeId next_id() const { return next_id_; }



  /// Number of nodes in the subtree rooted at `id` (0 if unknown).
  size_t SubtreeSize(NodeId id) const;

  /// Index of `id` within its parent's children, or npos if detached/root.
  static constexpr size_t kNpos = static_cast<size_t>(-1);
  size_t IndexInParent(NodeId id) const;

  /// Concatenation of all descendant text nodes, in document order.
  std::string TextContent(NodeId id) const;

  /// Appends the concatenation of all descendant text nodes to `*out`.
  void AppendTextContent(NodeId id, std::string* out) const;

  /// Pre-order traversal of the subtree rooted at `id`; `fn` returning
  /// false prunes descent into that node's children.
  void Walk(NodeId id, const std::function<bool(const Node&)>& fn) const;

  /// Human-readable slash path of `id` from the root, e.g.
  /// "/ATPList/player[0]/name". Diagnostics only.
  std::string PathOf(NodeId id) const;

  /// Serializes the subtree at `id` (default: the whole document).
  /// `pretty` adds two-space indentation and newlines.
  std::string Serialize(NodeId id = kNullNode, bool pretty = false) const;

  /// Appends Serialize(id, pretty) to `*out`.
  void SerializeTo(NodeId id, std::string* out, bool pretty = false) const;

  /// Serializes the subtree rooted at `root` from free-standing node
  /// records (a detached subtree, xml/edit.h: each record's `children`
  /// name other records by id), byte for byte as Serialize would once the
  /// records were restored into a document. A child id with no record is
  /// left out, as Serialize leaves out an unknown id.
  static std::string SerializeRecords(const std::vector<Node>& records,
                                      NodeId root);

  /// Structural equality of two subtrees (names, attributes, text, order);
  /// ignores node ids and comments.
  static bool SubtreeEquals(const Document& a, NodeId a_id, const Document& b,
                            NodeId b_id);

  /// Structural equality of whole documents.
  static bool Equals(const Document& a, const Document& b) {
    return SubtreeEquals(a, a.root(), b, b.root());
  }

  /// Slab / interning counters, monotonic over the document's lifetime.
  struct StorageStats {
    int64_t nodes_allocated = 0;  ///< NewNode calls (slab slot grabs).
    int64_t nodes_freed = 0;      ///< Destroyed nodes (slots recycled).
    int64_t slots_reused = 0;     ///< Allocations served from the free list.
    int64_t pages_allocated = 0;  ///< Slab pages ever allocated.
    int64_t index_entries_swept = 0;  ///< Stale tag-index entries dropped.
    int64_t versions_recorded = 0;  ///< Undo records pushed (MVCC).
    int64_t versions_pruned = 0;    ///< Undo records garbage-collected.
  };
  const StorageStats& storage_stats() const { return storage_stats_; }

 private:
  // Slab geometry: nodes live in pages of contiguous records, so `Node*`
  // handles never move (pages are never freed or reallocated) while
  // allocation stays mostly-contiguous and reusable through the free list.
  // Pages start small so a throwaway fragment document does not build 512
  // nodes: page 0 holds slots [0, 8), page p in 1..6 holds [2^(p+2),
  // 2^(p+3)) — 8, 16, ..., 256 slots — and every later page holds
  // kPageSize slots, page p covering [(p - 6) * 512, (p - 5) * 512).
  // Lookup does not need the page number: `chunks_` lists the first node of
  // every 8-slot run, so NodeAt is one load and an index, as with
  // fixed-size pages.
  static constexpr uint32_t kChunkBits = 3;  ///< Also page 0's size (8).
  static constexpr uint32_t kChunkMask = (1u << kChunkBits) - 1;
  static constexpr uint32_t kPageBits = 9;
  static constexpr uint32_t kPageSize = 1u << kPageBits;
  /// Pages below slot kPageSize (the 8-slot page plus one per doubling).
  static constexpr uint32_t kSmallPages = kPageBits - kChunkBits + 1;
  static constexpr uint32_t kInvalidSlot = 0xFFFFFFFFu;

  /// Slots held by page `page`.
  static uint32_t PageCapacity(size_t page) {
    if (page == 0) return 1u << kChunkBits;
    if (page < kSmallPages) return 1u << (page + kChunkBits - 1);
    return kPageSize;
  }
  /// First slot of page `page`; equally, the slots held by pages before it.
  static uint32_t PageStart(size_t page) {
    if (page == 0) return 0;
    if (page < kSmallPages) return 1u << (page + kChunkBits - 1);
    return static_cast<uint32_t>(page - kSmallPages + 1) << kPageBits;
  }

  /// Id of a reserved AXML name (node.h), or kNoName for any other name.
  static NameId ReservedNameId(std::string_view name);

  struct RawTag {};  ///< Tag for the member-copying Clone constructor.
  explicit Document(RawTag);

  Node& NodeAt(uint32_t slot) {
    return chunks_[slot >> kChunkBits][slot & kChunkMask];
  }
  const Node& NodeAt(uint32_t slot) const {
    return chunks_[slot >> kChunkBits][slot & kChunkMask];
  }

  /// Takes ownership of a fresh page and indexes its 8-slot runs.
  void AddPage(std::unique_ptr<Node[]> page, uint32_t capacity);

  /// Grabs a free slot (free list first, else bump allocation, growing the
  /// slab by one page of the next size when full).
  uint32_t AllocSlot();

  /// Maps `id` to `slot` in the id->slot arrays, growing them as needed and
  /// advancing next_id_ past `id`.
  void MapIdToSlot(NodeId id, uint32_t slot);

  /// `name_id` is the name the new node will carry (kNoName: none).
  NodeId NewNode(NodeType type, NameId name_id = kNoName);

  /// Returns `id`'s slot to the free list (generation bump + field reset so
  /// the slot's string/vector capacity is recycled).
  void FreeNode(NodeId id);

  void DestroySubtree(NodeId id);
  NodeId ImportRec(const Document& src, NodeId src_id);

  /// One undo record: the state of a node just before the mutation numbered
  /// `version` (by `writer`) replaced it. `live == false` means the node
  /// did not exist before that mutation (creation / id-preserving restore).
  struct VersionRecord {
    uint64_t version = 0;
    uint64_t writer = 0;
    bool live = false;
    Node state;
  };

  /// What a mutation is about to change on the node it records, as far as
  /// the call-shape generation cares.
  enum class Touch {
    kRecord,     ///< Existence, name, attributes or text.
    kChildList,  ///< Only the child list (the node is the parent).
    kAttach,     ///< The node's whole subtree is being attached.
  };

  /// Pushes the current state of `id` (or an "absent" record) onto its undo
  /// chain under a fresh version number (versioning on only), and moves the
  /// call-shape generation when the change touches a reserved element.
  /// `becomes` is the name a kRecord change gives the node (kNoName: the
  /// name stays). Mutators call this immediately before changing the node.
  void RecordVersion(NodeId id, Touch touch = Touch::kRecord,
                     NameId becomes = kNoName);

  /// True when the subtree rooted at `id` holds a reserved element.
  bool HoldsReservedElement(NodeId id) const;

  /// Moves the call-shape generation if someone watches it.
  void MoveCallShape() {
    if (!call_shape_watched_) return;
    ++call_shape_generation_;
    call_shape_watched_ = false;
  }

  const Node* FindVersioned(NodeId id, const ReadView& view) const;

  struct StringHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  struct StringEq {
    using is_transparent = void;
    bool operator()(std::string_view a, std::string_view b) const {
      return a == b;
    }
  };

  NodeId next_id_ = 1;
  NodeId root_ = kNullNode;

  // Replica sync state (see SyncReplica). While `track_changes_` is on,
  // RecordVersion appends every touched id to `changed_ids_`; `synced_*`
  // name the replica copy the last push produced.
  uint64_t identity_ = 0;
  uint64_t mutations_ = 0;
  uint64_t call_shape_generation_ = 0;
  bool call_shape_watched_ = false;
  bool track_changes_ = false;
  std::vector<NodeId> changed_ids_;
  uint64_t synced_identity_ = 0;
  uint64_t synced_mutations_ = 0;
  size_t live_nodes_ = 0;

  // Slab storage + free list.
  std::vector<std::unique_ptr<Node[]>> pages_;
  std::vector<Node*> chunks_;  ///< [slot >> kChunkBits] -> run's first node.
  uint32_t slots_used_ = 0;  ///< High-water mark of ever-touched slots.
  std::vector<uint32_t> free_slots_;
  std::vector<uint32_t> slot_gen_;  ///< [slot] -> current generation.

  // Dense id -> slot mapping with the generation captured at mapping time;
  // a mismatch means the id is stale (its node was destroyed).
  std::vector<uint32_t> slot_of_id_;
  std::vector<uint32_t> gen_of_id_;

  // Interned tag names.
  std::vector<std::string> names_;
  std::unordered_map<std::string, NameId, StringHash, StringEq> name_ids_;

  // Tag index: [NameId] -> element ids, maintained lazily (mutable so const
  // lookups can sweep stale entries in place).
  mutable std::vector<std::vector<NodeId>> name_index_;

  // MVCC state: per-node undo chains, append-ordered by version. Empty (and
  // cost-free on the mutation path) until EnableVersioning().
  bool versioning_enabled_ = false;
  uint64_t version_ = 0;
  uint64_t writer_ = 0;
  std::unordered_map<NodeId, std::vector<VersionRecord>> history_;

  mutable StorageStats storage_stats_;

  // Shared work stack for the iterative internal walks (DestroySubtree,
  // SubtreeSize, AppendTextContent). Those never nest and take no user
  // callbacks, so one buffer keeps the hot paths allocation-free.
  mutable std::vector<NodeId> walk_scratch_;
};

}  // namespace axmlx::xml

#endif  // AXMLX_XML_DOCUMENT_H_
