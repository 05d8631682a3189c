#include "xml/diff.h"

#include <memory>
#include <utility>
#include <vector>

namespace axmlx::xml {

namespace {

/// The ids reachable from the root, as a bitmap indexed by id.
class IdSet {
 public:
  explicit IdSet(const Document& doc) : bits_(doc.next_id(), false) {
    doc.Walk(doc.root(), [this](const Node& n) {
      bits_[n.id] = true;
      return true;
    });
  }
  bool Has(NodeId id) const { return id < bits_.size() && bits_[id]; }

 private:
  std::vector<bool> bits_;
};

DetachedSubtree CopySubtree(const Document& doc, NodeId root) {
  DetachedSubtree subtree;
  subtree.root = root;
  doc.Walk(root, [&subtree](const Node& n) {
    subtree.nodes.push_back(n);
    return true;
  });
  subtree.nodes.front().parent = kNullNode;
  return subtree;
}

/// Applies one diff op to `doc`.
Status ApplyOp(Document* doc, const DiffOp& op) {
  switch (op.kind) {
    case DiffOp::Kind::kRemoveSubtree:
      return doc->RemoveSubtree(op.node).status();
    case DiffOp::Kind::kInsertSubtree: {
      const Node* parent = doc->Find(op.parent);
      if (parent == nullptr) return NotFound("diff: unknown insert parent");
      size_t index = op.index > parent->children.size()
                         ? parent->children.size()
                         : op.index;
      return Reattach(doc, op.subtree, op.parent, index);
    }
    case DiffOp::Kind::kSetText:
      return doc->SetText(op.node, op.text);
    case DiffOp::Kind::kSetAttributes:
      if (!doc->Contains(op.node)) return NotFound("diff: unknown attr node");
      return doc->SetAttributes(op.node, op.attributes);
    case DiffOp::Kind::kMove: {
      // Re-position: detach (ids preserved) and reinsert at the target.
      AXMLX_ASSIGN_OR_RETURN(DetachResult detached,
                             DetachSubtree(doc, op.node));
      const Node* parent = doc->Find(op.parent);
      if (parent == nullptr) return NotFound("diff: unknown move parent");
      size_t index = op.index > parent->children.size()
                         ? parent->children.size()
                         : op.index;
      return Reattach(doc, detached.subtree, op.parent, index);
    }
  }
  return Internal("diff: unknown op kind");
}

}  // namespace

size_t DocumentDiff::NodesAffected() const {
  size_t total = 0;
  for (const DiffOp& op : ops) {
    switch (op.kind) {
      case DiffOp::Kind::kInsertSubtree:
        total += op.subtree.size();
        break;
      default:
        total += 1;
    }
  }
  return total;
}

namespace {

/// Phases A-C of the script from `from` to `to`: removes, inserts and
/// content updates. Reads both documents only.
DocumentDiff StructuralOps(const Document& from, const Document& to) {
  const IdSet from_ids(from);
  const IdSet to_ids(to);
  DocumentDiff diff;

  // Phase A — removes: from-only subtree roots whose parent survives.
  from.Walk(from.root(), [&](const Node& n) {
    if (to_ids.Has(n.id)) return true;
    if (n.parent != kNullNode && to_ids.Has(n.parent)) {
      DiffOp op;
      op.kind = DiffOp::Kind::kRemoveSubtree;
      op.node = n.id;
      diff.ops.push_back(std::move(op));
    }
    return false;  // descendants are covered by this removal
  });

  // Phase B — inserts: to-only subtree roots under surviving parents.
  to.Walk(to.root(), [&](const Node& n) {
    if (from_ids.Has(n.id)) return true;
    if (n.parent != kNullNode && from_ids.Has(n.parent)) {
      DiffOp op;
      op.kind = DiffOp::Kind::kInsertSubtree;
      op.parent = n.parent;
      op.index = to.IndexInParent(n.id);
      op.subtree = CopySubtree(to, n.id);
      op.node = n.id;
      diff.ops.push_back(std::move(op));
    }
    return false;
  });

  // Phase C — content updates on shared nodes.
  to.Walk(to.root(), [&](const Node& n) {
    if (!from_ids.Has(n.id)) return false;
    const Node* old_node = from.Find(n.id);
    if (n.type != old_node->type || n.name != old_node->name) {
      // Ids are never recycled across types/names in this system; treat a
      // mismatch as replace.
      DiffOp remove;
      remove.kind = DiffOp::Kind::kRemoveSubtree;
      remove.node = n.id;
      diff.ops.push_back(std::move(remove));
      DiffOp insert;
      insert.kind = DiffOp::Kind::kInsertSubtree;
      insert.parent = n.parent;
      insert.index = to.IndexInParent(n.id);
      insert.subtree = CopySubtree(to, n.id);
      insert.node = n.id;
      diff.ops.push_back(std::move(insert));
      return false;
    }
    if (!n.is_element() && n.text != old_node->text) {
      DiffOp op;
      op.kind = DiffOp::Kind::kSetText;
      op.node = n.id;
      op.text = n.text;
      diff.ops.push_back(std::move(op));
    }
    if (n.is_element() && n.attributes != old_node->attributes) {
      DiffOp op;
      op.kind = DiffOp::Kind::kSetAttributes;
      op.node = n.id;
      op.attributes = n.attributes;
      diff.ops.push_back(std::move(op));
    }
    return true;
  });

  return diff;
}

/// Phase D — ordering/reparenting: `sim` has been through `diff`'s phases
/// A-C; walks `to` pre-order and applies (and appends) the moves that make
/// every element's child list match exactly.
Status AppendMoves(Document* sim, const Document& to, DocumentDiff* diff) {
  std::vector<NodeId> shared_elements;
  to.Walk(to.root(), [&](const Node& n) {
    if (n.is_element() && sim->Contains(n.id)) {
      shared_elements.push_back(n.id);
    }
    return true;
  });
  for (NodeId elem : shared_elements) {
    const Node* want = to.Find(elem);
    for (size_t i = 0; i < want->children.size(); ++i) {
      NodeId expected = want->children[i];
      const Node* sim_elem = sim->Find(elem);
      if (sim_elem == nullptr) break;
      if (i < sim_elem->children.size() && sim_elem->children[i] == expected) {
        continue;
      }
      if (!sim->Contains(expected)) {
        return Internal("diff: node " + std::to_string(expected) +
                        " missing after structural phases");
      }
      DiffOp op;
      op.kind = DiffOp::Kind::kMove;
      op.node = expected;
      op.parent = elem;
      op.index = i;
      AXMLX_RETURN_IF_ERROR(ApplyOp(sim, op));
      diff->ops.push_back(std::move(op));
    }
  }
  return Status::Ok();
}

Status RequireSharedRoot(const Document& from, const Document& to) {
  if (from.root() != to.root()) {
    return FailedPrecondition(
        "ComputeDiff requires versions sharing a root id (clone-derived "
        "replicas)");
  }
  return Status::Ok();
}

}  // namespace

Result<DocumentDiff> ComputeDiff(const Document& from, const Document& to) {
  AXMLX_RETURN_IF_ERROR(RequireSharedRoot(from, to));
  DocumentDiff diff = StructuralOps(from, to);
  // Moves are found by simulating the script so far on a scratch copy.
  std::unique_ptr<Document> sim = from.Clone();
  for (const DiffOp& op : diff.ops) {
    AXMLX_RETURN_IF_ERROR(ApplyOp(sim.get(), op));
  }
  AXMLX_RETURN_IF_ERROR(AppendMoves(sim.get(), to, &diff));
  return diff;
}

Result<DocumentDiff> SyncDocument(Document* doc, const Document& to) {
  AXMLX_RETURN_IF_ERROR(RequireSharedRoot(*doc, to));
  DocumentDiff diff = StructuralOps(*doc, to);
  for (const DiffOp& op : diff.ops) {
    AXMLX_RETURN_IF_ERROR(ApplyOp(doc, op));
  }
  AXMLX_RETURN_IF_ERROR(AppendMoves(doc, to, &diff));
  return diff;
}

Status ApplyDiff(Document* doc, const DocumentDiff& diff) {
  for (const DiffOp& op : diff.ops) {
    AXMLX_RETURN_IF_ERROR(ApplyOp(doc, op));
  }
  return Status::Ok();
}

}  // namespace axmlx::xml
