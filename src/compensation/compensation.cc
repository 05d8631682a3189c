#include "compensation/compensation.h"

#include <memory>

#include "common/strings.h"

namespace axmlx::comp {

std::string SerializeDetached(const xml::DetachedSubtree& subtree) {
  return xml::Document::SerializeRecords(subtree.nodes, subtree.root);
}

namespace {

/// Appends the inverse of `edit` to `plan`.
void AppendInverse(const xml::Edit& edit, CompensationPlan* plan) {
  switch (edit.kind) {
    case xml::Edit::Kind::kInsertSubtree: {
      // "The compensating operation (for the insert operation) is a delete
      // operation to delete the node having the corresponding ID." (§3.1)
      plan->operations.push_back(ops::MakeDeleteById(edit.node));
      break;
    }
    case xml::Edit::Kind::kRemoveSubtree: {
      // "...the <location> and <data> of the compensating insert operation
      // are the parent (/..) of the deleted node and the result of the
      // <location> query of the delete operation, respectively." (§3.1)
      ops::Operation op = ops::MakeInsertAt(edit.parent, edit.index,
                                            SerializeDetached(edit.removed));
      op.restore = std::make_shared<xml::DetachedSubtree>(edit.removed);
      plan->operations.push_back(std::move(op));
      break;
    }
    case xml::Edit::Kind::kSetText: {
      ops::Operation op;
      op.type = ops::ActionType::kReplace;
      op.target_node = edit.node;
      op.data_xml = XmlEscape(edit.old_text);
      plan->operations.push_back(std::move(op));
      break;
    }
  }
  plan->cost_nodes += edit.nodes_affected;
}

}  // namespace

CompensationPlan CompensationBuilder::ForEffect(const ops::OpEffect& effect) {
  CompensationPlan plan;
  const std::vector<xml::Edit>& edits = effect.edits.edits();
  for (size_t i = edits.size(); i > 0; --i) {
    AppendInverse(edits[i - 1], &plan);
  }
  return plan;
}

CompensationPlan CompensationBuilder::ForLog(const ops::OpLog& log) {
  CompensationPlan plan;
  const std::vector<ops::OpEffect>& effects = log.effects();
  for (size_t i = effects.size(); i > 0; --i) {
    CompensationPlan sub = ForEffect(effects[i - 1]);
    for (ops::Operation& op : sub.operations) {
      plan.operations.push_back(std::move(op));
    }
    plan.cost_nodes += sub.cost_nodes;
  }
  return plan;
}

std::vector<std::string> CompensationBuilder::ToPaperXml(
    const CompensationPlan& plan) {
  std::vector<std::string> out;
  out.reserve(plan.operations.size());
  for (const ops::Operation& op : plan.operations) {
    out.push_back(op.ToXml());
  }
  return out;
}

Status ApplyPlan(ops::Executor* executor, const CompensationPlan& plan,
                 size_t* nodes_affected) {
  size_t total = 0;
  for (const ops::Operation& op : plan.operations) {
    auto effect = executor->Execute(op);
    if (!effect.ok()) return effect.status();
    total += effect->NodesAffected();
  }
  if (nodes_affected != nullptr) *nodes_affected = total;
  return Status::Ok();
}

}  // namespace axmlx::comp
