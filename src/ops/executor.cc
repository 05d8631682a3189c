#include "ops/executor.h"

#include <utility>

#include "obs/flight_recorder.h"
#include "query/parser.h"
#include "xml/parser.h"

namespace axmlx::ops {

Executor::Executor(xml::Document* doc, axml::ServiceInvoker invoker)
    : doc_(doc), invoker_(std::move(invoker)) {
  if (!invoker_) {
    invoker_ = [](const axml::ServiceRequest& request)
        -> Result<axml::ServiceResponse> {
      return FailedPrecondition("no service invoker configured for call to " +
                                request.method_name);
    };
  }
}

void Executor::SetExternal(const std::string& name, const std::string& value) {
  externals_.emplace_back(name, value);
}

Result<query::QueryResult> Executor::Evaluate(const query::Query& q) {
  if (eval_ctx_ != nullptr) return query::EvaluateQuery(*doc_, q, eval_ctx_);
  return query::EvaluateQuery(*doc_, q);
}

Result<std::vector<xml::NodeId>> Executor::ResolveLocation(const Operation& op,
                                                           OpEffect* effect) {
  if (op.target_node != xml::kNullNode) {
    if (!doc_->Contains(op.target_node)) {
      return NotFound("operation targets unknown node id " +
                      std::to_string(op.target_node));
    }
    return std::vector<xml::NodeId>{op.target_node};
  }
  if (op.location.empty()) {
    return InvalidArgument("operation has neither a location nor a target");
  }
  query::Query parsed;
  const query::Query* location = &parsed;
  if (eval_ctx_ != nullptr) {
    AXMLX_ASSIGN_OR_RETURN(location, eval_ctx_->ParsedQuery(op.location));
  } else {
    AXMLX_ASSIGN_OR_RETURN(parsed, query::ParseQuery(op.location));
  }
  const query::Query& q = *location;
  // "The <location> query evaluation may involve service call
  // materializations, and as such, updates to the AXML document." (§3.1)
  axml::Materializer materializer(doc_, invoker_, &effect->edits);
  for (const auto& [name, value] : externals_) {
    materializer.SetExternal(name, value);
  }
  if (op.eager) {
    AXMLX_RETURN_IF_ERROR(materializer.MaterializeAll(doc_->root()).status());
  } else {
    AXMLX_RETURN_IF_ERROR(
        materializer.MaterializeForQuery(q, doc_->root()).status());
  }
  effect->materialize_stats = materializer.stats();
  if (op.type == ActionType::kQuery) {
    AXMLX_ASSIGN_OR_RETURN(effect->query_result, Evaluate(q));
    return effect->query_result.AllSelected();
  }
  AXMLX_ASSIGN_OR_RETURN(query::QueryResult result, Evaluate(q));
  return result.AllSelected();
}

Status Executor::InsertData(const xml::Document& fragment, xml::NodeId parent,
                            bool has_index, size_t index, OpEffect* effect) {
  const xml::Node* frag_root = fragment.Find(fragment.root());
  size_t offset = 0;
  for (xml::NodeId child : frag_root->children) {
    AXMLX_ASSIGN_OR_RETURN(xml::NodeId copy,
                           doc_->ImportSubtree(fragment, child));
    if (has_index) {
      AXMLX_RETURN_IF_ERROR(doc_->InsertAt(parent, index + offset, copy));
      ++offset;
    } else {
      AXMLX_RETURN_IF_ERROR(doc_->AppendChild(parent, copy));
    }
    xml::Edit edit;
    edit.kind = xml::Edit::Kind::kInsertSubtree;
    edit.node = copy;
    edit.parent = parent;
    edit.index = doc_->IndexInParent(copy);
    edit.nodes_affected = doc_->SubtreeSize(copy);
    effect->edits.Append(std::move(edit));
    effect->inserted.push_back(copy);
  }
  return Status::Ok();
}

PreparedOp Executor::Prepare(const xml::Document& doc, const Operation& op,
                             query::EvalContext* ctx) {
  PreparedOp prep;
  // Fall back to the full synchronous path whenever execution could do more
  // than read-then-mutate: compensating restores (exact-id reattach), direct
  // target ids (live Contains check at execute time), eager materialization,
  // or any embedded service call the <location> evaluation might
  // materialize. Prepare-time failures also fall back so the synchronous
  // path reproduces the exact error.
  if (op.restore != nullptr || op.eager || op.target_node != xml::kNullNode ||
      op.location.empty()) {
    return prep;
  }
  std::vector<xml::NodeId> calls;
  doc.CollectElementsNamed(xml::kNameAxmlSc, &calls);
  if (!calls.empty()) return prep;
  auto q_or = query::ParseQuery(op.location);
  if (!q_or.ok()) return prep;
  Result<query::QueryResult> result_or =
      ctx != nullptr ? query::EvaluateQuery(doc, q_or.value(), ctx)
                     : query::EvaluateQuery(doc, q_or.value());
  if (!result_or.ok()) return prep;
  if (op.type == ActionType::kInsert || op.type == ActionType::kReplace) {
    auto fragment_or = xml::Parse("<data>" + op.data_xml + "</data>");
    if (!fragment_or.ok()) return prep;
    prep.fragment = std::move(fragment_or).value();
  }
  if (op.type == ActionType::kQuery) {
    prep.query_result = std::move(result_or).value();
    prep.targets = prep.query_result.AllSelected();
  } else {
    prep.targets = result_or.value().AllSelected();
  }
  prep.prepared = true;
  return prep;
}

Result<OpEffect> Executor::Execute(const Operation& op) {
  return ExecutePrepared(op, PreparedOp{});
}

Result<OpEffect> Executor::ExecutePrepared(const Operation& op,
                                           PreparedOp prep) {
  Result<OpEffect> result = ExecuteInternal(op, &prep);
  if (recorder_ != nullptr) {
    // `what` is the lowercase action name; `arg` carries the paper's cost
    // measure (nodes affected), or -1 for a failed operation.
    recorder_->Record(
        obs::kEvFrOpExec, result.ok() ? ActionTypeName(op.type) : "failed",
        /*span=*/0,
        result.ok() ? static_cast<int64_t>(result.value().NodesAffected())
                    : int64_t{-1});
  }
  return result;
}

Result<OpEffect> Executor::ExecuteInternal(const Operation& op,
                                           PreparedOp* prep) {
  const bool use_prep = prep != nullptr && prep->prepared;
  OpEffect effect;
  effect.op = op;
  auto fail = [this, &effect](Status status) -> Status {
    // Leave the document untouched on error.
    Status rollback = xml::RollbackAll(doc_, effect.edits);
    if (!rollback.ok()) {
      return Internal("rollback after failed operation also failed: " +
                      rollback.message() + " (original: " + status.message() +
                      ")");
    }
    return status;
  };

  if (use_prep) {
    effect.targets = std::move(prep->targets);
    if (op.type == ActionType::kQuery) {
      effect.query_result = std::move(prep->query_result);
    }
  } else {
    auto targets_or = ResolveLocation(op, &effect);
    if (!targets_or.ok()) return fail(targets_or.status());
    effect.targets = std::move(targets_or).value();
  }

  switch (op.type) {
    case ActionType::kQuery:
      return effect;

    case ActionType::kDelete: {
      for (xml::NodeId target : effect.targets) {
        // A previous deletion may have removed this target already (nested
        // targets); skip silently, matching set-oriented delete semantics.
        if (!doc_->Contains(target)) continue;
        auto detached_or = xml::DetachSubtree(doc_, target);
        if (!detached_or.ok()) return fail(detached_or.status());
        xml::DetachResult detached = std::move(detached_or).value();
        xml::Edit edit;
        edit.kind = xml::Edit::Kind::kRemoveSubtree;
        edit.node = detached.subtree.root;
        edit.parent = detached.parent;
        edit.index = detached.index;
        edit.nodes_affected = detached.subtree.size();
        edit.removed = std::move(detached.subtree);
        effect.edits.Append(std::move(edit));
      }
      return effect;
    }

    case ActionType::kInsert: {
      // Compensating inserts built from the log carry the deleted subtree
      // with original ids; restore it exactly when possible.
      if (op.restore != nullptr && op.target_node != xml::kNullNode) {
        xml::NodeId parent = op.target_node;
        size_t index = op.has_position
                           ? op.position
                           : doc_->Find(parent)->children.size();
        Status s = xml::Reattach(doc_, *op.restore, parent, index);
        if (s.ok()) {
          xml::Edit edit;
          edit.kind = xml::Edit::Kind::kInsertSubtree;
          edit.node = op.restore->root;
          edit.parent = parent;
          edit.index = index;
          edit.nodes_affected = op.restore->size();
          effect.edits.Append(std::move(edit));
          effect.inserted.push_back(op.restore->root);
          return effect;
        }
        // Ids already live again (e.g. the plan ran twice): fall back to
        // fresh-id insertion of the serialized payload below.
      }
      std::unique_ptr<xml::Document> fragment;
      if (use_prep && prep->fragment != nullptr) {
        fragment = std::move(prep->fragment);
      } else {
        auto fragment_or = xml::Parse("<data>" + op.data_xml + "</data>");
        if (!fragment_or.ok()) return fail(fragment_or.status());
        fragment = std::move(fragment_or).value();
      }
      if (op.anchor != Operation::Anchor::kInto) {
        // Ordered-document insertion (§3.1): the located nodes are anchor
        // siblings; insert adjacent to each under its physical parent.
        for (xml::NodeId sibling : effect.targets) {
          if (!doc_->Contains(sibling)) continue;
          const xml::Node* anchor_node = doc_->Find(sibling);
          if (anchor_node->parent == xml::kNullNode) {
            return fail(
                FailedPrecondition("cannot insert beside the document root"));
          }
          size_t index = doc_->IndexInParent(sibling);
          if (op.anchor == Operation::Anchor::kAfter) ++index;
          Status s = InsertData(*fragment, anchor_node->parent,
                                /*has_index=*/true, index, &effect);
          if (!s.ok()) return fail(s);
        }
        return effect;
      }
      for (xml::NodeId parent : effect.targets) {
        if (!doc_->Contains(parent)) continue;
        Status s = InsertData(*fragment, parent, op.has_position,
                              op.position, &effect);
        if (!s.ok()) return fail(s);
      }
      return effect;
    }

    case ActionType::kReplace: {
      // "An AXML replace operation is usually implemented as a combination
      // of a delete and update operation, i.e., delete the node to be
      // replaced followed by insertion of a node (having the updated value)
      // at the same position." (§3.1)
      std::unique_ptr<xml::Document> fragment;
      if (use_prep && prep->fragment != nullptr) {
        fragment = std::move(prep->fragment);
      } else {
        auto fragment_or = xml::Parse("<data>" + op.data_xml + "</data>");
        if (!fragment_or.ok()) return fail(fragment_or.status());
        fragment = std::move(fragment_or).value();
      }
      for (xml::NodeId target : effect.targets) {
        if (!doc_->Contains(target)) continue;
        auto detached_or = xml::DetachSubtree(doc_, target);
        if (!detached_or.ok()) return fail(detached_or.status());
        xml::DetachResult detached = std::move(detached_or).value();
        xml::NodeId parent = detached.parent;
        size_t index = detached.index;
        xml::Edit edit;
        edit.kind = xml::Edit::Kind::kRemoveSubtree;
        edit.node = detached.subtree.root;
        edit.parent = parent;
        edit.index = index;
        edit.nodes_affected = detached.subtree.size();
        edit.removed = std::move(detached.subtree);
        effect.edits.Append(std::move(edit));
        Status s = InsertData(*fragment, parent, /*has_index=*/true, index,
                              &effect);
        if (!s.ok()) return fail(s);
      }
      return effect;
    }
  }
  return Internal("unknown action type");
}

}  // namespace axmlx::ops
