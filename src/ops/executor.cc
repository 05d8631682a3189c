#include "ops/executor.h"

#include <utility>

#include "axml/service_call.h"
#include "obs/flight_recorder.h"
#include "query/parser.h"
#include "xml/element_path.h"
#include "xml/parser.h"

namespace axmlx::ops {

namespace {

/// The text ParseInto reads for `op`'s payload.
std::string WrapPayload(const Operation& op) {
  std::string wrapped;
  wrapped.reserve(op.data_xml.size() + 13);
  wrapped.append("<data>").append(op.data_xml).append("</data>");
  return wrapped;
}

}  // namespace

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
  if (!op.path.empty()) {
    AXMLX_ASSIGN_OR_RETURN(xml::NodeId target,
                           xml::ResolveElementPath(*doc_, op.path));
    return std::vector<xml::NodeId>{target};
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
  axml::Materializer materializer(doc_, invoker_, &effect->edits, catalog_,
                                  eval_ctx_);
  for (const auto& [name, value] : externals_) {
    materializer.SetExternal(name, value);
  }
  // Each materialization that changed the document is one record: the
  // call's path and its results as text.
  Status captured = Status::Ok();
  if (records_ != nullptr) {
    materializer.SetResultsObserver(
        [this, &captured](xml::NodeId sc, const xml::Document& fragment) {
          if (!captured.ok()) return;
          Operation& record = records_->emplace_back();
          record.type = ActionType::kQuery;
          captured = xml::AppendElementPath(*doc_, sc, &record.path);
          for (xml::NodeId c : fragment.Find(fragment.root())->children) {
            fragment.SerializeTo(c, &record.data_xml);
          }
        });
  }
  if (op.eager) {
    AXMLX_RETURN_IF_ERROR(materializer.MaterializeAll(doc_->root()).status());
  } else {
    AXMLX_RETURN_IF_ERROR(
        materializer.MaterializeForQuery(q, doc_->root()).status());
  }
  AXMLX_RETURN_IF_ERROR(captured);
  effect->materialize_stats = materializer.stats();
  if (op.type == ActionType::kQuery) {
    AXMLX_ASSIGN_OR_RETURN(effect->query_result, Evaluate(q));
    return effect->query_result.AllSelected();
  }
  AXMLX_ASSIGN_OR_RETURN(query::QueryResult result, Evaluate(q));
  return result.AllSelected();
}

Status Executor::InsertData(std::string_view payload, xml::NodeId parent,
                            bool has_index, size_t index, OpEffect* effect) {
  AXMLX_ASSIGN_OR_RETURN(std::vector<xml::NodeId> nodes,
                         xml::ParseCheckedInto(doc_, payload));
  for (size_t i = 0; i < nodes.size(); ++i) {
    const xml::NodeId node = nodes[i];
    Status linked = has_index ? doc_->InsertAt(parent, index + i, node)
                              : doc_->AppendChild(parent, node);
    if (!linked.ok()) {
      // The caller rolls back what was inserted; the rest never attached.
      for (size_t j = i; j < nodes.size(); ++j) {
        AXMLX_RETURN_IF_ERROR(doc_->RemoveSubtree(nodes[j]).status());
      }
      return linked;
    }
    xml::Edit edit;
    edit.kind = xml::Edit::Kind::kInsertSubtree;
    edit.node = node;
    edit.parent = parent;
    edit.index = has_index ? doc_->IndexInParent(node)
                           : doc_->Find(parent)->children.size() - 1;
    edit.nodes_affected = doc_->SubtreeSize(node);
    effect->edits.Append(std::move(edit));
    effect->inserted.push_back(node);
  }
  return Status::Ok();
}

Status Executor::ApplyResultsRecord(const Operation& op, xml::NodeId sc,
                                    OpEffect* effect) {
  AXMLX_RETURN_IF_ERROR(axml::ValidateServiceCall(*doc_, sc));
  AXMLX_RETURN_IF_ERROR(Capture(ActionType::kQuery, sc, op));
  AXMLX_ASSIGN_OR_RETURN(std::vector<xml::NodeId> results,
                         xml::ParseInto(doc_, WrapPayload(op)));
  return axml::ApplyCallResults(doc_, sc, axml::ModeOf(*doc_->Find(sc)),
                                results, &effect->edits,
                                &effect->materialize_stats);
}

Status Executor::Capture(ActionType type, xml::NodeId target,
                         const Operation& op) const {
  if (records_ == nullptr) return Status::Ok();
  Operation& record = records_->emplace_back();
  record.type = type;
  AXMLX_RETURN_IF_ERROR(xml::AppendElementPath(*doc_, target, &record.path));
  if (type != ActionType::kDelete) record.data_xml = op.data_xml;
  if (type == ActionType::kInsert) {
    record.anchor = op.anchor;
    record.has_position = op.has_position;
    record.position = op.position;
  }
  return Status::Ok();
}

Result<OpEffect> Executor::Execute(const Operation& op) {
  Result<OpEffect> result = ExecuteInternal(op);
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

Result<OpEffect> Executor::ExecuteInternal(const Operation& op) {
  OpEffect effect;
  effect.op = op;
  const size_t records_at = records_ != nullptr ? records_->size() : 0;
  auto fail = [this, &effect, records_at](Status status) -> Status {
    // Leave the document untouched on error, and no record of it.
    if (records_ != nullptr) {
      records_->erase(records_->begin() + static_cast<ptrdiff_t>(records_at),
                      records_->end());
    }
    Status rollback = xml::RollbackAll(doc_, effect.edits);
    if (!rollback.ok()) {
      return Internal("rollback after failed operation also failed: " +
                      rollback.message() + " (original: " + status.message() +
                      ")");
    }
    return status;
  };

  auto targets_or = ResolveLocation(op, &effect);
  if (!targets_or.ok()) return fail(targets_or.status());
  effect.targets = std::move(targets_or).value();

  switch (op.type) {
    case ActionType::kQuery:
      if (!op.path.empty()) {
        Status s = ApplyResultsRecord(op, effect.targets.front(), &effect);
        if (!s.ok()) return fail(s);
      }
      return effect;

    case ActionType::kDelete: {
      for (xml::NodeId target : effect.targets) {
        // A previous deletion may have removed this target already (nested
        // targets); skip silently, matching set-oriented delete semantics.
        if (!doc_->Contains(target)) continue;
        Status captured = Capture(ActionType::kDelete, target, op);
        if (!captured.ok()) return fail(captured);
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
        Status captured = Capture(ActionType::kInsert, parent, op);
        if (!captured.ok()) return fail(captured);
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
        // fresh-id insertion of the serialized payload below, which
        // captures its own record.
        if (records_ != nullptr) records_->pop_back();
      }
      const std::string payload = WrapPayload(op);
      Status checked = xml::ParseInto(nullptr, payload).status();
      if (!checked.ok()) return fail(checked);
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
          Status captured = Capture(ActionType::kInsert, sibling, op);
          if (!captured.ok()) return fail(captured);
          Status s = InsertData(payload, anchor_node->parent,
                                /*has_index=*/true, index, &effect);
          if (!s.ok()) return fail(s);
        }
        return effect;
      }
      for (xml::NodeId parent : effect.targets) {
        if (!doc_->Contains(parent)) continue;
        Status captured = Capture(ActionType::kInsert, parent, op);
        if (!captured.ok()) return fail(captured);
        Status s = InsertData(payload, parent, op.has_position, op.position,
                              &effect);
        if (!s.ok()) return fail(s);
      }
      return effect;
    }

    case ActionType::kReplace: {
      // "An AXML replace operation is usually implemented as a combination
      // of a delete and update operation, i.e., delete the node to be
      // replaced followed by insertion of a node (having the updated value)
      // at the same position." (§3.1)
      const std::string payload = WrapPayload(op);
      Status checked = xml::ParseInto(nullptr, payload).status();
      if (!checked.ok()) return fail(checked);
      for (xml::NodeId target : effect.targets) {
        if (!doc_->Contains(target)) continue;
        Status captured = Capture(ActionType::kReplace, target, op);
        if (!captured.ok()) return fail(captured);
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
        Status s = InsertData(payload, parent, /*has_index=*/true, index,
                              &effect);
        if (!s.ok()) return fail(s);
      }
      return effect;
    }
  }
  return Internal("unknown action type");
}

}  // namespace axmlx::ops
