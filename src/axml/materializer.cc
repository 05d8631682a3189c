#include "axml/materializer.h"

#include <algorithm>
#include <optional>
#include <unordered_set>

#include "query/eval.h"

namespace axmlx::axml {

namespace {
constexpr int kMaxNestingDepth = 16;
}  // namespace

std::string FaultNameOf(const Status& status) {
  const std::string& m = status.message();
  size_t colon = m.find(':');
  return colon == std::string::npos ? m : m.substr(0, colon);
}

Result<ServiceRequest> Materializer::ResolveRequest(
    const ServiceCallInfo& info) {
  ServiceRequest req;
  req.service_namespace = info.service_namespace;
  req.service_url = info.service_url;
  req.method_name = info.method_name;
  for (const ScParam& p : info.params) {
    switch (p.kind) {
      case ScParam::Kind::kLiteral:
        req.params.emplace_back(p.name, p.value);
        break;
      case ScParam::Kind::kExternal: {
        auto it = externals_.find(p.value);
        if (it == externals_.end()) {
          return FailedPrecondition("external parameter '$" + p.value +
                                    "' has no supplied value");
        }
        req.params.emplace_back(p.name, it->second);
        break;
      }
      case ScParam::Kind::kNestedCall: {
        // "The service call parameters may themselves be defined as service
        // calls. As such, evaluating a service call may require evaluating
        // the parameters' service calls first." (§1, local nesting)
        AXMLX_ASSIGN_OR_RETURN(std::vector<xml::NodeId> produced,
                               MaterializeCall(p.nested_call));
        std::string value;
        for (xml::NodeId id : produced) value += doc_->TextContent(id);
        req.params.emplace_back(p.name, value);
        break;
      }
    }
  }
  return req;
}

Result<ServiceResponse> Materializer::Invoke(const ServiceRequest& request) {
  const uint64_t before = doc_->mutation_count();
  Result<ServiceResponse> response = invoker_(request);
  if (doc_->mutation_count() != before) ++foreign_changes_;
  return response;
}

Result<ServiceResponse> Materializer::InvokeWithHandlers(
    const ServiceCallInfo& info, const ServiceRequest& request,
    bool* fault_absorbed) {
  *fault_absorbed = false;
  Result<ServiceResponse> response = Invoke(request);
  ++stats_.calls_invoked;
  if (response.ok()) return response;
  if (response.status().code() != StatusCode::kServiceFault) {
    return response;  // Transport/abort errors are not application faults.
  }
  std::string fault = FaultNameOf(response.status());
  for (const FaultHandler& handler : info.handlers) {
    if (!handler.Matches(fault)) continue;
    if (!handler.has_retry) {
      // Application-specific forward recovery: the fault is handled and the
      // call simply produces no new results.
      ++stats_.faults_handled;
      *fault_absorbed = true;
      return response;
    }
    ServiceRequest retry_request = request;
    if (!handler.retry.replica_url.empty()) {
      retry_request.service_url = handler.retry.replica_url;
    }
    for (int attempt = 0; attempt < handler.retry.times; ++attempt) {
      ++stats_.retries;
      Result<ServiceResponse> retried = Invoke(retry_request);
      ++stats_.calls_invoked;
      if (retried.ok()) return retried;
      if (retried.status().code() != StatusCode::kServiceFault) return retried;
      response = std::move(retried);
    }
    // Retries exhausted; fall through to the next matching handler.
  }
  return response;
}

Status ApplyCallResults(xml::Document* doc, xml::NodeId sc, ScMode mode,
                        const std::vector<xml::NodeId>& results,
                        xml::EditLog* log, MaterializeStats* stats) {
  Status status = Status::Ok();
  if (mode == ScMode::kReplace) {
    // Remove the previous results, logging each removal so compensation can
    // reinstate the old values (§3.1, Query B example: points 890 -> 475).
    for (xml::NodeId old : ResultChildren(*doc, sc)) {
      Result<xml::DetachResult> detached_or = xml::DetachSubtree(doc, old);
      if (!detached_or.ok()) {
        status = detached_or.status();
        break;
      }
      xml::DetachResult detached = std::move(detached_or).value();
      xml::Edit edit;
      edit.kind = xml::Edit::Kind::kRemoveSubtree;
      edit.node = detached.subtree.root;
      edit.parent = detached.parent;
      edit.index = detached.index;
      edit.nodes_affected = detached.subtree.size();
      stats->nodes_removed += detached.subtree.size();
      edit.removed = std::move(detached.subtree);
      log->Append(std::move(edit));
    }
  }
  for (size_t i = 0; i < results.size(); ++i) {
    const xml::NodeId node = results[i];
    if (status.ok()) status = doc->AppendChild(sc, node);
    if (!status.ok()) {
      // Not attached: drop it, so no detached node outlives the failure.
      AXMLX_RETURN_IF_ERROR(doc->RemoveSubtree(node).status());
      continue;
    }
    xml::Edit edit;
    edit.kind = xml::Edit::Kind::kInsertSubtree;
    edit.node = node;
    edit.parent = sc;
    edit.index = doc->Find(sc)->children.size() - 1;
    edit.nodes_affected = doc->SubtreeSize(node);
    stats->nodes_inserted += edit.nodes_affected;
    log->Append(std::move(edit));
  }
  return status;
}

Result<std::vector<xml::NodeId>> Materializer::ApplyResults(
    const ServiceCallInfo& info, const xml::Document& fragment) {
  std::vector<xml::NodeId> inserted;
  const xml::Node* frag_root = fragment.Find(fragment.root());
  for (xml::NodeId child : frag_root->children) {
    Result<xml::NodeId> copy = doc_->ImportSubtree(fragment, child);
    if (!copy.ok()) {
      for (xml::NodeId node : inserted) {
        AXMLX_RETURN_IF_ERROR(doc_->RemoveSubtree(node).status());
      }
      return copy.status();
    }
    inserted.push_back(*copy);
  }
  AXMLX_RETURN_IF_ERROR(ApplyCallResults(doc_, info.element, info.mode,
                                         inserted, log_, &stats_));
  return inserted;
}

Result<std::vector<xml::NodeId>> Materializer::MaterializeCall(
    xml::NodeId sc) {
  if (depth_ >= kMaxNestingDepth) {
    return FailedPrecondition("service-call nesting exceeds the depth limit");
  }
  ++depth_;
  auto done = [this](Result<std::vector<xml::NodeId>> r) {
    --depth_;
    return r;
  };
  auto info_or = ParseServiceCall(*doc_, sc);
  if (!info_or.ok()) return done(info_or.status());
  ServiceCallInfo info = std::move(info_or).value();
  auto request_or = ResolveRequest(info);
  if (!request_or.ok()) return done(request_or.status());
  bool fault_absorbed = false;
  auto response_or = InvokeWithHandlers(info, *request_or, &fault_absorbed);
  if (!response_or.ok()) {
    if (fault_absorbed) return done(std::vector<xml::NodeId>{});
    return done(response_or.status());
  }
  if (response_or->fragment == nullptr) {
    return done(std::vector<xml::NodeId>{});
  }
  const size_t edits_before = log_->size();
  Result<std::vector<xml::NodeId>> applied =
      ApplyResults(info, *response_or->fragment);
  if (applied.ok() && observer_ && log_->size() != edits_before) {
    observer_(sc, *response_or->fragment);
  }
  return done(std::move(applied));
}

Result<std::vector<xml::NodeId>> Materializer::MaterializeForQuery(
    const query::Query& q, xml::NodeId scope) {
  // Lazy evaluation (§3.1): "only those embedded service calls are
  // materialized whose results are required for evaluating the query".
  // Two passes:
  //  1. calls whose outputs the `where` clause tests, under every candidate
  //     source node (the predicate must be evaluable);
  //  2. calls whose outputs the select paths read, under the *bindings that
  //     survived the predicate* only.
  // A document with no `axml:sc` element has nothing to materialize: it
  // needs no name sets, no sources and no catalog.
  if (!doc_->HasIndexEntries(xml::kNameAxmlSc)) {
    if (ctx_ != nullptr) ctx_->InvalidateCaches();
    return std::vector<xml::NodeId>{};
  }
  std::vector<std::string> where_names;
  if (q.where != nullptr) {
    // MentionedNames covers selects + where; recompute just the where part
    // by parsing the predicate tree.
    std::vector<const query::Predicate*> stack = {q.where.get()};
    while (!stack.empty()) {
      const query::Predicate* p = stack.back();
      stack.pop_back();
      if (p == nullptr) continue;
      if (p->kind == query::Predicate::Kind::kCompare) {
        for (const query::Step& s : p->path.steps) {
          if (s.axis != query::Step::Axis::kParent &&
              s.axis != query::Step::Axis::kAttribute && s.name != "*") {
            where_names.push_back(s.name);
          }
        }
      } else {
        stack.push_back(p->left.get());
        stack.push_back(p->right.get());
      }
    }
  }
  std::unordered_set<std::string> where_set(where_names.begin(),
                                            where_names.end());
  std::vector<std::string> select_names;
  for (const query::PathExpr& sel : q.selects) {
    for (const query::Step& s : sel.steps) {
      if (s.axis != query::Step::Axis::kParent &&
              s.axis != query::Step::Axis::kAttribute && s.name != "*") {
        select_names.push_back(s.name);
      }
    }
  }
  std::unordered_set<std::string> select_set(select_names.begin(),
                                             select_names.end());

  std::optional<query::EvalContext> own_ctx;
  query::EvalContext* ctx = ctx_ != nullptr ? ctx_ : &own_ctx.emplace();
  // The context's memos describe the document as of the last invalidation;
  // materializations below move it on, so every evaluation after one starts
  // from fresh memos.
  uint64_t memo_at = doc_->mutation_count();
  ctx->InvalidateCaches();
  std::vector<xml::NodeId> materialized;
  std::unordered_set<xml::NodeId> done;
  // Pass 1: predicate inputs under all candidate source nodes.
  std::vector<xml::NodeId> sources;
  query::EvaluatePathFrom(*doc_, scope, q.source, ctx, &sources);
  if (!where_set.empty()) {
    for (xml::NodeId src : sources) {
      AXMLX_RETURN_IF_ERROR(MaterializeNeeded(
          src, where_set, /*count_skipped=*/false, &done, &materialized));
    }
  }
  // Pass 2: select inputs under surviving bindings only.
  for (xml::NodeId src : sources) {
    if (q.where != nullptr) {
      if (doc_->mutation_count() != memo_at) {
        memo_at = doc_->mutation_count();
        ctx->InvalidateCaches();
      }
      if (!query::EvaluatePredicate(*doc_, src, *q.where, ctx)) continue;
    }
    AXMLX_RETURN_IF_ERROR(MaterializeNeeded(
        src, select_set, /*count_skipped=*/true, &done, &materialized));
  }
  return materialized;
}

Status Materializer::MaterializeNeeded(
    xml::NodeId src, const std::unordered_set<std::string>& wanted,
    bool count_skipped, std::unordered_set<xml::NodeId>* done,
    std::vector<xml::NodeId>* materialized) {
  // The calls visible from `src` now, as FindServiceCalls(src) lists them.
  // Later materializations do not add to this list (a call that arrives in
  // a result is seen by the next source), but they can change what the
  // rest of it says, so each call is judged when its turn comes.
  const CallView view = catalog_->VisibleFrom(doc_, src);
  if (view.begin == view.end) return Status::Ok();
  const CallIndex& index = *view.index;
  const std::vector<xml::NodeId>& calls = index.calls();
  // While the call-shape generation stands and no service has written to
  // the document, the index judges the calls: only the needed ones and the
  // first malformed one are visited. Once either moves, the rest are
  // judged one by one against the live document.
  const uint64_t generation = doc_->call_shape_generation();
  const int64_t foreign = foreign_changes_;
  std::vector<uint32_t> needed;
  index.AppendNeeded(*doc_, wanted, view.begin, view.end, &needed);
  std::vector<uint32_t> done_at;
  // Order-insensitive: the positions are sorted below. lint:allow(R7)
  for (xml::NodeId id : *done) {
    const uint32_t pos = index.PositionOf(id);
    if (pos >= view.begin && pos < view.end) done_at.push_back(pos);
  }
  std::sort(done_at.begin(), done_at.end());
  // A malformed call fails the query even when it is not needed (unless
  // an earlier source already materialized it).
  uint32_t bad = view.end;
  const Status* bad_status = nullptr;
  for (const auto& [at, status] : index.malformed()) {
    if (at < view.begin || done->count(calls[at]) > 0) continue;
    if (at < view.end) {
      bad = at;
      bad_status = &status;
    }
    break;
  }
  // Counts [from, to) as skipped: none needed, none malformed.
  auto skip = [&](uint32_t from, uint32_t to) {
    if (!count_skipped) return;
    const auto done_in =
        std::lower_bound(done_at.begin(), done_at.end(), to) -
        std::lower_bound(done_at.begin(), done_at.end(), from);
    stats_.calls_skipped += static_cast<int>(to - from - done_in);
  };
  auto next_needed = needed.begin();
  uint32_t pos = view.begin;
  while (pos < view.end) {
    if (doc_->call_shape_generation() == generation &&
        foreign_changes_ == foreign) {
      while (next_needed != needed.end() && *next_needed < pos) ++next_needed;
      const uint32_t next = std::min(
          bad, next_needed != needed.end() ? *next_needed : view.end);
      skip(pos, next);
      pos = next;
      if (pos == view.end) break;
      if (pos == bad) return *bad_status;
    } else {
      const xml::NodeId sc = calls[pos];
      if (done->count(sc) == 0) {
        AXMLX_RETURN_IF_ERROR(ValidateServiceCall(*doc_, sc));
        if (!ProducesAnyOf(*doc_, sc, wanted)) {
          skip(pos, pos + 1);
          ++pos;
          continue;
        }
      }
    }
    const xml::NodeId sc = calls[pos++];
    if (done->count(sc) > 0) continue;
    AXMLX_RETURN_IF_ERROR(MaterializeCall(sc).status());
    done->insert(sc);
    materialized->push_back(sc);
  }
  return Status::Ok();
}

Result<std::vector<xml::NodeId>> Materializer::MaterializeAll(
    xml::NodeId scope) {
  std::vector<xml::NodeId> materialized;
  std::unordered_set<xml::NodeId> seen;
  // Results may introduce new service calls; iterate to a fixed point with a
  // round bound to tame pathological self-reproducing services.
  for (int round = 0; round < kMaxNestingDepth; ++round) {
    bool progress = false;
    const CallView view = catalog_->VisibleFrom(doc_, scope);
    for (uint32_t pos = view.begin; pos < view.end; ++pos) {
      const xml::NodeId sc = view.index->calls()[pos];
      if (!seen.insert(sc).second) continue;
      AXMLX_RETURN_IF_ERROR(MaterializeCall(sc).status());
      materialized.push_back(sc);
      progress = true;
    }
    if (!progress) break;
  }
  return materialized;
}

}  // namespace axmlx::axml
