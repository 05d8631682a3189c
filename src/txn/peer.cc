#include "txn/peer.h"

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <utility>

#include "axml/materializer.h"
#include "obs/metric_names.h"
#include "ops/executor.h"

namespace axmlx::txn {

PeerCounters::PeerCounters(obs::MetricsRegistry* metrics)
    : txns_committed(*metrics->GetCounter(obs::kMetricTxnTxnsCommitted)),
      txns_aborted(*metrics->GetCounter(obs::kMetricTxnTxnsAborted)),
      contexts_aborted(*metrics->GetCounter(obs::kMetricTxnContextsAborted)),
      aborts_sent(*metrics->GetCounter(obs::kMetricTxnAbortsSent)),
      forward_recoveries(
          *metrics->GetCounter(obs::kMetricTxnForwardRecoveries)),
      retries(*metrics->GetCounter(obs::kMetricTxnRetries)),
      compensations_executed(
          *metrics->GetCounter(obs::kMetricTxnCompensationsExecuted)),
      compensation_failures(
          *metrics->GetCounter(obs::kMetricTxnCompensationFailures)),
      nodes_compensated(*metrics->GetCounter(obs::kMetricTxnNodesCompensated)),
      wasted_nodes(*metrics->GetCounter(obs::kMetricTxnWastedNodes)),
      results_rerouted(*metrics->GetCounter(obs::kMetricTxnResultsRerouted)),
      subcalls_reused(*metrics->GetCounter(obs::kMetricTxnSubcallsReused)),
      adoptions(*metrics->GetCounter(obs::kMetricTxnAdoptions)),
      notifications_sent(
          *metrics->GetCounter(obs::kMetricTxnNotificationsSent)),
      early_aborts(*metrics->GetCounter(obs::kMetricTxnEarlyAborts)),
      comp_acks_ok(*metrics->GetCounter(obs::kMetricTxnCompAcksOk)),
      comp_acks_failed(*metrics->GetCounter(obs::kMetricTxnCompAcksFailed)),
      sends_best_effort_failed(
          *metrics->GetCounter(obs::kMetricTxnSendsBestEffortFailed)),
      replica_pushes_delta(
          *metrics->GetCounter(obs::kMetricTxnReplicaPushesDelta)),
      replica_pushes_full(
          *metrics->GetCounter(obs::kMetricTxnReplicaPushesFull)) {}

PeerStats AxmlPeer::stats() const {
  PeerStats s;
  s.txns_committed = static_cast<int>(counters_.txns_committed.value());
  s.txns_aborted = static_cast<int>(counters_.txns_aborted.value());
  s.contexts_aborted = static_cast<int>(counters_.contexts_aborted.value());
  s.aborts_sent = static_cast<int>(counters_.aborts_sent.value());
  s.forward_recoveries =
      static_cast<int>(counters_.forward_recoveries.value());
  s.retries = static_cast<int>(counters_.retries.value());
  s.compensations_executed =
      static_cast<int>(counters_.compensations_executed.value());
  s.compensation_failures =
      static_cast<int>(counters_.compensation_failures.value());
  s.nodes_compensated =
      static_cast<size_t>(counters_.nodes_compensated.value());
  s.wasted_nodes = static_cast<size_t>(counters_.wasted_nodes.value());
  s.results_rerouted = static_cast<int>(counters_.results_rerouted.value());
  s.subcalls_reused = static_cast<int>(counters_.subcalls_reused.value());
  s.adoptions = static_cast<int>(counters_.adoptions.value());
  s.notifications_sent =
      static_cast<int>(counters_.notifications_sent.value());
  s.early_aborts = static_cast<int>(counters_.early_aborts.value());
  s.comp_acks_ok = static_cast<int>(counters_.comp_acks_ok.value());
  s.comp_acks_failed = static_cast<int>(counters_.comp_acks_failed.value());
  s.sends_best_effort_failed =
      static_cast<int>(counters_.sends_best_effort_failed.value());
  return s;
}

void AxmlPeer::CloseCtxSpan(Ctx* ctx, overlay::Network* net,
                            const std::string& outcome,
                            const std::string& fault) {
  if (spans_ == nullptr || ctx->span_id == 0) return;
  int64_t end = 0;
  if (net != nullptr) {
    end = net->now();
  } else if (std::optional<obs::SpanRecord> rec = spans_->Find(ctx->span_id)) {
    end = rec->start;
  }
  spans_->CloseSpan(ctx->span_id, end, outcome, fault);
  ctx->span_id = 0;
}

void AxmlPeer::RecordFr(const Ctx* ctx, const char* kind, std::string_view what,
                        int64_t arg) {
  if (recorder_ == nullptr) return;
  recorder_->Record(kind, what, ctx != nullptr ? ctx->span_id : 0, arg);
}

AxmlPeer::AxmlPeer(overlay::PeerId id, bool super_peer, uint64_t seed,
                   Options options, ServiceDirectory* directory)
    : overlay::PeerNode(std::move(id), super_peer),
      directory_(directory),
      options_(options),
      rng_(seed) {
  host_ = std::make_unique<service::ServiceHost>(&repo_, MakeLocalInvoker(),
                                                 &rng_);
  if (options_.use_locking) host_->EnableLocking(&locks_);
}

int64_t AxmlPeer::LockIdFor(const std::string& txn) {
  int64_t id = static_cast<int64_t>(std::hash<std::string>{}(txn));
  return id == 0 ? 1 : id;
}

AxmlPeer::~AxmlPeer() = default;

axml::ServiceInvoker AxmlPeer::MakeLocalInvoker() {
  // Resolves embedded service-call materializations against the local
  // repository. Cross-peer data-plane calls (serviceURL naming another
  // peer) are resolved through the directory as a synchronous RPC — a
  // simulator shortcut appropriate for read-mostly data services; the
  // transactional control plane always goes through INVOKE messages.
  return [this](const axml::ServiceRequest& request)
             -> Result<axml::ServiceResponse> {
    service::Repository* target_repo = &repo_;
    if (!request.service_url.empty() && request.service_url != id()) {
      target_repo = directory_->MutableRepo(request.service_url);
      if (target_repo == nullptr) {
        return ServiceFault("UnknownPeer: " + request.service_url);
      }
    }
    if (target_repo->FindService(request.method_name) == nullptr) {
      return ServiceFault("UnknownService: " + request.method_name);
    }
    service::ServiceHost host(target_repo, nullptr, &rng_);
    return host.InvokeLocal(request.method_name, request.params);
  };
}

Status AxmlPeer::Submit(overlay::Network* net, const std::string& txn,
                        const std::string& service, const Params& params,
                        DoneCallback on_done) {
  AXMLX_ASSIGN_OR_RETURN(chain::ActivePeerChain chain_info,
                         directory_->BuildChain(id(), service));
  if (HasContext(txn)) {
    return AlreadyExists("transaction " + txn + " already has a context at " +
                         id());
  }
  uint64_t txn_span = 0;
  if (spans_ != nullptr) {
    txn_span = spans_->OpenSpan(txn, id(), obs::kSpanTxn, /*parent_span_id=*/0,
                                net->now(), service);
    // Close the TXN span with the transaction's final outcome by wrapping
    // the origin callback. The network outlives every peer, so capturing it
    // here is safe.
    obs::SpanTracker* spans = spans_;
    DoneCallback inner = std::move(on_done);
    on_done = [spans, txn_span, net, inner = std::move(inner)](
                  const std::string& done_txn, Status status) {
      spans->CloseSpan(txn_span, net->now(),
                       status.ok() ? obs::kOutcomeCommitted
                                   : obs::kOutcomeAborted,
                       status.ok() ? std::string()
                                   : axml::FaultNameOf(status));
      if (inner) inner(done_txn, std::move(status));
    };
  }
  if (timeline_ != nullptr) {
    // Open the phase-accounting window. It closes when the origin callback
    // fires — the transaction's decision point; claims placed by messages
    // still draining afterwards (commit releases, compensation acks) land
    // on a closed window and are ignored by design.
    timeline_->BeginTxn(txn, net->now());
    obs::Timeline* timeline = timeline_;
    DoneCallback inner = std::move(on_done);
    on_done = [timeline, net, inner = std::move(inner)](
                  const std::string& done_txn, Status status) {
      timeline->EndTxn(done_txn, net->now());
      if (inner) inner(done_txn, std::move(status));
    };
  }
  // The context may decide synchronously (e.g. an immediate local fault);
  // StartContext returning null then just means the callback already fired.
  Ctx* created =
      StartContext(txn, /*parent=*/"", service, params, std::move(chain_info),
                   std::move(on_done), net, /*reused=*/nullptr,
                   /*parent_span=*/txn_span);
  if (created != nullptr) created->txn_span_id = txn_span;
  if (options_.txn_timeout > 0) {
    std::weak_ptr<void> alive = AliveToken();
    net->ScheduleAfter(
        options_.txn_timeout, [this, txn, alive](overlay::Network* n) {
          if (alive.expired() || !n->IsConnected(id())) return;
          Ctx* live = FindContext(txn);
          if (live == nullptr || live->state != Ctx::State::kRunning) return;
          AbortContext(live, "TxnTimeout", /*notify_parent=*/false, n);
        });
  }
  return Status::Ok();
}

AxmlPeer::Ctx* AxmlPeer::StartContext(
    const std::string& txn, const overlay::PeerId& parent,
    const std::string& service, Params params,
    chain::ActivePeerChain chain_info, DoneCallback on_done,
    overlay::Network* net, std::shared_ptr<const ReusedResults> reused,
    uint64_t parent_span) {
  if (contexts_.count(txn) > 0) return nullptr;
  Ctx& ctx = contexts_[txn];
  ctx.txn = txn;
  ctx.parent = parent;
  ctx.service = service;
  ctx.params = std::move(params);
  ctx.chain = std::move(chain_info);
  ctx.on_done = std::move(on_done);
  ctx.reused = std::move(reused);
  if (spans_ != nullptr) {
    ctx.span_id = spans_->OpenSpan(txn, id(), obs::kSpanService, parent_span,
                                   net->now(), service);
  }
  Begin(&ctx, net);
  return FindContext(txn);
}

void AxmlPeer::Begin(Ctx* ctx, overlay::Network* net) {
  const std::string txn = ctx->txn;
  RecordFr(ctx, obs::kEvFrTxnState, "begin");
  const service::ServiceDefinition* def = repo_.FindService(ctx->service);
  if (def == nullptr) {
    AbortContext(ctx, "UnknownService", /*notify_parent=*/true, net);
    return;
  }
  Result<service::InvocationOutcome> outcome_or = host_->Invoke(
      ctx->service, ctx->params,
      options_.use_locking ? LockIdFor(ctx->txn) : 0);
  if (!outcome_or.ok()) {
    // This peer failed while processing its service — the paper's AP5
    // failing in S5 (§3.2 step 1): abort the local context and send
    // "Abort TA" to invoked peers (none yet) and the invoking peer.
    AbortContext(ctx, axml::FaultNameOf(outcome_or.status()),
                 /*notify_parent=*/true, net);
    return;
  }
  ctx->local = std::move(outcome_or).value();
  ctx->local_done = true;
  if (journal_ != nullptr && !def->document.empty() &&
      !ctx->local.effects.empty()) {
    std::vector<ops::Operation> applied;
    applied.reserve(ctx->local.effects.size());
    for (const ops::OpEffect& effect : ctx->local.effects.effects()) {
      applied.push_back(effect.op);
    }
    journal_->OnApply(ctx->txn, def->document, applied);
  }
  // Injected failure (experiments): either fail now — partial local work
  // already done and compensated — or arm a fault that strikes after the
  // subcalls complete (the paper's Figure 1 timing).
  if (def->fault_probability > 0 &&
      rng_.Bernoulli(def->fault_probability)) {
    if (def->fault_after_subcalls) {
      ctx->pending_fault = def->fault_name;
      RecordFr(ctx, obs::kEvFrFault, "armed after subcalls");
    } else {
      RecordFr(ctx, obs::kEvFrFault, def->fault_name);
      AbortContext(ctx, def->fault_name, /*notify_parent=*/true, net);
      return;
    }
  }
  ctx->ready_time = net->now() + def->duration;
  if (timeline_ != nullptr) {
    // The local execution now waits out its simulated duration; the claim
    // covers exactly [now, ready_time] so transport ticks spent waiting on
    // subcalls still attribute to NET_INFLIGHT rather than being shadowed
    // by EVAL. Complete/AbortContext keep a guarded release as a backstop
    // for windows cut short.
    ctx->in_eval = true;
    timeline_->Enter(ctx->txn, obs::kPhaseEval, net->now());
    const std::string txn = ctx->txn;
    std::weak_ptr<void> alive = AliveToken();
    net->ScheduleAt(ctx->ready_time, [this, txn, alive](overlay::Network* n) {
      if (alive.expired()) return;
      Ctx* live = FindContext(txn);
      if (live != nullptr) ExitEval(live, n);
    });
  }
  ctx->participants.push_back(id());
  ctx->subtree_nodes_affected = ctx->local.nodes_affected;
  if (options_.peer_independent && !ctx->local.compensation.empty()) {
    ParticipantPlan plan;
    plan.peer = id();
    plan.document = def->document;
    plan.plan = ctx->local.compensation;
    plan.nodes = ctx->local.nodes_affected;
    ctx->plans.push_back(std::move(plan));
  }
  for (const service::ServiceDefinition::SubCall& sub : def->subcalls) {
    ChildEdge edge;
    edge.def = sub;
    // Results shipped with the INVOKE (work reuse, §3.3(b)): the subcall is
    // already satisfied and must not be re-invoked.
    if (ctx->reused != nullptr) {
      auto it = ctx->reused->by_service.find(sub.service);
      if (it != ctx->reused->by_service.end()) {
        edge.state = ChildEdge::State::kDone;
        edge.result = it->second;
        SetEdgeTarget(&edge, it->second->executed_by);
        for (const overlay::PeerId& p : it->second->participants) {
          ctx->participants.push_back(p);
        }
        for (const ParticipantPlan& plan : it->second->plans) {
          ctx->plans.push_back(plan);
        }
        ctx->subtree_nodes_affected += it->second->subtree_nodes_affected;
        ++counters_.subcalls_reused;
      }
    }
    ctx->children.push_back(std::move(edge));
  }
  for (size_t i = 0; i < ctx->children.size(); ++i) {
    Ctx* live = FindContext(txn);
    if (live == nullptr || live->state != Ctx::State::kRunning) return;
    ChildEdge* edge = &live->children[i];
    if (edge->state == ChildEdge::State::kPending) {
      InvokeChild(live, edge, edge->def.peer, net);
    }
  }
  Ctx* live = FindContext(txn);
  if (live != nullptr) TryComplete(live, net);
}

void AxmlPeer::InvokeChild(Ctx* ctx, ChildEdge* edge,
                           const overlay::PeerId& target,
                           overlay::Network* net) {
  edge->state = ChildEdge::State::kInvoked;
  SetEdgeTarget(edge, target);
  overlay::Message m;
  m.from = id();
  m.to = target;
  m.type = kMsgInvoke;
  m.headers[kHdrTxn] = ctx->txn;
  m.headers[kHdrService] = edge->def.service;
  if (ctx->span_id != 0) {
    m.headers[kHdrSpan] = std::to_string(ctx->span_id);
  }
  if (options_.use_chaining) {
    m.headers[kHdrChain] = ctx->chain.Serialize();
  }
  // Subcall params are templates over this context's params, like ops.
  Params params = edge->def.params;
  for (auto& [name, value] : params) {
    value = service::SubstituteParams(value, ctx->params);
  }
  m.body = EncodeParams(params);
  m.attachment = ReuseFor(*ctx);
  auto sent = net->Send(std::move(m));
  if (!sent.ok()) {
    OnChildFailure(ctx, edge, "PeerDisconnected", net);
    return;
  }
  if (options_.keepalive_interval > 0) WatchChild(edge, net);
}

void AxmlPeer::SetEdgeTarget(ChildEdge* edge, const overlay::PeerId& target) {
  ReleaseWatch(edge);
  edge->invoked_peer = target;
}

void AxmlPeer::WatchChild(ChildEdge* edge, overlay::Network* net) {
  if (keepalive_ == nullptr) {
    keepalive_ = std::make_unique<overlay::KeepAliveMonitor>(
        net, id(), options_.keepalive_interval);
  }
  if (!edge->watched) {
    edge->watched = true;
    if (watch_refs_[edge->invoked_peer]++ == 0) {
      keepalive_->Watch(
          edge->invoked_peer,
          [this, net](const overlay::PeerId& down, overlay::Tick) {
            // The monitor dropped its watch on `down` before calling us, so
            // every edge's reference on it is void.
            watch_refs_.erase(down);
            std::vector<std::string> txns;
            for (auto& [txn, ctx2] : contexts_) {
              txns.push_back(txn);
              for (ChildEdge& edge2 : ctx2.children) {
                if (edge2.invoked_peer == down) edge2.watched = false;
              }
            }
            // A watched child vanished: fail every running edge that targets
            // it, across all transactions (§3.3(c), detection by the parent).
            for (const std::string& txn : txns) {
              Ctx* ctx2 = FindContext(txn);
              if (ctx2 == nullptr || ctx2->state != Ctx::State::kRunning) {
                continue;
              }
              for (ChildEdge& edge2 : ctx2->children) {
                if (edge2.invoked_peer == down &&
                    edge2.state == ChildEdge::State::kInvoked) {
                  OnChildFailure(ctx2, &edge2, "PeerDisconnected", net);
                  break;
                }
              }
            }
          });
    }
  }
  keepalive_->Start();  // re-arms an idle monitor
}

void AxmlPeer::ReleaseWatch(ChildEdge* edge) {
  if (!edge->watched) return;
  edge->watched = false;
  auto it = watch_refs_.find(edge->invoked_peer);
  if (it == watch_refs_.end() || --it->second > 0) return;
  watch_refs_.erase(it);
  // A leaked watch would keep the monitor rescheduling itself forever,
  // pinning the event queue (and the simulated clock) long after the
  // transaction is resolved.
  if (keepalive_ != nullptr) keepalive_->Unwatch(edge->invoked_peer);
}

std::string AxmlPeer::DedupKeyOf(const overlay::Message& message) {
  auto it = message.headers.find(kHdrDedup);
  if (it != message.headers.end()) return it->second;
  if (message.id != 0) return "m/" + std::to_string(message.id);
  return std::string();
}

std::optional<bool> AxmlPeer::ResolvedOutcome(const std::string& txn) const {
  auto it = resolved_txns_.find(txn);
  if (it == resolved_txns_.end()) return std::nullopt;
  return it->second;
}

void AxmlPeer::RecordResolution(const std::string& txn, bool committed) {
  resolved_txns_[txn] = committed;
  if (journal_ != nullptr) journal_->OnResolved(txn, committed);
}

Status AxmlPeer::SendControl(overlay::Message m, overlay::Network* net) {
  if (options_.control_resend_interval <= 0) {
    return net->Send(std::move(m)).status();
  }
  std::string txn;
  auto txn_it = m.headers.find(kHdrTxn);
  if (txn_it != m.headers.end()) txn = txn_it->second;
  const std::string key = "c/" + id() + "/" + m.type + "/" + txn + "/" + m.to;
  m.headers[kHdrRsvp] = "1";
  m.headers[kHdrDedup] = key;
  auto [it, inserted] = pending_control_.try_emplace(key);
  if (inserted) {
    it->second.message = m;
    it->second.attempts = 1;
    ArmControlResend(key, net);
  }
  // Duplicate logical sends (e.g. an abort raced with a timeout) collapse
  // onto the already-pending entry; the retransmission loop covers them.
  return net->Send(std::move(m)).status();
}

void AxmlPeer::ArmControlResend(const std::string& key,
                                overlay::Network* net) {
  std::weak_ptr<void> alive = AliveToken();
  net->ScheduleAfter(
      options_.control_resend_interval,
      [this, key, alive](overlay::Network* n) {
        if (alive.expired()) return;
        auto it = pending_control_.find(key);
        if (it == pending_control_.end()) return;  // acknowledged
        if (it->second.attempts >= options_.control_resend_limit) {
          pending_control_.erase(it);
          return;
        }
        // A disconnected sender skips the attempt but keeps the message
        // pending — retransmission resumes once it reconnects.
        if (n->IsConnected(id())) {
          ++it->second.attempts;
          overlay::Message copy = it->second.message;
          BestEffortSend(std::move(copy), n);
        }
        ArmControlResend(key, n);
      });
}

void AxmlPeer::HandleAck(const overlay::Message& message) {
  auto it = message.headers.find(kHdrAckOf);
  if (it == message.headers.end()) return;
  auto pending = pending_control_.find(it->second);
  // Only the intended target's acknowledgement counts — a misrouted copy
  // acked by a bystander must not stop retransmission to the real target.
  if (pending != pending_control_.end() &&
      pending->second.message.to == message.from) {
    pending_control_.erase(pending);
  }
}

void AxmlPeer::OnMessage(const overlay::Message& message,
                         overlay::Network* net) {
  if (message.type == kMsgAck) {
    HandleAck(message);
    return;
  }
  // Reliable control delivery: acknowledge every copy (the sender may have
  // missed an earlier ACK), even ones suppressed as duplicates below.
  if (message.headers.count(kHdrRsvp) > 0) {
    overlay::Message ack;
    ack.from = id();
    ack.to = message.from;
    ack.type = kMsgAck;
    auto dedup_it = message.headers.find(kHdrDedup);
    if (dedup_it != message.headers.end()) {
      ack.headers[kHdrAckOf] = dedup_it->second;
    }
    auto txn_it = message.headers.find(kHdrTxn);
    if (txn_it != message.headers.end()) ack.headers[kHdrTxn] = txn_it->second;
    BestEffortSend(std::move(ack), net);
  }
  // Duplicate suppression: the overlay can deliver one logical send twice
  // (fault-injected duplicates share a message id, control retransmissions
  // share a "dedup" header). Handlers below may assume at-most-once.
  const std::string key = DedupKeyOf(message);
  if (!key.empty() && !seen_messages_.insert(key).second) return;
  // Effectful control messages get their dedup key journaled durably: a
  // retransmission that lands after a crash-restart must hit a rebuilt
  // window, or its plan/decision would be applied twice (fault_drill_test
  // CompensateRedeliveryAfterRestart).
  if (journal_ != nullptr && !key.empty() &&
      (message.type == kMsgCompensate || message.type == kMsgAbort ||
       message.type == kMsgCommit)) {
    journal_->OnDedup(key);
  }
  if (message.type == kMsgInvoke) {
    HandleInvoke(message, net);
  } else if (message.type == kMsgResult) {
    HandleResult(message, net);
  } else if (message.type == kMsgAbort) {
    HandleAbort(message, net);
  } else if (message.type == kMsgCommit) {
    HandleCommit(message, net);
  } else if (message.type == kMsgCompensate) {
    HandleCompensate(message, net);
  } else if (message.type == kMsgNotifyDisconnect) {
    OnNotifyDisconnect(message, net);
  } else if (message.type == kMsgStream) {
    OnStream(message, net);
  } else if (message.type == kMsgCompAck) {
    HandleCompAck(message);
  }
}

void AxmlPeer::HandleCompAck(const overlay::Message& message) {
  // The outcome of a shipped compensation plan. No protocol action hangs on
  // it (the decision is already final), but a rejected plan means a
  // participant could not undo its work — drills assert these counters.
  auto it = message.headers.find(kHdrOk);
  if (it != message.headers.end() && it->second == "0") {
    ++counters_.comp_acks_failed;
  } else {
    ++counters_.comp_acks_ok;
  }
}

void AxmlPeer::BestEffortSend(overlay::Message m, overlay::Network* net) {
  if (!net->Send(std::move(m)).ok()) ++counters_.sends_best_effort_failed;
}

void AxmlPeer::HandleInvoke(const overlay::Message& message,
                            overlay::Network* net) {
  const std::string& txn = message.headers.at(kHdrTxn);
  const std::string& service = message.headers.at(kHdrService);
  // Re-invocation of work we already hold (the original parent died and an
  // ancestor re-drove the call): adopt the new parent and reuse the work
  // instead of re-executing (§3.3(c), "see if any part of their work can be
  // reused").
  Ctx* existing = FindContext(txn);
  if (existing != nullptr) {
    if (existing->service != service) return;
    if (options_.reuse_work) {
      existing->parent = message.from;
      existing->parent_dead = false;
      ++counters_.adoptions;
      if (existing->state == Ctx::State::kDone) {
        SendResult(existing, net);
      }
      // kRunning contexts reply when they complete, as usual.
      return;
    }
    // Reuse disabled (ablation): discard the old execution and redo the
    // service from scratch for the new invoker.
    CompensateLocal(existing, net);
    for (ChildEdge& edge : existing->children) {
      if (edge.state == ChildEdge::State::kInvoked ||
          edge.state == ChildEdge::State::kDone) {
        overlay::Message abort;
        abort.from = id();
        abort.to = edge.invoked_peer;
        abort.type = kMsgAbort;
        abort.headers[kHdrTxn] = txn;
        abort.headers[kHdrFault] = "Superseded";
        ++counters_.aborts_sent;
        BestEffortSend(std::move(abort), net);
      }
    }
    // The discarded execution's journaled writes are stale — roll them
    // back before the fresh execution journals its own.
    CloseCtxSpan(existing, net, obs::kOutcomeAborted, "Superseded");
    RecordResolution(txn, /*committed=*/false);
    EraseContext(txn);
    // Fall through to a fresh StartContext below.
  }
  auto params_or = DecodeParams(message.body);
  if (!params_or.ok()) return;
  chain::ActivePeerChain chain_info;
  auto chain_it = message.headers.find(kHdrChain);
  if (chain_it != message.headers.end()) {
    auto parsed = chain::ActivePeerChain::Parse(chain_it->second);
    if (parsed.ok()) chain_info = std::move(parsed).value();
  }
  auto reused =
      std::static_pointer_cast<const ReusedResults>(message.attachment);
  // The caller's span id rides in the message header; it becomes the parent
  // of the SERVICE span opened here, linking the tree across peers.
  uint64_t parent_span = 0;
  auto span_it = message.headers.find(kHdrSpan);
  if (span_it != message.headers.end()) {
    parent_span = std::strtoull(span_it->second.c_str(), nullptr, 10);
  }
  StartContext(txn, message.from, service, std::move(params_or).value(),
               std::move(chain_info), nullptr, net, std::move(reused),
               parent_span);
}

void AxmlPeer::HandleResult(const overlay::Message& message,
                            overlay::Network* net) {
  if (message.headers.count(kHdrRedirectFor) > 0) {
    OnRedirectedResult(message, net);
    return;
  }
  Ctx* ctx = FindContext(message.headers.at(kHdrTxn));
  if (ctx == nullptr) {
    // A late duplicate (or misrouted copy) of a result for a transaction
    // that committed here is stale chatter, not stale work — replying with
    // a presumed abort would wrongly roll back committed effects.
    auto resolved = ResolvedOutcome(message.headers.at(kHdrTxn));
    if (resolved.has_value() && *resolved) return;
    // Presumed abort: a result for a transaction we no longer know means
    // our context aborted (commit keeps contexts until all results are in).
    // The sender's subtree is stale work — tell it to roll back.
    overlay::Message reply;
    reply.from = id();
    reply.to = message.from;
    reply.type = kMsgAbort;
    reply.headers[kHdrTxn] = message.headers.at(kHdrTxn);
    reply.headers[kHdrFault] = "TxnUnknown";
    ++counters_.aborts_sent;
    BestEffortSend(std::move(reply), net);
    return;
  }
  if (ctx->state != Ctx::State::kRunning) return;
  auto payload =
      std::static_pointer_cast<const ResultPayload>(message.attachment);
  if (payload == nullptr) return;
  for (ChildEdge& edge : ctx->children) {
    if (edge.state == ChildEdge::State::kInvoked &&
        edge.def.service == payload->service &&
        (edge.invoked_peer == message.from ||
         edge.invoked_peer == payload->executed_by)) {
      edge.state = ChildEdge::State::kDone;
      edge.result = payload;
      // The child answered; stop pinging it so the monitor can go idle
      // (disconnection after completion is handled by compensation, not
      // detection).
      ReleaseWatch(&edge);
      for (const overlay::PeerId& p : payload->participants) {
        ctx->participants.push_back(p);
      }
      for (const ParticipantPlan& plan : payload->plans) {
        ctx->plans.push_back(plan);
      }
      ctx->subtree_nodes_affected += payload->subtree_nodes_affected;
      TryComplete(ctx, net);
      return;
    }
  }
}

void AxmlPeer::HandleAbort(const overlay::Message& message,
                           overlay::Network* net) {
  Ctx* ctx = FindContext(message.headers.at(kHdrTxn));
  if (ctx == nullptr) return;
  std::string fault = "Abort";
  auto it = message.headers.find(kHdrFault);
  if (it != message.headers.end()) fault = it->second;
  if (message.from == ctx->parent) {
    // §3.2 step 2: abort received from above — roll back and cascade down.
    AbortContext(ctx, fault, /*notify_parent=*/false, net);
    return;
  }
  for (ChildEdge& edge : ctx->children) {
    if (edge.invoked_peer == message.from &&
        edge.state != ChildEdge::State::kDone) {
      OnChildFailure(ctx, &edge, fault, net);
      return;
    }
  }
  // Neither our parent nor a live child edge: an authoritative third-party
  // abort (presumed-abort reply after a reroute, or an orphan resolution
  // from an ancestor). Roll back and cascade down; the sender already
  // considers the transaction dead, so there is nobody to notify upward.
  AbortContext(ctx, fault, /*notify_parent=*/false, net);
}

void AxmlPeer::HandleCommit(const overlay::Message& message,
                            overlay::Network* net) {
  // Transaction completed: discard the context (and with it the logs).
  const std::string& txn = message.headers.at(kHdrTxn);
  Ctx* ctx = FindContext(txn);
  if (ctx != nullptr) {
    RecordFr(ctx, obs::kEvFrTxnState, "commit");
    CloseCtxSpan(ctx, net, obs::kOutcomeCommitted);
  }
  EraseContext(txn);
  if (options_.use_locking) locks_.ReleaseAll(LockIdFor(txn));
  RecordResolution(txn, /*committed=*/true);
  OnTxnResolved(txn, /*committed=*/true, net);
}

void AxmlPeer::HandleCompensate(const overlay::Message& message,
                                overlay::Network* net) {
  auto payload =
      std::static_pointer_cast<const CompensatePayload>(message.attachment);
  if (payload == nullptr) return;
  const std::string& txn = message.headers.at(kHdrTxn);
  xml::Document* doc = repo_.GetDocument(payload->document);
  if (doc == nullptr) {
    // A plan for a document we do not host: a misrouted copy (or a replica
    // mapping gone stale). It says nothing about OUR work for this
    // transaction, so leave any local context alone.
    overlay::Message nack;
    nack.from = id();
    nack.to = message.from;
    nack.type = kMsgCompAck;
    nack.headers[kHdrTxn] = txn;
    nack.headers[kHdrOk] = "0";
    BestEffortSend(std::move(nack), net);
    return;
  }
  bool ok = false;
  {
    ops::Executor executor(doc, MakeLocalInvoker());
    executor.SetEvalContext(host_->eval_context());
    executor.SetCallCatalog(repo_.Catalog(payload->document));
    size_t nodes = 0;
    Status s = comp::ApplyPlan(&executor, payload->plan, &nodes);
    ok = s.ok();
    if (ok) {
      ++counters_.compensations_executed;
      counters_.nodes_compensated += static_cast<int64_t>(nodes);
      PushToReplica(payload->document, net);
    }
    RecordFr(nullptr, obs::kEvFrCompStep, payload->document,
             ok ? static_cast<int64_t>(nodes) : int64_t{-1});
  }
  if (!ok) ++counters_.compensation_failures;
  MarkCompensation(txn, net);
  if (spans_ != nullptr) {
    // Instant span: a shipped plan executes within one delivery. Its parent
    // is the sender's context span, carried in the message header.
    uint64_t parent_span = 0;
    auto span_it = message.headers.find(kHdrSpan);
    if (span_it != message.headers.end()) {
      parent_span = std::strtoull(span_it->second.c_str(), nullptr, 10);
    }
    uint64_t comp_span =
        spans_->OpenSpan(txn, id(), obs::kSpanCompensation, parent_span,
                         net->now(), payload->document);
    spans_->CloseSpan(comp_span, net->now(),
                      ok ? obs::kOutcomeOk : obs::kOutcomeFailed);
  }
  // Our own context for this transaction (if any) is superseded by the
  // shipped plan — discard it without double-compensating.
  Ctx* ctx = FindContext(txn);
  if (ctx != nullptr) {
    ctx->local_compensated = true;
    ++counters_.contexts_aborted;
    CloseCtxSpan(ctx, net, obs::kOutcomeAborted, "Superseded");
    EraseContext(txn);
    if (options_.use_locking) locks_.ReleaseAll(LockIdFor(txn));
  }
  RecordResolution(txn, /*committed=*/false);
  overlay::Message ack;
  ack.from = id();
  ack.to = message.from;
  ack.type = kMsgCompAck;
  ack.headers[kHdrTxn] = txn;
  ack.headers[kHdrOk] = ok ? "1" : "0";
  BestEffortSend(std::move(ack), net);
}

void AxmlPeer::TryComplete(Ctx* ctx, overlay::Network* net) {
  if (ctx->state != Ctx::State::kRunning || !ctx->local_done) return;
  for (const ChildEdge& edge : ctx->children) {
    if (edge.state != ChildEdge::State::kDone &&
        edge.state != ChildEdge::State::kAbsorbed) {
      return;
    }
  }
  if (net->now() < ctx->ready_time) {
    const std::string txn = ctx->txn;
    std::weak_ptr<void> alive = AliveToken();
    net->ScheduleAt(ctx->ready_time, [this, txn, alive](overlay::Network* n) {
      // A peer that has since left the overlay (or crashed) is inert: it
      // neither completes nor touches shared state.
      if (alive.expired() || !n->IsConnected(id())) return;
      Ctx* live = FindContext(txn);
      if (live != nullptr) TryComplete(live, n);
    });
    return;
  }
  Complete(ctx, net);
}

void AxmlPeer::ExitEval(Ctx* ctx, overlay::Network* net) {
  if (timeline_ == nullptr || !ctx->in_eval) return;
  ctx->in_eval = false;
  timeline_->Exit(ctx->txn, obs::kPhaseEval,
                  net != nullptr ? net->now() : timeline_->now());
}

void AxmlPeer::MarkCompensation(const std::string& txn,
                                overlay::Network* net) {
  if (timeline_ == nullptr) return;
  const int64_t now = net != nullptr ? net->now() : timeline_->now();
  timeline_->Enter(txn, obs::kPhaseCompensation, now);
  timeline_->Exit(txn, obs::kPhaseCompensation, now);
}

void AxmlPeer::Complete(Ctx* ctx, overlay::Network* net) {
  ExitEval(ctx, net);
  if (!ctx->pending_fault.empty()) {
    // The injected fault strikes now, with all subcalls finished — the
    // whole subtree's work must be undone (§3.2 steps 1-2).
    RecordFr(ctx, obs::kEvFrFault, ctx->pending_fault);
    AbortContext(ctx, ctx->pending_fault, /*notify_parent=*/true, net);
    return;
  }
  ctx->state = Ctx::State::kDone;
  // Replicate this service's completed document state (a retry on the
  // replica must not see half-done work from an incomplete execution).
  {
    const service::ServiceDefinition* def = repo_.FindService(ctx->service);
    if (def != nullptr) PushToReplica(def->document, net);
  }
  if (ctx->parent.empty()) {
    // Origin: the whole transaction committed. Release every participant.
    std::vector<overlay::PeerId> released;
    for (const overlay::PeerId& p : ctx->participants) {
      if (p == id()) continue;
      bool seen = false;
      for (const overlay::PeerId& r : released) seen = seen || (r == p);
      if (seen) continue;
      released.push_back(p);
      overlay::Message m;
      m.from = id();
      m.to = p;
      m.type = kMsgCommit;
      m.headers[kHdrTxn] = ctx->txn;
      if (!SendControl(std::move(m), net).ok()) ++counters_.sends_best_effort_failed;
    }
    ++counters_.txns_committed;
    RecordFr(ctx, obs::kEvFrTxnState, "commit");
    CloseCtxSpan(ctx, net, obs::kOutcomeCommitted);
    if (ctx->on_done) ctx->on_done(ctx->txn, Status::Ok());
    const std::string txn = ctx->txn;
    EraseContext(txn);
    if (options_.use_locking) locks_.ReleaseAll(LockIdFor(txn));
    RecordResolution(txn, /*committed=*/true);
    OnTxnResolved(txn, /*committed=*/true, net);
    return;
  }
  SendResult(ctx, net);
}

void AxmlPeer::SendResult(Ctx* ctx, overlay::Network* net) {
  auto payload = std::make_shared<ResultPayload>();
  payload->service = ctx->service;
  payload->executed_by = id();
  payload->fragment_xml = ctx->local.result_xml;
  payload->participants = ctx->participants;
  payload->plans = ctx->plans;
  payload->subtree_nodes_affected = ctx->subtree_nodes_affected;
  overlay::Message m;
  m.from = id();
  m.to = ctx->parent;
  m.type = kMsgResult;
  m.headers[kHdrTxn] = ctx->txn;
  m.headers[kHdrService] = ctx->service;
  m.attachment = payload;
  auto sent = net->Send(std::move(m));
  if (!sent.ok()) {
    // §3.3(b): the parent disconnected while we were returning results.
    ctx->state = Ctx::State::kRunning;  // recovery hooks may re-route
    OnParentUnreachable(ctx, net);
  }
}

void AxmlPeer::PushToReplica(const std::string& document,
                             overlay::Network* net) {
  (void)net;
  if (document.empty()) return;
  overlay::PeerId replica = directory_->ReplicaOf(id());
  if (replica.empty()) return;
  service::Repository* replica_repo = directory_->MutableRepo(replica);
  xml::Document* doc = repo_.GetDocument(document);
  if (replica_repo == nullptr || doc == nullptr) return;
  // Eager replication (simulator shortcut for the replication layer of
  // [Abiteboul et al. 2003], which the paper assumes): ids are preserved so
  // compensating operations remain valid on the replica. Only the nodes
  // touched since the last push travel, unless the replica's copy cannot be
  // shown to be the one that push produced (DESIGN.md §8).
  if (doc->SyncReplica(replica_repo->GetDocument(document))) {
    ++counters_.replica_pushes_delta;
  } else {
    replica_repo->PutDocument(doc->CloneForReplica());
    ++counters_.replica_pushes_full;
  }
  directory_->NotifyReplicaPushed(id(), document);
}

void AxmlPeer::CompensateLocal(Ctx* ctx, overlay::Network* net) {
  if (!ctx->local_done || ctx->local_compensated) return;
  ctx->local_compensated = true;
  const service::ServiceDefinition* def = repo_.FindService(ctx->service);
  if (def == nullptr || def->document.empty()) return;
  xml::Document* doc = repo_.GetDocument(def->document);
  if (doc == nullptr) return;
  ops::Executor executor(doc, MakeLocalInvoker());
  executor.SetEvalContext(host_->eval_context());
  executor.SetCallCatalog(repo_.Catalog(def->document));
  size_t nodes = 0;
  Status s = comp::ApplyPlan(&executor, ctx->local.compensation, &nodes);
  if (s.ok()) {
    counters_.nodes_compensated += static_cast<int64_t>(nodes);
    counters_.wasted_nodes += static_cast<int64_t>(ctx->local.nodes_affected);
  } else {
    ++counters_.compensation_failures;
  }
  RecordFr(ctx, obs::kEvFrCompStep, ctx->service,
           s.ok() ? static_cast<int64_t>(nodes) : int64_t{-1});
  MarkCompensation(ctx->txn, net);
  if (spans_ != nullptr) {
    // Instant span parented under this context's SERVICE span: the local
    // rollback is part of the abort narrative, not a separate execution.
    const int64_t now = net != nullptr ? net->now() : 0;
    uint64_t comp_span = spans_->OpenSpan(
        ctx->txn, id(), obs::kSpanCompensation, ctx->span_id, now,
        ctx->service);
    spans_->CloseSpan(comp_span, now,
                      s.ok() ? obs::kOutcomeOk : obs::kOutcomeFailed,
                      s.ok() ? std::string() : axml::FaultNameOf(s));
  }
  PushToReplica(def->document, nullptr);
}

void AxmlPeer::CompensateParticipants(Ctx* ctx, overlay::Network* net) {
  const bool reliable = options_.control_resend_interval > 0;
  for (const ParticipantPlan& plan : ctx->plans) {
    if (plan.peer == id()) continue;  // local plan handled by CompensateLocal
    overlay::PeerId target = plan.peer;
    if (!net->CanReach(id(), target)) {
      // §3.3: peer-independent compensation lets us run the compensating
      // service on a replica of the disconnected (or crashed, or
      // partitioned-away) peer's document.
      overlay::PeerId replica = directory_->ReplicaOf(plan.peer);
      if (!replica.empty() && net->CanReach(id(), replica)) {
        target = replica;
      } else if (!reliable) {
        ++counters_.compensation_failures;
        continue;
      }
      // Reliable-control mode: keep the original target — retransmission
      // rides out crashes and partitions until the peer is back.
    }
    auto payload = std::make_shared<CompensatePayload>();
    payload->document = plan.document;
    payload->plan = plan.plan;
    overlay::Message m;
    m.from = id();
    m.to = target;
    m.type = kMsgCompensate;
    m.headers[kHdrTxn] = ctx->txn;
    if (ctx->span_id != 0) {
      m.headers[kHdrSpan] = std::to_string(ctx->span_id);
    }
    m.attachment = payload;
    if (!SendControl(std::move(m), net).ok() && !reliable) {
      ++counters_.compensation_failures;
    }
  }
}

void AxmlPeer::AbortContext(Ctx* ctx, const std::string& fault,
                            bool notify_parent, overlay::Network* net) {
  if (ctx->state == Ctx::State::kAborted) return;
  ctx->state = Ctx::State::kAborted;
  ExitEval(ctx, net);
  const std::string txn = ctx->txn;
  if (recorder_ != nullptr) {
    char what[40];
    std::snprintf(what, sizeof(what), "abort:%s", fault.c_str());
    RecordFr(ctx, obs::kEvFrTxnState, what);
  }
  CompensateLocal(ctx, net);
  if (options_.peer_independent) {
    // Undo completed subtrees by invoking their compensating services
    // directly (§3.2); abort only the still-running children.
    CompensateParticipants(ctx, net);
    for (ChildEdge& edge : ctx->children) {
      if (edge.state == ChildEdge::State::kInvoked) {
        overlay::Message m;
        m.from = id();
        m.to = edge.invoked_peer;
        m.type = kMsgAbort;
        m.headers[kHdrTxn] = txn;
        m.headers[kHdrFault] = fault;
        ++counters_.aborts_sent;
        if (!SendControl(std::move(m), net).ok()) ++counters_.sends_best_effort_failed;
      }
    }
  } else {
    // Peer-dependent: every invoked child (running or done) must roll back
    // its own subtree on receiving "Abort TA" (§3.2 steps 1-2).
    for (ChildEdge& edge : ctx->children) {
      if (edge.state != ChildEdge::State::kInvoked &&
          edge.state != ChildEdge::State::kDone) {
        continue;
      }
      overlay::Message m;
      m.from = id();
      m.to = edge.invoked_peer;
      m.type = kMsgAbort;
      m.headers[kHdrTxn] = txn;
      m.headers[kHdrFault] = fault;
      ++counters_.aborts_sent;
      if (!SendControl(std::move(m), net).ok() &&
          edge.state == ChildEdge::State::kDone &&
          options_.control_resend_interval <= 0) {
        // The child completed work and is now unreachable: its effects
        // cannot be compensated (motivates peer-independent mode, §3.2).
        // In reliable-control mode the retransmission loop keeps trying,
        // so this is not yet a failure.
        ++counters_.compensation_failures;
      }
    }
  }
  if (notify_parent && !ctx->parent.empty()) {
    overlay::Message m;
    m.from = id();
    m.to = ctx->parent;
    m.type = kMsgAbort;
    m.headers[kHdrTxn] = txn;
    m.headers[kHdrFault] = fault;
    m.headers[kHdrFailedService] = ctx->service;
    ++counters_.aborts_sent;
    if (!SendControl(std::move(m), net).ok()) ++counters_.sends_best_effort_failed;
  }
  CloseCtxSpan(ctx, net, obs::kOutcomeAborted, fault);
  if (ctx->parent.empty()) {
    ++counters_.txns_aborted;
    if (ctx->on_done) ctx->on_done(txn, Aborted(fault));
  }
  ++counters_.contexts_aborted;
  EraseContext(txn);
  if (options_.use_locking) locks_.ReleaseAll(LockIdFor(txn));
  RecordResolution(txn, /*committed=*/false);
  OnTxnResolved(txn, /*committed=*/false, net);
}

void AxmlPeer::OnChildFailure(Ctx* ctx, ChildEdge* edge,
                              const std::string& fault,
                              overlay::Network* net) {
  // Baseline behaviour: no forward recovery — propagate the abort. The
  // failed child's own subtree has already rolled itself back (or is
  // unreachable); mark the edge failed so no abort is sent to it.
  edge->state = ChildEdge::State::kPending;
  SetEdgeTarget(edge, overlay::PeerId());
  AbortContext(ctx, fault, /*notify_parent=*/true, net);
}

void AxmlPeer::OnParentUnreachable(Ctx* ctx, overlay::Network* net) {
  // Baseline (no chaining): "traditional recovery would lead to AP6
  // (aborting) discarding its work" (§3.3(b)).
  AbortContext(ctx, "ParentDisconnected", /*notify_parent=*/false, net);
}

void AxmlPeer::OnNotifyDisconnect(const overlay::Message& /*message*/,
                                  overlay::Network* /*net*/) {
  // Base peers do not participate in chain-based disconnection handling.
}

void AxmlPeer::OnRedirectedResult(const overlay::Message& /*message*/,
                                  overlay::Network* /*net*/) {
  // Without chaining, a redirected result has no taker; the work is wasted.
}

std::shared_ptr<const ReusedResults> AxmlPeer::ReuseFor(const Ctx& /*ctx*/) {
  return nullptr;
}

void AxmlPeer::OnTxnResolved(const std::string& /*txn*/, bool /*committed*/,
                             overlay::Network* /*net*/) {}

void AxmlPeer::OnStream(const overlay::Message& /*message*/,
                        overlay::Network* /*net*/) {}

AxmlPeer::Ctx* AxmlPeer::FindContext(const std::string& txn) {
  auto it = contexts_.find(txn);
  return it == contexts_.end() ? nullptr : &it->second;
}

void AxmlPeer::EraseContext(const std::string& txn) {
  auto it = contexts_.find(txn);
  if (it == contexts_.end()) return;
  for (ChildEdge& edge : it->second.children) ReleaseWatch(&edge);
  contexts_.erase(it);
}

}  // namespace axmlx::txn
