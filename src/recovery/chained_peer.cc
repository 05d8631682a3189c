#include "recovery/chained_peer.h"

namespace axmlx::recovery {

void ChainedPeer::OnParentUnreachable(Ctx* ctx, overlay::Network* net) {
  // Case (b): walk the chain past the dead parent — "AP6 can try the next
  // closest peer (AP1) or the closest super peer in the list".
  ctx->parent_dead = true;  // a later NOTIFY about it needs no second reroute
  const overlay::PeerId dead_parent = ctx->parent;
  overlay::PeerId target;
  for (const overlay::PeerId& ancestor : ctx->chain.AncestorsOf(id())) {
    if (ancestor == dead_parent) continue;
    if (net->CanReach(id(), ancestor)) {
      target = ancestor;
      break;
    }
  }
  if (target.empty()) {
    // The whole ancestor line — including the origin — is unreachable: the
    // transaction can never commit. Presume abort; with the extended
    // chaining of §4 (uncles, cousins, ...), first spread the death notice
    // so collateral relatives holding finished work compensate too instead
    // of waiting for a decision that cannot come.
    if (options().extended_chaining) {
      const std::string txn = ctx->txn;
      for (const overlay::PeerId& relative :
           ctx->chain.RelativesByDistance(id())) {
        if (!net->CanReach(id(), relative)) continue;
        overlay::Message m;
        m.from = id();
        m.to = relative;
        m.type = txn::kMsgAbort;
        m.headers[txn::kHdrTxn] = txn;
        m.headers[txn::kHdrFault] = "OriginUnreachable";
        ++counters()->aborts_sent;
        BestEffortSend(std::move(m), net);
      }
    }
    RecoveringPeer::OnParentUnreachable(ctx, net);  // presumed abort
    return;
  }
  auto payload = std::make_shared<txn::ResultPayload>();
  payload->service = ctx->service;
  payload->executed_by = id();
  payload->fragment_xml = ctx->local.result_xml;
  payload->participants = ctx->participants;
  payload->plans = ctx->plans;
  payload->subtree_nodes_affected = ctx->subtree_nodes_affected;
  overlay::Message m;
  m.from = id();
  m.to = target;
  m.type = txn::kMsgResult;
  m.headers[txn::kHdrTxn] = ctx->txn;
  m.headers[txn::kHdrService] = ctx->service;
  m.headers[txn::kHdrRedirectFor] = dead_parent;
  m.headers[txn::kHdrDisconnected] = dead_parent;
  m.attachment = payload;
  if (net->Send(std::move(m)).ok()) {
    ++counters()->results_rerouted;
    ctx->state = Ctx::State::kDone;  // await COMMIT/ABORT as usual
  } else {
    RecoveringPeer::OnParentUnreachable(ctx, net);
  }
}

void ChainedPeer::OnRedirectedResult(const overlay::Message& message,
                                     overlay::Network* net) {
  auto payload =
      std::static_pointer_cast<const txn::ResultPayload>(message.attachment);
  if (payload == nullptr) return;
  const std::string& txn = message.headers.at(txn::kHdrTxn);
  if (FindContext(txn) == nullptr) {
    // A late duplicate of a reroute for a transaction that committed here
    // must not trigger a rollback of committed work.
    auto resolved = ResolvedOutcome(txn);
    if (resolved.has_value() && *resolved) return;
    // Presumed abort: the transaction is already dead here — the rerouted
    // work is stale and its producer must roll back.
    overlay::Message reply;
    reply.from = id();
    reply.to = message.from;
    reply.type = txn::kMsgAbort;
    reply.headers[txn::kHdrTxn] = txn;
    reply.headers[txn::kHdrFault] = "TxnUnknown";
    ++counters()->aborts_sent;
    BestEffortSend(std::move(reply), net);
    return;
  }
  const overlay::PeerId& dead = message.headers.at(txn::kHdrDisconnected);
  auto& bundle = orphan_results_[txn];
  if (bundle == nullptr) bundle = std::make_shared<txn::ReusedResults>();
  bundle->by_service[payload->service] = payload;
  // The redirected result doubles as a disconnection report: if we hold the
  // edge that invoked the dead peer, start recovery for it now.
  Ctx* ctx = FindContext(txn);
  if (ctx == nullptr || ctx->state != Ctx::State::kRunning) return;
  for (ChildEdge& edge : ctx->children) {
    if (edge.invoked_peer == dead &&
        edge.state == ChildEdge::State::kInvoked) {
      OnChildFailure(ctx, &edge, "PeerDisconnected", net);
      return;
    }
  }
}

void ChainedPeer::OnNotifyDisconnect(const overlay::Message& message,
                                     overlay::Network* net) {
  const std::string& txn = message.headers.at(txn::kHdrTxn);
  const overlay::PeerId& dead = message.headers.at(txn::kHdrDisconnected);
  Ctx* ctx = FindContext(txn);
  if (ctx == nullptr) return;
  if (dead == ctx->parent) {
    if (ctx->parent_dead) return;  // already rerouted / already known
    ctx->parent_dead = true;
    if (!options().reuse_work && ctx->state == Ctx::State::kRunning) {
      // No reuse planned for our branch: stop now rather than finish work
      // that is "ultimately going to be discarded" (§3.3(c)).
      ++counters()->early_aborts;
      AbortContext(ctx, "ParentDisconnected", /*notify_parent=*/false, net);
      return;
    }
    if (ctx->state == Ctx::State::kDone) {
      // Our results went to the dead parent and died with it. Re-route them
      // to a live ancestor: it will reuse them if it is still recovering the
      // transaction, or answer with a presumed-abort so we roll back.
      ctx->state = Ctx::State::kRunning;
      OnParentUnreachable(ctx, net);
    }
    // Running contexts keep going; completion will reroute via the chain
    // and the work stays usable.
    return;
  }
  if (ctx->state != Ctx::State::kRunning) return;
  for (ChildEdge& edge : ctx->children) {
    if (edge.invoked_peer == dead &&
        edge.state == ChildEdge::State::kInvoked) {
      // Case (d) notification to the dead peer's parent: same handling as a
      // keep-alive detection (case (c)).
      OnChildFailure(ctx, &edge, "PeerDisconnected", net);
      return;
    }
  }
}

void ChainedPeer::NotifySubtree(const Ctx& ctx, const overlay::PeerId& dead,
                                overlay::Network* net) {
  for (const overlay::PeerId& peer : ctx.chain.SubtreeOf(dead)) {
    if (peer == dead || peer == id() || !net->CanReach(id(), peer)) continue;
    overlay::Message m;
    m.from = id();
    m.to = peer;
    m.type = txn::kMsgNotifyDisconnect;
    m.headers[txn::kHdrTxn] = ctx.txn;
    m.headers[txn::kHdrDisconnected] = dead;
    if (net->Send(std::move(m)).ok()) ++counters()->notifications_sent;
  }
}

std::shared_ptr<const txn::ReusedResults> ChainedPeer::ReuseFor(
    const Ctx& ctx) {
  if (!options().reuse_work) return nullptr;
  auto it = orphan_results_.find(ctx.txn);
  return it == orphan_results_.end() ? nullptr : it->second;
}

void ChainedPeer::OnTxnResolved(const std::string& txn, bool committed,
                                overlay::Network* net) {
  auto it = orphan_results_.find(txn);
  if (it == orphan_results_.end()) return;
  if (!committed && net != nullptr) {
    // Orphaned rerouted results we could not reuse belong to subtrees that
    // are still live; their producers must learn about the abort directly
    // (their own parent is the disconnected peer).
    for (const auto& [service, payload] : it->second->by_service) {
      if (!net->CanReach(id(), payload->executed_by)) continue;
      overlay::Message m;
      m.from = id();
      m.to = payload->executed_by;
      m.type = txn::kMsgAbort;
      m.headers[txn::kHdrTxn] = txn;
      m.headers[txn::kHdrFault] = "TxnAborted";
      ++counters()->aborts_sent;
      BestEffortSend(std::move(m), net);
    }
  }
  orphan_results_.erase(it);
}

void ChainedPeer::OnChildFailure(Ctx* ctx, ChildEdge* edge,
                                 const std::string& fault,
                                 overlay::Network* net) {
  if (fault == "PeerDisconnected") {
    overlay::PeerId dead =
        edge->invoked_peer.empty() ? edge->def.peer : edge->invoked_peer;
    // Case (c): tell the dead peer's descendants before recovering, so they
    // either stop early or reroute their finished work to us.
    NotifySubtree(*ctx, dead, net);
  }
  RecoveringPeer::OnChildFailure(ctx, edge, fault, net);
}

void ChainedPeer::NotifyRelativesOfDeath(const std::string& txn,
                                         const overlay::PeerId& dead,
                                         overlay::Network* net) {
  Ctx* ctx = FindContext(txn);
  if (ctx == nullptr || net == nullptr) return;
  // Notify the dead peer's parent and children from the chain; they then
  // follow cases (c) and (b) respectively (§3.3(d)).
  std::vector<overlay::PeerId> targets;
  overlay::PeerId parent = ctx->chain.ParentOf(dead);
  if (!parent.empty()) targets.push_back(parent);
  for (const overlay::PeerId& child : ctx->chain.ChildrenOf(dead)) {
    targets.push_back(child);
  }
  for (const overlay::PeerId& t : targets) {
    if (!net->CanReach(id(), t)) continue;
    overlay::Message m;
    m.from = id();
    m.to = t;
    m.type = txn::kMsgNotifyDisconnect;
    m.headers[txn::kHdrTxn] = txn;
    m.headers[txn::kHdrDisconnected] = dead;
    if (net->Send(std::move(m)).ok()) ++counters()->notifications_sent;
  }
}

void ChainedPeer::WatchSibling(overlay::Network* net, const std::string& txn,
                               const overlay::PeerId& sibling,
                               overlay::Tick interval) {
  // Case (d): "a sibling would be aware of another sibling's disconnection
  // if it doesn't receive data at the specified interval" — modelled as a
  // keep-alive on the data stream. See WatchSiblingStream for the
  // message-driven variant with real STREAM data.
  if (sibling_monitor_ == nullptr) {
    sibling_monitor_ = std::make_unique<overlay::KeepAliveMonitor>(
        net, id(), interval);
  }
  sibling_monitor_->Watch(
      sibling, [this, txn](const overlay::PeerId& dead, overlay::Tick) {
        NotifyRelativesOfDeath(txn, dead, watch_net_);
      });
  sibling_monitor_->Start();
  watch_net_ = net;
}

size_t ChainedPeer::PublishStream(overlay::Network* net,
                                  const overlay::PeerId& to,
                                  overlay::Tick interval,
                                  const std::string& stream_id) {
  publishers_.push_back(std::make_unique<overlay::StreamPublisher>(
      net, id(), to, interval, stream_id));
  publishers_.back()->Start();
  return publishers_.size() - 1;
}

int64_t ChainedPeer::StreamMessagesSent(size_t publisher_index) const {
  if (publisher_index >= publishers_.size()) return 0;
  return publishers_[publisher_index]->messages_sent();
}

void ChainedPeer::WatchSiblingStream(overlay::Network* net,
                                     const std::string& txn,
                                     const overlay::PeerId& sibling,
                                     overlay::Tick interval, int grace) {
  if (stream_watcher_ == nullptr) {
    stream_watcher_ = std::make_unique<overlay::StreamWatcher>(
        net, id(), interval, grace);
  }
  watch_net_ = net;
  stream_watcher_->Expect(
      sibling, [this, txn](const overlay::PeerId& dead, overlay::Tick) {
        NotifyRelativesOfDeath(txn, dead, watch_net_);
      });
}

void ChainedPeer::OnStream(const overlay::Message& message,
                           overlay::Network* /*net*/) {
  if (stream_watcher_ != nullptr) stream_watcher_->OnStreamMessage(message);
}

}  // namespace axmlx::recovery
