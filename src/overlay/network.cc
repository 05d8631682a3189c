#include "overlay/network.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "obs/metric_names.h"
#include "overlay/fault_injection.h"

namespace axmlx::overlay {

namespace {

/// Stack-buffer "TYPE->PEER" / "TYPE<-PEER" composition so flight-recorder
/// emission stays allocation-free on the message path.
struct WhatBuf {
  char buf[40];
  const char* Compose(const std::string& type, const char* arrow,
                      const std::string& peer) {
    std::snprintf(buf, sizeof(buf), "%s%s%s", type.c_str(), arrow,
                  peer.c_str());
    return buf;
  }
  const char* Prefixed(const char* prefix, const std::string& type) {
    std::snprintf(buf, sizeof(buf), "%s%s", prefix, type.c_str());
    return buf;
  }
};

}  // namespace

void PeerNode::OnTick(Tick /*now*/, Network* /*net*/) {}

Network::NetCounters::NetCounters(obs::MetricsRegistry* metrics)
    : messages_sent(*metrics->GetCounter(obs::kMetricOverlayMessagesSent)),
      messages_delivered(
          *metrics->GetCounter(obs::kMetricOverlayMessagesDelivered)),
      messages_dropped(
          *metrics->GetCounter(obs::kMetricOverlayMessagesDropped)),
      sends_failed(*metrics->GetCounter(obs::kMetricOverlaySendsFailed)),
      sends_rejected(*metrics->GetCounter(obs::kMetricOverlaySendsRejected)),
      faults_injected(*metrics->GetCounter(obs::kMetricOverlayFaultsInjected)),
      tick_calls(*metrics->GetCounter(obs::kMetricOverlayTickCalls)) {}

Network::Stats Network::stats() const {
  Stats s;
  s.messages_sent = counters_.messages_sent.value();
  s.messages_delivered = counters_.messages_delivered.value();
  s.messages_dropped = counters_.messages_dropped.value();
  s.sends_failed = counters_.sends_failed.value();
  s.sends_rejected = counters_.sends_rejected.value();
  s.faults_injected = counters_.faults_injected.value();
  s.tick_calls = counters_.tick_calls.value();
  return s;
}

Network::Network(uint64_t seed, Trace* trace) : rng_(seed), trace_(trace) {}

void Network::AddPeer(std::unique_ptr<PeerNode> peer) {
  PeerId id = peer->id();
  connected_[id] = true;
  order_.push_back(id);
  peers_[id] = std::move(peer);
}

PeerNode* Network::FindPeer(const PeerId& id) {
  auto it = peers_.find(id);
  return it == peers_.end() ? nullptr : it->second.get();
}

Status Network::Disconnect(const PeerId& id) {
  auto it = peers_.find(id);
  if (it == peers_.end()) return NotFound("Disconnect: unknown peer " + id);
  if (it->second == nullptr) {
    return FailedPrecondition("Disconnect: " + id + " is crashed");
  }
  if (it->second->super_peer()) {
    return FailedPrecondition("Disconnect: " + id +
                              " is a super peer and never disconnects");
  }
  connected_[id] = false;
  TraceEventf(id, kEvDisconnect, "peer left the overlay");
  return Status::Ok();
}

Status Network::Reconnect(const PeerId& id) {
  auto it = peers_.find(id);
  if (it == peers_.end()) return NotFound("Reconnect: unknown peer " + id);
  if (it->second == nullptr) {
    return FailedPrecondition("Reconnect: " + id +
                              " is crashed; use Restart with a rebuilt node");
  }
  connected_[id] = true;
  TraceEventf(id, kEvReconnect, "peer rejoined the overlay");
  return Status::Ok();
}

bool Network::IsConnected(const PeerId& id) const {
  auto it = connected_.find(id);
  return it != connected_.end() && it->second;
}

Status Network::Crash(const PeerId& id) {
  auto it = peers_.find(id);
  if (it == peers_.end()) return NotFound("Crash: unknown peer " + id);
  if (it->second == nullptr) {
    return FailedPrecondition("Crash: " + id + " is already crashed");
  }
  if (it->second->super_peer()) {
    return FailedPrecondition("Crash: " + id +
                              " is a super peer and never crashes");
  }
  connected_[id] = false;
  CancelTicks(id);
  it->second.reset();  // destroy all in-memory state
  TraceEventf(id, kEvCrash, "peer crashed; in-memory state lost");
  // The crashed peer's ring outlives the peer object — that is the point of
  // a black box.
  RecordFr(id, obs::kEvFrCrash, "in-memory state lost");
  return Status::Ok();
}

Status Network::Restart(std::unique_ptr<PeerNode> peer) {
  PeerId id = peer->id();
  auto it = peers_.find(id);
  if (it == peers_.end()) return NotFound("Restart: unknown peer " + id);
  if (it->second != nullptr) {
    return FailedPrecondition("Restart: " + id + " is not crashed");
  }
  it->second = std::move(peer);
  connected_[id] = true;
  TraceEventf(id, kEvRestart, "peer rebuilt from durable state and rejoined");
  RecordFr(id, obs::kEvFrRestart, "rebuilt from durable state");
  return Status::Ok();
}

bool Network::IsCrashed(const PeerId& id) const {
  auto it = peers_.find(id);
  return it != peers_.end() && it->second == nullptr;
}

bool Network::CanReach(const PeerId& from, const PeerId& to) const {
  if (!IsConnected(to)) return false;
  if (!from.empty() && !IsConnected(from)) return false;
  if (fault_plan_ != nullptr && !fault_plan_->SameSide(from, to)) return false;
  return true;
}

void Network::DisconnectAt(Tick when, const PeerId& id) {
  ScheduleAt(when, [id](Network* net) {
    Status s = net->Disconnect(id);
    // A scheduled disconnect can be refused (super peer, already crashed,
    // never registered). Drills that scheduled it must be able to see that
    // the peer in fact stayed up.
    if (!s.ok()) net->TraceEventf(id, kEvDisconnectRefused, s.ToString());
  });
}

void Network::EnqueueDelivery(Message message, Tick extra_delay) {
  Tick jitter = latency_jitter_ > 0
                    ? static_cast<Tick>(rng_.Uniform(
                          static_cast<uint64_t>(latency_jitter_) + 1))
                    : 0;
  Event ev;
  ev.time = now_ + latency_base_ + jitter + extra_delay;
  ev.seq = next_seq_++;
  // One claim per physical copy: its matching Exit is the copy's terminal
  // event in RunUntil (delivered or dropped), so duplicates keep the phase
  // claimed until the last copy lands.
  TimelineEnter(message);
  ev.message = std::make_shared<Message>(std::move(message));
  queue_.push(std::move(ev));
}

void Network::TimelineEnter(const Message& message) {
  if (timeline_ == nullptr) return;
  auto it = message.headers.find(timeline_txn_header_);
  if (it == message.headers.end()) return;
  timeline_->Enter(it->second, obs::kPhaseNetInflight, now_);
}

void Network::TimelineExit(const Message& message) {
  if (timeline_ == nullptr) return;
  auto it = message.headers.find(timeline_txn_header_);
  if (it == message.headers.end()) return;
  timeline_->Exit(it->second, obs::kPhaseNetInflight, now_);
}

Result<int64_t> Network::Send(Message message) {
  if (peers_.find(message.to) == peers_.end()) {
    // Unknown destinations are accounted like any other failed send so
    // fault drills (and operators) can see misdirected traffic.
    ++counters_.sends_rejected;
    TraceEventf(message.from, kEvSendReject,
                message.type + " to " + message.to + " (unknown peer)");
    return NotFound("Send: unknown peer " + message.to);
  }
  if (!IsConnected(message.to)) {
    ++counters_.sends_failed;
    TraceEventf(message.from, kEvSendFail,
                message.type + " to " + message.to + " (disconnected)");
    return PeerDisconnected("Send: " + message.to + " is unreachable");
  }
  if (!message.from.empty() && !IsConnected(message.from)) {
    // A disconnected peer cannot emit messages. Symmetric with the
    // disconnected-destination path: counted and traced.
    ++counters_.sends_failed;
    TraceEventf(message.from, kEvSendFail,
                message.type + " to " + message.to +
                    " (sender disconnected)");
    return PeerDisconnected("Send: sender " + message.from +
                            " is disconnected");
  }
  if (fault_plan_ != nullptr &&
      !fault_plan_->SameSide(message.from, message.to)) {
    // A partition fails the connection attempt fast — the same signal the
    // paper's peers use to detect disconnection (§3.3(b)).
    ++counters_.sends_failed;
    ++fault_plan_->mutable_stats()->partition_blocked;
    TraceEventf(message.from, kEvSendFail,
                message.type + " to " + message.to + " (partitioned)");
    return PeerDisconnected("Send: " + message.to +
                            " is unreachable (partitioned)");
  }
  message.id = next_message_id_++;
  ++counters_.messages_sent;
  TraceEventf(message.from, kEvSend, message.type + " -> " + message.to);
  if (recorders_ != nullptr) {
    WhatBuf w;
    RecordFr(message.from, obs::kEvFrMsgSend,
             w.Compose(message.type, "->", message.to), message.id);
  }
  int64_t id = message.id;
  if (fault_plan_ == nullptr) {
    EnqueueDelivery(std::move(message), /*extra_delay=*/0);
    return id;
  }
  // Fault injection: the sender sees a successful send; what actually
  // reaches the other side is up to the plan. Duplicates keep the same
  // message id (they are copies of one logical send), which is what makes
  // receiver-side dedup by id possible.
  std::vector<FaultPlan::Delivery> deliveries =
      fault_plan_->Decide(message, order_);
  if (deliveries.empty()) {
    ++counters_.faults_injected;
    TraceEventf(message.from, kEvFaultDrop,
                message.type + " to " + message.to + " lost in transit");
    if (recorders_ != nullptr) {
      WhatBuf w;
      RecordFr(message.from, obs::kEvFrFault,
               w.Prefixed("drop:", message.type), message.id);
    }
    return id;
  }
  bool first = true;
  for (const FaultPlan::Delivery& d : deliveries) {
    Message copy = message;
    if (!d.redirect_to.empty()) {
      ++counters_.faults_injected;
      TraceEventf(copy.from, kEvFaultMisroute,
                  copy.type + " to " + copy.to + " rerouted to " +
                      d.redirect_to);
      if (recorders_ != nullptr) {
        WhatBuf w;
        RecordFr(copy.from, obs::kEvFrFault,
                 w.Prefixed("misroute:", copy.type), copy.id);
      }
      copy.to = d.redirect_to;
    }
    if (!first) {
      ++counters_.faults_injected;
      TraceEventf(copy.from, kEvFaultDup,
                  copy.type + " to " + copy.to + " duplicated");
      if (recorders_ != nullptr) {
        WhatBuf w;
        RecordFr(copy.from, obs::kEvFrFault, w.Prefixed("dup:", copy.type),
                 copy.id);
      }
    }
    if (d.extra_delay > 0) ++counters_.faults_injected;
    EnqueueDelivery(std::move(copy), d.extra_delay);
    first = false;
  }
  return id;
}

void Network::ScheduleAt(Tick when, std::function<void(Network*)> fn) {
  Event ev;
  ev.time = when < now_ ? now_ : when;
  ev.seq = next_seq_++;
  ev.fn = std::move(fn);
  queue_.push(std::move(ev));
}

void Network::ScheduleAfter(Tick delay, std::function<void(Network*)> fn) {
  ScheduleAt(now_ + delay, std::move(fn));
}

void Network::RequestTicks(const PeerId& id) {
  for (const PeerId& existing : tick_subscribers_) {
    if (existing == id) return;
  }
  tick_subscribers_.push_back(id);
}

void Network::CancelTicks(const PeerId& id) {
  tick_subscribers_.erase(
      std::remove(tick_subscribers_.begin(), tick_subscribers_.end(), id),
      tick_subscribers_.end());
}

void Network::RunUntil(Tick until) {
  while (!queue_.empty() && queue_.top().time <= until) {
    Event ev = queue_.top();
    queue_.pop();
    now_ = ev.time;
    // Keep the shared recorder clock in step so events stamped by peers,
    // storage, and executors during dispatch carry the right sim time.
    if (recorders_ != nullptr) recorders_->SetNow(now_);
    if (timeline_ != nullptr) timeline_->SetNow(now_);
    if (ev.fn) {
      ev.fn(this);
      continue;
    }
    const Message& msg = *ev.message;
    if (!IsConnected(msg.to) || FindPeer(msg.to) == nullptr) {
      ++counters_.messages_dropped;
      TraceEventf(msg.to, kEvDrop, msg.type + " from " + msg.from);
      if (recorders_ != nullptr) {
        WhatBuf w;
        RecordFr(msg.to, obs::kEvFrMsgDrop, w.Compose(msg.type, "<-", msg.from),
                 msg.id);
      }
      TimelineExit(msg);
      continue;
    }
    if (fault_plan_ != nullptr && !fault_plan_->SameSide(msg.from, msg.to)) {
      // The partition came up while the message was in flight.
      ++counters_.messages_dropped;
      ++fault_plan_->mutable_stats()->partition_blocked;
      TraceEventf(msg.to, kEvDrop,
                  msg.type + " from " + msg.from + " (partitioned)");
      if (recorders_ != nullptr) {
        WhatBuf w;
        RecordFr(msg.to, obs::kEvFrMsgDrop, w.Compose(msg.type, "<-", msg.from),
                 msg.id);
      }
      TimelineExit(msg);
      continue;
    }
    PeerNode* peer = FindPeer(msg.to);
    ++counters_.messages_delivered;
    TraceEventf(msg.to, kEvRecv, msg.type + " from " + msg.from);
    if (recorders_ != nullptr) {
      WhatBuf w;
      RecordFr(msg.to, obs::kEvFrMsgRecv, w.Compose(msg.type, "<-", msg.from),
               msg.id);
    }
    // Release the in-flight claim before dispatch, so handler work during
    // delivery (evaluation, WAL, compensation) is attributed to itself, not
    // to transport.
    TimelineExit(msg);
    peer->OnMessage(msg, this);
    // Periodic work interleaves deterministically after each delivery, but
    // only for peers that asked for ticks — delivery cost does not scale
    // with overlay size.
    for (const PeerId& id : tick_subscribers_) {
      if (!IsConnected(id)) continue;
      PeerNode* subscriber = FindPeer(id);
      if (subscriber == nullptr) continue;
      ++counters_.tick_calls;
      subscriber->OnTick(now_, this);
    }
  }
  if (now_ < until) now_ = until;
  if (recorders_ != nullptr) recorders_->SetNow(now_);
  if (timeline_ != nullptr) timeline_->SetNow(now_);
}

bool Network::RunUntilQuiescent(Tick budget) {
  const Tick limit = now_ + budget;
  while (!queue_.empty() && queue_.top().time <= limit) {
    RunUntil(queue_.top().time);
  }
  return queue_.empty();
}

void Network::TraceEventf(const std::string& actor, const std::string& kind,
                          const std::string& detail) {
  if (trace_ != nullptr) trace_->Add(now_, actor, kind, detail);
}

void Network::RecordFr(const PeerId& peer, const char* kind,
                       std::string_view what, int64_t arg) {
  if (recorders_ == nullptr) return;
  recorders_->SetNow(now_);
  recorders_->ForPeer(peer)->Record(kind, what, /*span=*/0, arg);
}

}  // namespace axmlx::overlay
