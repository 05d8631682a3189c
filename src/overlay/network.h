#ifndef AXMLX_OVERLAY_NETWORK_H_
#define AXMLX_OVERLAY_NETWORK_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/trace.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/timeline.h"

namespace axmlx::overlay {

/// Peers are addressed by readable ids matching the paper's figures
/// ("AP1".."AP6").
using PeerId = std::string;

/// Simulation time, in abstract ticks.
using Tick = int64_t;

/// A message between peers. Payloads are carried as a header map plus an
/// optional body string (serialized XML operations etc.); `attachment` is a
/// simulator shortcut for structured in-process payloads that would be
/// serialized in a wire implementation.
struct Message {
  PeerId from;
  PeerId to;
  std::string type;  ///< e.g. "INVOKE", "RESULT", "ABORT", "FAULT".
  std::map<std::string, std::string> headers;
  std::string body;
  std::shared_ptr<const void> attachment;
  int64_t id = 0;  ///< Assigned by the network on send.
};

class Network;
class FaultPlan;

/// Base class for simulated peers. Subclasses implement the AXML peer
/// behaviour (transaction manager, recovery protocol, ...).
class PeerNode {
 public:
  PeerNode(PeerId id, bool super_peer)
      : id_(std::move(id)), super_peer_(super_peer) {}
  virtual ~PeerNode() = default;

  PeerNode(const PeerNode&) = delete;
  PeerNode& operator=(const PeerNode&) = delete;

  /// Delivered when a message addressed to this peer arrives (only while
  /// connected).
  virtual void OnMessage(const Message& message, Network* net) = 0;

  /// Called after each delivery for peers that opted in via
  /// Network::RequestTicks (periodic work such as keep-alive checks that is
  /// not driven by scheduled closures). Default: nothing. A subclass that
  /// overrides this must call RequestTicks(id()) to receive ticks.
  virtual void OnTick(Tick now, Network* net);

  const PeerId& id() const { return id_; }

  /// Super peers are "trusted peers which do not disconnect" (§3.3); the
  /// network refuses to disconnect them.
  bool super_peer() const { return super_peer_; }

 private:
  PeerId id_;
  bool super_peer_;
};

/// Deterministic discrete-event message bus connecting the peers.
///
/// Substitution note (see DESIGN.md): the paper's system ran on a real P2P
/// overlay; the protocols under study depend on message ordering, failure
/// interleavings, and detection timing — all of which this simulator
/// controls exactly, making the experiments reproducible from a seed.
class Network {
 public:
  explicit Network(uint64_t seed = 1, Trace* trace = nullptr);

  /// Registers a peer. The network owns it.
  void AddPeer(std::unique_ptr<PeerNode> peer);
  PeerNode* FindPeer(const PeerId& id);

  /// All registered peer ids, in registration order.
  std::vector<PeerId> peer_ids() const { return order_; }

  // --- Connectivity --------------------------------------------------------

  /// Marks `id` as disconnected: queued and future messages to it are
  /// dropped, and sends to it fail fast. Super peers cannot disconnect.
  Status Disconnect(const PeerId& id);
  Status Reconnect(const PeerId& id);
  bool IsConnected(const PeerId& id) const;

  /// Schedules a disconnection at an absolute time.
  void DisconnectAt(Tick when, const PeerId& id);

  /// Crash-stop: destroys the peer object — all of its in-memory state
  /// (contexts, documents, monitors) is lost — while its slot and id stay
  /// registered. Messages to a crashed peer fail/drop like a disconnected
  /// one. Super peers cannot crash. Recover with Restart().
  Status Crash(const PeerId& id);

  /// Rejoins a crashed peer with a rebuilt node (same id). The caller is
  /// responsible for having restored the node's durable state (e.g. by
  /// replaying a storage::DurableStore WAL) before rejoining.
  Status Restart(std::unique_ptr<PeerNode> peer);

  /// True when `id` is registered but its node was destroyed by Crash().
  bool IsCrashed(const PeerId& id) const;

  /// True when `from` can currently reach `to`: both connected (and not
  /// crashed) and on the same side of any active fault-plan partition. An
  /// empty `from` denotes the harness, which only needs `to` reachable.
  bool CanReach(const PeerId& from, const PeerId& to) const;

  // --- Fault injection -----------------------------------------------------

  /// Attaches `plan` (not owned; null detaches). Every subsequent send and
  /// delivery is filtered through it: messages may be dropped, duplicated,
  /// delayed, misrouted, or blocked by a partition.
  void SetFaultPlan(FaultPlan* plan) { fault_plan_ = plan; }
  FaultPlan* fault_plan() { return fault_plan_; }

  // --- Flight recording ----------------------------------------------------

  /// Attaches the per-peer flight-recorder set (not owned; null detaches).
  /// The network stamps message send/recv/drop, fault-injection, and
  /// crash/restart events into each peer's ring, and keeps the set's shared
  /// clock in step with simulation time so every component recording into
  /// the same set agrees on event timestamps.
  void SetRecorders(obs::FlightRecorderSet* recorders) {
    recorders_ = recorders;
  }
  obs::FlightRecorderSet* recorders() { return recorders_; }

  /// Attaches the per-transaction phase timeline (not owned; null
  /// detaches). Every enqueued physical copy of a message whose
  /// `txn_header` header names an open transaction places one NET_INFLIGHT
  /// claim, released when that copy is delivered or dropped — so duplicated
  /// copies hold overlapping claims and the phase stays attributed until
  /// the last one lands. The network also keeps the timeline's convenience
  /// clock in step with simulation time (like the recorder set's), which is
  /// what clock-less components such as storage::DurableStore stamp their
  /// claims with. The header key is injected by the repository layer so the
  /// overlay stays ignorant of transaction-protocol header names.
  void SetTimeline(obs::Timeline* timeline, std::string txn_header) {
    timeline_ = timeline;
    timeline_txn_header_ = std::move(txn_header);
  }
  obs::Timeline* timeline() { return timeline_; }

  // --- Messaging -----------------------------------------------------------

  /// Enqueues `message` for delivery after the link latency. Returns
  /// kPeerDisconnected immediately when the destination is unreachable —
  /// modelling a failed connection attempt, which is how the paper's peers
  /// detect disconnection "while trying to return the results" (§3.3(b)).
  Result<int64_t> Send(Message message);

  /// Per-link latency: base + uniform jitter ticks.
  void SetLatency(Tick base, Tick jitter) {
    latency_base_ = base;
    latency_jitter_ = jitter;
  }

  // --- Scheduling and the event loop ---------------------------------------

  /// Runs `fn` at absolute time `when` (or now, if in the past).
  void ScheduleAt(Tick when, std::function<void(Network*)> fn);

  /// Runs `fn` after `delay` ticks.
  void ScheduleAfter(Tick delay, std::function<void(Network*)> fn);

  /// Default RunUntilQuiescent budget: far beyond any protocol timer (a
  /// transaction decides within a few thousand ticks even under faults).
  static constexpr Tick kQuiescenceBudget = 1'000'000;

  /// Processes events until the queue drains or `budget` ticks past now()
  /// have elapsed. Returns true when the queue drained; false means the run
  /// stopped at the budget with events still pending — a timer that keeps
  /// rescheduling itself, which callers report as a harness error.
  bool RunUntilQuiescent(Tick budget = kQuiescenceBudget);

  /// Advances through events with timestamps <= `until`.
  void RunUntil(Tick until);

  Tick now() const { return now_; }

  /// Opts `id` into OnTick dispatch after each delivery. Ticks are opt-in:
  /// delivering a message costs O(subscribers), not O(peers), so a network
  /// with no periodic work pays nothing. Dispatch order follows
  /// registration order, keeping interleavings deterministic.
  void RequestTicks(const PeerId& id);
  void CancelTicks(const PeerId& id);

  struct Stats {
    int64_t messages_sent = 0;
    int64_t messages_delivered = 0;
    int64_t messages_dropped = 0;   ///< Destination vanished in flight.
    int64_t sends_failed = 0;       ///< Destination unreachable at send.
    int64_t sends_rejected = 0;     ///< Destination id was never registered.
    int64_t faults_injected = 0;    ///< Plan-made drops/dups/delays/misroutes.
    int64_t tick_calls = 0;         ///< OnTick dispatches (perf accounting).
  };
  /// Thin view assembled from the metrics registry (`overlay.*` counters).
  Stats stats() const;
  void ResetStats() { metrics_.Reset(); }

  /// The registry backing the overlay.* counters.
  obs::MetricsRegistry& metrics() { return metrics_; }

  Trace* trace() { return trace_; }

 private:
  struct Event {
    Tick time = 0;
    int64_t seq = 0;  ///< Tie-break: FIFO among same-time events.
    // Exactly one of the two is set.
    std::shared_ptr<Message> message;
    std::function<void(Network*)> fn;
  };
  struct EventAfter {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  void TraceEventf(const std::string& actor, const std::string& kind,
                   const std::string& detail);

  /// Stamps one flight-recorder event for `peer` at the current simulation
  /// time (no-op without an attached set).
  void RecordFr(const PeerId& peer, const char* kind, std::string_view what,
                int64_t arg = 0);

  /// Cached registry handles for the hot send/deliver paths; the registry
  /// remains the source of truth (Stats is assembled from it on demand).
  struct NetCounters {
    explicit NetCounters(obs::MetricsRegistry* metrics);
    obs::Counter& messages_sent;
    obs::Counter& messages_delivered;
    obs::Counter& messages_dropped;
    obs::Counter& sends_failed;
    obs::Counter& sends_rejected;
    obs::Counter& faults_injected;
    obs::Counter& tick_calls;
  };

  /// Enqueues one physical delivery of `message` (already id-stamped).
  void EnqueueDelivery(Message message, Tick extra_delay);

  /// Places / releases `message`'s NET_INFLIGHT timeline claim (no-op
  /// without an attached timeline or a transaction header).
  void TimelineEnter(const Message& message);
  void TimelineExit(const Message& message);

  std::map<PeerId, std::unique_ptr<PeerNode>> peers_;
  std::vector<PeerId> order_;
  std::vector<PeerId> tick_subscribers_;  ///< Registration order.
  std::map<PeerId, bool> connected_;
  std::priority_queue<Event, std::vector<Event>, EventAfter> queue_;
  Tick now_ = 0;
  int64_t next_seq_ = 0;
  int64_t next_message_id_ = 1;
  Tick latency_base_ = 1;
  Tick latency_jitter_ = 0;
  Rng rng_;
  obs::MetricsRegistry metrics_;      ///< Must precede counters_.
  NetCounters counters_{&metrics_};
  Trace* trace_;
  FaultPlan* fault_plan_ = nullptr;
  obs::FlightRecorderSet* recorders_ = nullptr;
  obs::Timeline* timeline_ = nullptr;
  std::string timeline_txn_header_;
};

}  // namespace axmlx::overlay

#endif  // AXMLX_OVERLAY_NETWORK_H_
