#ifndef AXMLX_TXN_PEER_H_
#define AXMLX_TXN_PEER_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "axml/materializer.h"
#include "baseline/xpath_lock.h"
#include "chain/active_chain.h"
#include "common/rng.h"
#include "common/status.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "overlay/keepalive.h"
#include "overlay/network.h"
#include "service/repository.h"
#include "txn/directory.h"
#include "txn/payload.h"

namespace axmlx::txn {

/// Per-peer transaction statistics, aggregated across transactions. The
/// benches read these to quantify the paper's qualitative claims.
struct PeerStats {
  int txns_committed = 0;      ///< Origin-side successful transactions.
  int txns_aborted = 0;        ///< Origin-side aborted transactions.
  int contexts_aborted = 0;    ///< Participant contexts rolled back.
  int aborts_sent = 0;         ///< "Abort TA" messages emitted (§3.2).
  int forward_recoveries = 0;  ///< Faults absorbed by fault handlers.
  int retries = 0;             ///< Re-invocations (same peer or replica).
  int compensations_executed = 0;  ///< COMPENSATE plans run here.
  int compensation_failures = 0;   ///< Compensation impossible (peer gone).
  size_t nodes_compensated = 0;    ///< Cost of local rollbacks (§3.2 measure).
  size_t wasted_nodes = 0;         ///< Work done then discarded.
  int results_rerouted = 0;        ///< Case (b): results sent past a dead parent.
  int subcalls_reused = 0;         ///< Re-invocations that skipped a subcall.
  int adoptions = 0;               ///< Re-INVOKEs answered from existing work.
  int notifications_sent = 0;      ///< NOTIFY_DISCONNECT messages emitted.
  int early_aborts = 0;            ///< Contexts stopped by a notification.
  int comp_acks_ok = 0;            ///< COMP_ACK confirmations received.
  int comp_acks_failed = 0;        ///< COMP_ACK rejections (ok="0") received.
  /// Fire-and-forget protocol sends that failed at the overlay. The overlay
  /// traces each one (kEvSendFail); this keeps the loss visible per peer so
  /// drills can assert nothing important vanished silently.
  int sends_best_effort_failed = 0;
};

/// Cached registry handles (`txn.*` counters) for the protocol hot paths.
/// The registry is the source of truth; PeerStats is assembled from these on
/// demand so existing readers keep their field-access spelling.
struct PeerCounters {
  explicit PeerCounters(obs::MetricsRegistry* metrics);
  obs::Counter& txns_committed;
  obs::Counter& txns_aborted;
  obs::Counter& contexts_aborted;
  obs::Counter& aborts_sent;
  obs::Counter& forward_recoveries;
  obs::Counter& retries;
  obs::Counter& compensations_executed;
  obs::Counter& compensation_failures;
  obs::Counter& nodes_compensated;
  obs::Counter& wasted_nodes;
  obs::Counter& results_rerouted;
  obs::Counter& subcalls_reused;
  obs::Counter& adoptions;
  obs::Counter& notifications_sent;
  obs::Counter& early_aborts;
  obs::Counter& comp_acks_ok;
  obs::Counter& comp_acks_failed;
  obs::Counter& sends_best_effort_failed;
  /// Replica pushes that shipped only the touched nodes vs. fell back to a
  /// full document copy (first push, or the replica changed on its own).
  obs::Counter& replica_pushes_delta;
  obs::Counter& replica_pushes_full;
};

/// Observer interface for durable journaling of a peer's transactional
/// writes. The fault-drill harness wires a storage::DurableStore-backed
/// adapter here; the peer reports every applied forward operation and every
/// final decision, which is exactly what WAL-based crash recovery needs: on
/// restart the store replays its log and rolls back unresolved (in-flight)
/// transactions, and the peer is rebuilt from the recovered documents.
class WriteJournal {
 public:
  virtual ~WriteJournal() = default;

  /// `ops` are the fully parameter-substituted operations this peer just
  /// applied to `document` under `txn`, in execution order.
  virtual void OnApply(const std::string& txn, const std::string& document,
                      const std::vector<ops::Operation>& ops) = 0;

  /// `txn` reached a final local decision: committed (keep the work) or
  /// aborted (the journal must undo the journaled forward operations).
  virtual void OnResolved(const std::string& txn, bool committed) = 0;

  /// The peer admitted an effectful message (compensate/abort/commit) into
  /// its at-most-once dedup window. Journals that persist this key can
  /// rebuild the window on restart (SeedDedupKey) so a retransmission
  /// arriving at the restarted incarnation is still suppressed — without
  /// it, a redelivered COMPENSATE would re-apply its plan. Default: no-op
  /// (in-memory-only peers keep the old behaviour).
  virtual void OnDedup(const std::string& key) { (void)key; }
};

/// A transactional AXML peer (paper §3.2).
///
/// `AxmlPeer` implements the invocation protocol — transaction contexts,
/// nested (distributed) service invocation, results/commit flow — and the
/// *baseline* recovery behaviour: any failure aborts the whole transaction,
/// with each involved peer compensating its own work when the "Abort TA"
/// message reaches it (backward recovery all the way to the origin).
///
/// The paper's richer behaviours are layered on by subclasses:
/// - `recovery::RecoveringPeer`: nested recovery with per-call fault
///   handlers (forward recovery), and peer-independent compensation;
/// - `recovery::ChainedPeer`: active-peer-chain handling of peer
///   disconnection (§3.3, cases a-d).
///
/// One context per transaction per peer ("On submission of a transaction TA
/// at a peer AP1, the peer creates a transaction context TCA1").
class AxmlPeer : public overlay::PeerNode {
 public:
  struct Options {
    /// Ship compensating-service definitions with results and use them for
    /// recovery (§3.2, peer-independent compensation).
    bool peer_independent = false;
    /// Honour per-subcall fault handlers (forward recovery). When false,
    /// every child fault propagates as an abort.
    bool use_fault_handlers = true;
    /// Ping/keep-alive interval for watching invoked children; 0 disables
    /// watching (a child crash then leaves the transaction stuck, which the
    /// disconnection benches measure).
    overlay::Tick keepalive_interval = 0;
    /// Ship and use the active-peer chain (§3.3). The base peer only ships
    /// it; ChainedPeer acts on it.
    bool use_chaining = false;
    /// Reuse already-performed work during disconnection recovery (§3.3(b));
    /// false models the paper's "traditional recovery" that discards it.
    bool reuse_work = true;
    /// Origin-side transaction deadline in ticks: an undecided transaction
    /// aborts when it expires (a blunt fallback for losses no detection
    /// mechanism catches). 0 disables — the paper's protocols are the
    /// intended remedy, so the default leaves undetected losses visible.
    overlay::Tick txn_timeout = 0;
    /// Run local service operations under the XPath-locking baseline
    /// (after [5]): conflicting concurrent transactions fault with
    /// "LockConflict" instead of interleaving. Off by default — the paper's
    /// position is that compensation, not locking, suits AXML.
    bool use_locking = false;
    /// The paper's §4 future-work extension: when a peer finds its *entire*
    /// ancestor line unreachable (the transaction can never commit), it
    /// presumes abort and spreads the death notice to its collateral
    /// relatives — uncles, cousins, ... in chain distance order — so they
    /// compensate instead of waiting forever. ChainedPeer only.
    bool extended_chaining = false;
    /// At-least-once delivery for decision-carrying control messages
    /// (ABORT / COMMIT / COMPENSATE): they are sent with an "rsvp" header,
    /// acknowledged by the receiver, and resent every this-many ticks until
    /// acknowledged (or `control_resend_limit` attempts). 0 disables —
    /// the default, matching the paper's reliable-channel assumption; fault
    /// drills enable it so dropped/partitioned decisions still land.
    overlay::Tick control_resend_interval = 0;
    int control_resend_limit = 50;
  };

  using DoneCallback = std::function<void(const std::string& txn, Status)>;

  /// `directory` must outlive the peer and have this peer Register()ed by
  /// the harness after construction.
  AxmlPeer(overlay::PeerId id, bool super_peer, uint64_t seed, Options options,
           ServiceDirectory* directory);
  ~AxmlPeer() override;

  service::Repository& repository() { return repo_; }
  /// Thin view over the metrics registry's `txn.*` counters.
  PeerStats stats() const;
  const Options& options() const { return options_; }
  /// The registry backing this peer's counters.
  obs::MetricsRegistry& metrics() { return metrics_; }

  /// Submits transaction `txn` at this (origin) peer: runs `service` (hosted
  /// here) with `params`. `on_done` fires at commit or abort.
  Status Submit(overlay::Network* net, const std::string& txn,
                const std::string& service, const Params& params,
                DoneCallback on_done);

  void OnMessage(const overlay::Message& message, overlay::Network* net) final;

  /// True if this peer currently holds a context for `txn`.
  bool HasContext(const std::string& txn) const {
    return contexts_.count(txn) > 0;
  }

  /// Attaches a durable write journal (not owned; null detaches). Must be
  /// set before the peer does transactional work.
  void AttachJournal(WriteJournal* journal) { journal_ = journal; }

  /// Pre-populates the at-most-once dedup window (crash-restart recovery:
  /// keys come from the journal's WAL). Does not echo back to OnDedup.
  void SeedDedupKey(const std::string& key) { seen_messages_.insert(key); }

  /// Pre-populates a recovered resolution (crash-restart recovery). Does
  /// not echo back to OnResolved.
  void SeedResolution(const std::string& txn, bool committed) {
    resolved_txns_[txn] = committed;
  }

  /// Attaches a causal span tracker (not owned; null detaches). Shared by
  /// every peer of a repository so cross-peer parent links resolve; must be
  /// set before the peer does transactional work.
  void AttachSpans(obs::SpanTracker* spans) { spans_ = spans; }

  /// Attaches this peer's flight recorder (not owned; null detaches). The
  /// peer stamps txn state transitions, injected-fault decisions, and
  /// compensation steps, correlated to the context's SERVICE span id.
  void AttachRecorder(obs::FlightRecorder* recorder) { recorder_ = recorder; }

  /// Attaches the repository-wide phase timeline (not owned; null detaches).
  /// The origin peer opens the transaction's window at Submit and closes it
  /// when the origin callback fires; every peer places EVAL claims while a
  /// local service execution is waiting out its duration, and stamps
  /// zero-width COMPENSATION markers for local rollbacks and shipped plans.
  void AttachTimeline(obs::Timeline* timeline) { timeline_ = timeline; }

  /// Control messages still awaiting acknowledgement (reliable-control
  /// mode); 0 when idle or when control_resend_interval is 0.
  size_t PendingControlMessages() const { return pending_control_.size(); }

  /// Invoker for data-plane use (embedded service-call materialization
  /// against this peer's services, or — when serviceURL names another peer
  /// — a synchronous cross-peer call through the directory). Suitable for
  /// wiring into ops::Executor / repo::LocalTransaction.
  axml::ServiceInvoker DataPlaneInvoker() { return MakeLocalInvoker(); }

 protected:
  /// State of one subcall edge.
  struct ChildEdge {
    service::ServiceDefinition::SubCall def;
    enum class State { kPending, kInvoked, kDone, kAbsorbed } state =
        State::kPending;
    /// Actual target (replica after retry). Written only through
    /// SetEdgeTarget, which owns the edge's keepalive watch (lint R11).
    overlay::PeerId invoked_peer;
    std::shared_ptr<const ResultPayload> result;
    int retries_used = 0;
    /// This edge holds one reference on the keepalive watch of
    /// `invoked_peer` (see WatchChild / ReleaseWatch).
    bool watched = false;
  };

  /// Transaction context (the paper's TCAx).
  struct Ctx {
    std::string txn;
    overlay::PeerId parent;  ///< Invoker; empty at the origin peer.
    std::string service;
    Params params;
    enum class State { kRunning, kDone, kAborted } state = State::kRunning;
    bool local_done = false;
    bool local_compensated = false;
    service::InvocationOutcome local;
    std::vector<ChildEdge> children;
    chain::ActivePeerChain chain;
    overlay::Tick ready_time = 0;
    DoneCallback on_done;  ///< Origin only.
    /// Learned via NOTIFY_DISCONNECT that the parent is gone (case (d));
    /// completion will reroute instead of attempting the parent.
    bool parent_dead = false;
    /// Subcall results shipped with the INVOKE (reuse, §3.3(b)).
    std::shared_ptr<const ReusedResults> reused;
    /// Injected fault to raise at completion (fault_after_subcalls timing).
    std::string pending_fault;
    /// Aggregated recovery metadata from completed children.
    std::vector<overlay::PeerId> participants;
    std::vector<ParticipantPlan> plans;
    size_t subtree_nodes_affected = 0;
    /// This context currently holds an EVAL timeline claim (placed when the
    /// local execution starts waiting out its duration, released at
    /// completion or abort — the flag prevents a double release).
    bool in_eval = false;
    /// SERVICE span covering this context's execution (0 = no tracker).
    uint64_t span_id = 0;
    /// Origin only: the enclosing TXN span.
    uint64_t txn_span_id = 0;
  };

  // --- Hook points for recovery subclasses ---------------------------------

  /// A child edge reported a fault (ABORT from below) or was found
  /// unreachable. Base behaviour: abort the whole context (backward
  /// recovery). `fault` is the fault name ("PeerDisconnected" for
  /// connectivity failures).
  virtual void OnChildFailure(Ctx* ctx, ChildEdge* edge,
                              const std::string& fault,
                              overlay::Network* net);

  /// The parent was unreachable while returning results. Base behaviour:
  /// discard this subtree's work (compensate + abort children).
  virtual void OnParentUnreachable(Ctx* ctx, overlay::Network* net);

  /// A NOTIFY_DISCONNECT message arrived (chain protocols only).
  virtual void OnNotifyDisconnect(const overlay::Message& message,
                                  overlay::Network* net);

  /// A STREAM (continuous-service data) message arrived. Base: ignored.
  virtual void OnStream(const overlay::Message& message,
                        overlay::Network* net);

  /// A RESULT carrying a "redirect_for" header arrived: a descendant routed
  /// its results around a disconnected intermediate peer (§3.3(b)). Base
  /// peers ignore it (and the work is wasted).
  virtual void OnRedirectedResult(const overlay::Message& message,
                                  overlay::Network* net);

  /// Completed subcall results to ship with INVOKEs for this context —
  /// ChainedPeer supplies rerouted orphan results here so re-invocations on
  /// replicas skip finished subcalls. Base: none.
  virtual std::shared_ptr<const ReusedResults> ReuseFor(const Ctx& ctx);

  /// Called when this peer's context for `txn` reaches a final decision
  /// (local commit-release or abort). ChainedPeer uses it to resolve
  /// orphaned rerouted results: on abort, their producers are told to roll
  /// back. Base: nothing.
  virtual void OnTxnResolved(const std::string& txn, bool committed,
                             overlay::Network* net);

  // --- Protocol actions usable by subclasses -------------------------------

  /// Creates and begins a context. Returns null on duplicate txn. `reused`
  /// optionally supplies completed subcall results (reuse on re-invocation).
  /// `parent_span` is the caller's span id (cross-peer: parsed from the
  /// INVOKE's span header), parent of the SERVICE span opened here.
  Ctx* StartContext(const std::string& txn, const overlay::PeerId& parent,
                    const std::string& service, Params params,
                    chain::ActivePeerChain chain_info, DoneCallback on_done,
                    overlay::Network* net,
                    std::shared_ptr<const ReusedResults> reused = nullptr,
                    uint64_t parent_span = 0);

  /// The one writer of `edge->invoked_peer` (lint R11): points the edge at
  /// `target` (empty = none) after giving up the edge's keepalive watch on
  /// its old target. The monitor stops pinging a child once no running edge
  /// of any transaction still watches it, so an aborted or retargeted edge
  /// cannot leave a watch behind that keeps the simulated clock spinning.
  void SetEdgeTarget(ChildEdge* edge, const overlay::PeerId& target);

  /// Sends INVOKE for `edge` to `target`. On unreachable target, reports
  /// through OnChildFailure (with fault "PeerDisconnected").
  void InvokeChild(Ctx* ctx, ChildEdge* edge, const overlay::PeerId& target,
                   overlay::Network* net);

  /// Compensates this peer's local effects for `ctx` (once). `net` is used
  /// for span timestamps only and may be null.
  void CompensateLocal(Ctx* ctx, overlay::Network* net);

  /// Aborts the context: compensates locally, sends ABORT to all invoked
  /// children, optionally notifies the parent, finishes the origin callback.
  /// `notify_parent` is false when the abort *came from* the parent.
  void AbortContext(Ctx* ctx, const std::string& fault, bool notify_parent,
                    overlay::Network* net);

  /// Marks `edge` absorbed/done and completes the context if ready.
  void TryComplete(Ctx* ctx, overlay::Network* net);

  /// Issues COMPENSATE messages for every stored participant plan (peer-
  /// independent recovery). Plans for disconnected peers are redirected to
  /// their replicas when the directory knows one; otherwise they count as
  /// compensation failures.
  void CompensateParticipants(Ctx* ctx, overlay::Network* net);

  Ctx* FindContext(const std::string& txn);
  void EraseContext(const std::string& txn);

  /// Final decision this peer recorded for `txn`: unset = never resolved
  /// here, true = committed, false = aborted. Lets handlers distinguish a
  /// stale duplicate/misrouted RESULT for a committed transaction (ignore)
  /// from genuinely stale work (presumed-abort reply).
  std::optional<bool> ResolvedOutcome(const std::string& txn) const;


  /// Sends `m` as a decision-carrying control message. In reliable-control
  /// mode (control_resend_interval > 0) the message carries "rsvp" and
  /// "dedup" headers and is resent until the target acknowledges it;
  /// otherwise this is a plain Send. Returns the first attempt's status.
  Status SendControl(overlay::Message m, overlay::Network* net);

  /// Sends a fire-and-forget protocol message (ACK, presumed-abort reply,
  /// cascade ABORT, ...). A failed send is not an error for the caller —
  /// retransmission, detection, or presumed-abort covers the loss — but it
  /// is never silently dropped either: the overlay traces it and
  /// `sends_best_effort_failed` accounts it here.
  void BestEffortSend(overlay::Message m, overlay::Network* net);

  ServiceDirectory* directory() { return directory_; }
  PeerCounters* counters() { return &counters_; }
  Rng* rng() { return &rng_; }
  WriteJournal* journal() { return journal_; }
  obs::SpanTracker* spans() { return spans_; }
  obs::FlightRecorder* recorder() { return recorder_; }
  obs::Timeline* timeline() { return timeline_; }

  /// Releases `ctx`'s EVAL claim if it holds one (idempotent).
  void ExitEval(Ctx* ctx, overlay::Network* net);

  /// Stamps a zero-width COMPENSATION marker for `txn` (no-op without an
  /// attached timeline). Local rollbacks take zero simulated ticks, so the
  /// marker records occurrence, not duration — see DESIGN.md §7.
  void MarkCompensation(const std::string& txn, overlay::Network* net);

  /// Stamps one flight-recorder event correlated to `ctx`'s SERVICE span
  /// (no-op without an attached recorder; null `ctx` records span 0).
  void RecordFr(const Ctx* ctx, const char* kind, std::string_view what,
                int64_t arg = 0);

  /// Invoker wired into the local executor for embedded service-call
  /// materializations: looks the method up in the local repository first.
  axml::ServiceInvoker MakeLocalInvoker();

  /// Liveness token for closures scheduled on the network: a crash-stop
  /// (Network::Crash) destroys the peer while its scheduled closures are
  /// still queued, so every closure capturing `this` must also capture this
  /// token and bail out when it has expired.
  std::weak_ptr<void> AliveToken() const { return alive_; }

 private:
  /// Dedup key of a delivered message: the explicit "dedup" header when
  /// present (stable across control retransmissions), else the overlay
  /// message id (stable across fault-injected duplicates).
  static std::string DedupKeyOf(const overlay::Message& message);
  /// Records the final decision for `txn` and journals it.
  void RecordResolution(const std::string& txn, bool committed);
  void HandleAck(const overlay::Message& message);
  /// Schedules the next retransmission of the pending control message
  /// `key` after the resend interval.
  void ArmControlResend(const std::string& key, overlay::Network* net);

  void HandleInvoke(const overlay::Message& message, overlay::Network* net);
  void HandleResult(const overlay::Message& message, overlay::Network* net);
  void HandleAbort(const overlay::Message& message, overlay::Network* net);
  void HandleCommit(const overlay::Message& message, overlay::Network* net);
  void HandleCompensate(const overlay::Message& message,
                        overlay::Network* net);
  void HandleCompAck(const overlay::Message& message);

  /// Closes the context's SERVICE span (idempotent: zeroes ctx->span_id).
  /// `net` supplies the close timestamp; null closes at the span's start.
  void CloseCtxSpan(Ctx* ctx, overlay::Network* net,
                    const std::string& outcome,
                    const std::string& fault = std::string());

  void Begin(Ctx* ctx, overlay::Network* net);
  void Complete(Ctx* ctx, overlay::Network* net);
  /// Sends this context's RESULT to `ctx->parent`; on unreachable parent
  /// invokes OnParentUnreachable. Used by Complete and by adoption resends.
  void SendResult(Ctx* ctx, overlay::Network* net);
  /// Pushes the service's document to this peer's replica (eager
  /// replication) after local work.
  void PushToReplica(const std::string& document, overlay::Network* net);
  /// Takes a keepalive watch reference for `edge`'s current target,
  /// starting the watch on the first reference.
  void WatchChild(ChildEdge* edge, overlay::Network* net);
  /// Drops `edge`'s watch reference (if it holds one); the last reference
  /// on a target unwatches it.
  void ReleaseWatch(ChildEdge* edge);

  /// Stable lock id for a transaction name (used with use_locking).
  static int64_t LockIdFor(const std::string& txn);

  service::Repository repo_;
  std::unique_ptr<service::ServiceHost> host_;
  baseline::PathLockManager locks_;
  ServiceDirectory* directory_;
  Options options_;
  Rng rng_;
  obs::MetricsRegistry metrics_;      ///< Must precede counters_.
  PeerCounters counters_{&metrics_};
  obs::SpanTracker* spans_ = nullptr;
  obs::FlightRecorder* recorder_ = nullptr;
  obs::Timeline* timeline_ = nullptr;
  std::map<std::string, Ctx> contexts_;
  std::unique_ptr<overlay::KeepAliveMonitor> keepalive_;
  /// Running edges (across all contexts) holding a watch on each target.
  std::map<overlay::PeerId, int> watch_refs_;
  WriteJournal* journal_ = nullptr;
  /// Delivered-message dedup keys (duplicate suppression, at-most-once
  /// processing on top of the overlay's at-least-once faults).
  std::set<std::string> seen_messages_;
  /// Final decisions recorded here, by transaction (true = committed).
  std::map<std::string, bool> resolved_txns_;
  /// Unacknowledged reliable control messages by dedup key.
  struct PendingControl {
    overlay::Message message;
    int attempts = 0;
  };
  std::map<std::string, PendingControl> pending_control_;
  std::shared_ptr<void> alive_ = std::make_shared<int>(0);
};

}  // namespace axmlx::txn

#endif  // AXMLX_TXN_PEER_H_
