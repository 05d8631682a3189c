#ifndef AXMLX_OBS_METRIC_NAMES_H_
#define AXMLX_OBS_METRIC_NAMES_H_

/// The metric-name registry: every counter/gauge/histogram name the system
/// publishes, declared exactly once. The AxmlStats introspection document,
/// axmlx_report, and the bench JSON reports all aggregate by these strings,
/// so a misspelled or double-defined name silently splits a series — lint
/// rule R10 enforces that every name literal passed to
/// MetricsRegistry::GetCounter/GetGauge/GetHistogram appears in this table
/// and that no two entries share a value. Names follow `<domain>.<metric>`:
/// overlay.* (message fabric), txn.* (transaction protocol),
/// txn.latency.* (per-phase attribution, obs/timeline.h), drill.*
/// (fault-drill harness), wal.* / doc.* / query.* (storage and evaluator
/// hot paths), obs.* (observability self-accounting).
namespace axmlx::obs {

// --- overlay.*: message fabric -------------------------------------------
inline constexpr char kMetricOverlayMessagesSent[] = "overlay.messages_sent";
inline constexpr char kMetricOverlayMessagesDelivered[] =
    "overlay.messages_delivered";
inline constexpr char kMetricOverlayMessagesDropped[] =
    "overlay.messages_dropped";
inline constexpr char kMetricOverlaySendsFailed[] = "overlay.sends_failed";
inline constexpr char kMetricOverlaySendsRejected[] = "overlay.sends_rejected";
inline constexpr char kMetricOverlayFaultsInjected[] =
    "overlay.faults_injected";
inline constexpr char kMetricOverlayTickCalls[] = "overlay.tick_calls";

// --- txn.*: transaction protocol, compensation ---------------------------
inline constexpr char kMetricTxnTxnsCommitted[] = "txn.txns_committed";
inline constexpr char kMetricTxnTxnsAborted[] = "txn.txns_aborted";
inline constexpr char kMetricTxnContextsAborted[] = "txn.contexts_aborted";
inline constexpr char kMetricTxnAbortsSent[] = "txn.aborts_sent";
inline constexpr char kMetricTxnForwardRecoveries[] =
    "txn.forward_recoveries";
inline constexpr char kMetricTxnRetries[] = "txn.retries";
inline constexpr char kMetricTxnCompensationsExecuted[] =
    "txn.compensations_executed";
inline constexpr char kMetricTxnCompensationFailures[] =
    "txn.compensation_failures";
inline constexpr char kMetricTxnNodesCompensated[] = "txn.nodes_compensated";
inline constexpr char kMetricTxnWastedNodes[] = "txn.wasted_nodes";
inline constexpr char kMetricTxnResultsRerouted[] = "txn.results_rerouted";
inline constexpr char kMetricTxnSubcallsReused[] = "txn.subcalls_reused";
inline constexpr char kMetricTxnAdoptions[] = "txn.adoptions";
inline constexpr char kMetricTxnNotificationsSent[] =
    "txn.notifications_sent";
inline constexpr char kMetricTxnEarlyAborts[] = "txn.early_aborts";
inline constexpr char kMetricTxnCompAcksOk[] = "txn.comp_acks_ok";
inline constexpr char kMetricTxnCompAcksFailed[] = "txn.comp_acks_failed";
inline constexpr char kMetricTxnSendsBestEffortFailed[] =
    "txn.sends_best_effort_failed";
inline constexpr char kMetricTxnReplicaPushesDelta[] =
    "txn.replica_pushes_delta";
inline constexpr char kMetricTxnReplicaPushesFull[] = "txn.replica_pushes_full";

// --- txn.latency.*: per-phase transaction latency (obs/timeline.h) -------
// One histogram per kPhase* table entry plus the end-to-end total; the
// Timeline observes all of them at EndTxn, so every histogram's count is
// the number of decided transactions and the per-txn phase values sum to
// the total (phases partition the transaction window by construction).
inline constexpr char kMetricTxnLatencyTotal[] = "txn.latency.total";
inline constexpr char kMetricTxnLatencyQueueWait[] = "txn.latency.queue_wait";
inline constexpr char kMetricTxnLatencyEval[] = "txn.latency.eval";
inline constexpr char kMetricTxnLatencyWalAppend[] = "txn.latency.wal_append";
inline constexpr char kMetricTxnLatencyFlushWait[] = "txn.latency.flush_wait";
inline constexpr char kMetricTxnLatencyNetInflight[] =
    "txn.latency.net_inflight";
inline constexpr char kMetricTxnLatencyCompensation[] =
    "txn.latency.compensation";
inline constexpr char kMetricTxnLatencyRecovery[] = "txn.latency.recovery";

// --- drill.*: fault-drill harness ----------------------------------------
inline constexpr char kMetricDrillJournalErrors[] = "drill.journal_errors";
inline constexpr char kMetricDrillCrashes[] = "drill.crashes";
inline constexpr char kMetricDrillWalReplayedOps[] = "drill.wal_replayed_ops";
inline constexpr char kMetricDrillWalRecoveredTxns[] =
    "drill.wal_recovered_txns";
inline constexpr char kMetricDrillResyncNodes[] = "drill.resync_nodes";
inline constexpr char kMetricDrillRestarts[] = "drill.restarts";
inline constexpr char kMetricDrillHarnessErrors[] = "drill.harness_errors";
inline constexpr char kMetricDrillUndecided[] = "drill.undecided";
inline constexpr char kMetricDrillCommitted[] = "drill.committed";
inline constexpr char kMetricDrillAborted[] = "drill.aborted";
inline constexpr char kMetricDrillTxnDurationTicks[] =
    "drill.txn_duration_ticks";

// --- wal.* / doc.* / query.*: storage and evaluator hot paths ------------
inline constexpr char kMetricWalFlushes[] = "wal.flushes";
inline constexpr char kMetricWalRecordsBatched[] = "wal.records_batched";
inline constexpr char kMetricDocNodesAllocated[] = "doc.nodes_allocated";
inline constexpr char kMetricQueryIndexHits[] = "query.index_hits";
inline constexpr char kMetricQueryIndexCandidates[] =
    "query.index_candidates";
inline constexpr char kMetricQueryWalkFallbacks[] = "query.walk_fallbacks";

// --- obs.*: observability self-accounting --------------------------------
inline constexpr char kMetricObsSpansCloseUnknown[] =
    "obs.spans_close_unknown";

}  // namespace axmlx::obs

#endif  // AXMLX_OBS_METRIC_NAMES_H_
