#ifndef AXMLX_OBS_TIMELINE_H_
#define AXMLX_OBS_TIMELINE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace axmlx::obs {

class FlightRecorderSet;
class MetricsRegistry;
class Histogram;
class SpanTracker;

/// Declared transaction phases. Every `phase` passed to Timeline::Enter /
/// Timeline::Exit / Timeline::Mark must come from this table (lint rules R3/R10, same
/// contract as the kEvFr* recorder kinds): the `txn.latency.*` histograms,
/// the trace exporter, and `axmlx_report --critical-path` all group by
/// these strings, so an off-table spelling silently falls out of the
/// attribution. Table order IS attribution priority: when several phases
/// claim the same instant, the earliest entry below wins (recovery beats
/// compensation beats WAL work beats evaluation beats transport).
/// QUEUE_WAIT is never claimed — it is the residual attributed whenever no
/// phase holds a claim.
inline constexpr char kPhaseRecovery[] = "RECOVERY";
inline constexpr char kPhaseCompensation[] = "COMPENSATION";
inline constexpr char kPhaseWalAppend[] = "WAL_APPEND";
inline constexpr char kPhaseFlushWait[] = "FLUSH_WAIT";
inline constexpr char kPhaseEval[] = "EVAL";
inline constexpr char kPhaseNetInflight[] = "NET_INFLIGHT";
inline constexpr char kPhaseQueueWait[] = "QUEUE_WAIT";

inline constexpr int kPhaseCount = 7;

/// The phase table in priority order (index 0 = kPhaseRecovery, index
/// kPhaseCount-1 = kPhaseQueueWait, the residual).
const char* const* PhaseTable();

/// Priority index of `phase` in the table above; -1 for off-table strings.
int PhaseIndex(const char* phase);
int PhaseIndex(const std::string& phase);

/// The `txn.latency.*` histogram name for phase index `i` (kMetric*
/// constants from obs/metric_names.h, same order as PhaseTable()).
const char* PhaseMetricName(int i);

/// Bucket bounds (simulation ticks) shared by every txn.latency.* histogram.
std::vector<int64_t> PhaseLatencyBuckets();

/// One contiguous stretch of a transaction attributed to a single phase.
struct PhaseSegment {
  const char* phase = kPhaseQueueWait;  ///< One of the kPhase* table.
  int64_t start = 0;
  int64_t end = 0;
};

/// Everything the timeline learned about one transaction. Segments are
/// contiguous from `begin` to `end` and zero-width stretches are dropped,
/// so the segment widths partition the transaction's wall duration exactly
/// — that invariant holds by construction, not by bookkeeping discipline.
struct TxnTimeline {
  std::string txn;
  int64_t begin = 0;
  int64_t end = -1;  ///< -1 while the transaction is still open.
  std::vector<PhaseSegment> segments;
  int64_t phase_ticks[kPhaseCount] = {};  ///< Indexed by PhaseIndex().
};

/// Per-transaction phase accounting over the simulation clock.
///
/// One timeline is shared by every component of a repository (like
/// SpanTracker): peers open the transaction window at Submit, and every
/// instrumented layer — overlay transport, service evaluation, WAL,
/// compensation, recovery — places counted claims on the phases it is
/// responsible for. At any instant the transaction is attributed to the
/// highest-priority phase with an active claim (PhaseTable() order), or to
/// QUEUE_WAIT when nothing claims it. Claims are counts, not booleans:
/// three in-flight messages are three NET_INFLIGHT claims, and the phase
/// stays attributed until the last one exits. Enter/Exit for transactions
/// that are unknown, already ended, or never begun are ignored (messages
/// legitimately outlive their transaction's decision), and Exit never
/// drives a claim negative.
///
/// Local work in the discrete-event simulator is zero-tick, so phases like
/// WAL_APPEND place zero-width claims there: they never win wall time, but
/// they still appear in the per-phase histograms (as 0).
class Timeline {
 public:
  /// Registers the txn.latency.* histograms in `metrics` (not owned; null
  /// detaches). EndTxn observes every phase total plus the end-to-end
  /// duration there.
  void AttachMetrics(MetricsRegistry* metrics);

  /// Convenience clock for components without their own (overlay::Network
  /// keeps it in step with the event loop, like FlightRecorderSet).
  void SetNow(int64_t now) { now_ = now; }
  int64_t now() const { return now_; }

  /// Opens the accounting window for `txn` at `now`. Re-beginning an open
  /// transaction ends the previous incarnation first.
  void BeginTxn(const std::string& txn, int64_t now);

  /// Places / releases one claim of `phase` on `txn` at time `now`.
  void Enter(const std::string& txn, const char* phase, int64_t now);
  void Exit(const std::string& txn, const char* phase, int64_t now);

  /// Stamps a zero-width `phase` marker on `txn` at `now`: exactly what
  /// Enter then Exit at the same `now` would record, in one lookup. A
  /// marker can only end the current segment at `now`, and only when
  /// `phase` outranks the attributed one.
  void Mark(const std::string& txn, const char* phase, int64_t now);

  /// Closes the window at `now`, truncating any still-active claims, and
  /// observes the txn.latency.* histograms. Later Enter/Exit for the same
  /// name are ignored.
  void EndTxn(const std::string& txn, int64_t now);

  /// All transaction records, in BeginTxn order (open ones have end == -1).
  const std::vector<TxnTimeline>& txns() const { return txns_; }

  /// The most recent record for `txn`; null when never begun.
  const TxnTimeline* Find(const std::string& txn) const;

  void Clear();

 private:
  struct OpenTxn {
    size_t index = 0;  ///< Into txns_.
    int claims[kPhaseCount] = {};
    int attributed = kPhaseCount - 1;  ///< Current phase (QUEUE_WAIT idle).
    int64_t segment_start = 0;
  };

  /// Closes the current segment at `now` if the winning phase changed (or
  /// `force`), dropping zero-width stretches.
  void Reattribute(OpenTxn* open, int64_t now, bool force);

  MetricsRegistry* metrics_ = nullptr;
  Histogram* phase_hist_[kPhaseCount] = {};
  Histogram* total_hist_ = nullptr;
  int64_t now_ = 0;
  std::map<std::string, OpenTxn> open_;
  std::vector<TxnTimeline> txns_;
};

/// Renders recorder + span + timeline state as an "axmlx-trace-v1" document:
/// Chrome `trace_event` JSON (object form, `traceEvents` array) that loads
/// directly in Perfetto / chrome://tracing. Each peer becomes a process
/// track carrying its flight events (zero-duration slices) and spans;
/// MSG_SEND -> MSG_RECV pairs become cross-peer flow arrows keyed by the
/// overlay message id; the timeline's transactions become threads of a
/// synthetic pid-0 "transactions" process whose slices are the phase
/// segments. Any argument may be null (that layer is simply omitted). The
/// output is a pure function of the inputs, so equal seeds produce
/// byte-identical traces. Timestamps are simulation ticks rendered as
/// microseconds.
std::string BuildTraceJson(const FlightRecorderSet* recorders,
                           const SpanTracker* spans, const Timeline* timeline);

}  // namespace axmlx::obs

#endif  // AXMLX_OBS_TIMELINE_H_
