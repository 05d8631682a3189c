#ifndef AXMLX_OBS_SPAN_H_
#define AXMLX_OBS_SPAN_H_

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace axmlx::obs {

class Counter;
class FlightRecorderSet;
class MetricsRegistry;

/// Declared span kinds. Every `kind` passed to SpanTracker::OpenSpan must
/// come from this table (lint rule R3, same contract as the kEv* trace
/// kinds): the report tooling groups and renders by these strings, so an
/// emitter inventing an off-table spelling silently falls out of the
/// invocation-tree reconstruction.
inline constexpr char kSpanTxn[] = "TXN";
inline constexpr char kSpanService[] = "SERVICE";
inline constexpr char kSpanCompensation[] = "COMPENSATION";
inline constexpr char kSpanRecovery[] = "RECOVERY";

/// Span outcomes (deliberately NOT kSpan*-prefixed: they are not kinds and
/// must not enter the lint table).
inline constexpr char kOutcomeCommitted[] = "COMMITTED";
inline constexpr char kOutcomeAborted[] = "ABORTED";
inline constexpr char kOutcomeOk[] = "OK";
inline constexpr char kOutcomeFailed[] = "FAILED";
inline constexpr char kOutcomeAbsorbed[] = "ABSORBED";
inline constexpr char kOutcomeRetried[] = "RETRIED";

/// One causal span in the distributed invocation tree (paper §3.2): a
/// transaction, a nested service execution, a compensation, or a recovery
/// attempt. Parent links cross peers — the parent id travels in the INVOKE
/// message's span header — so the per-transaction tree reconstructs the
/// paper's Figure 1/2 narratives end to end.
struct SpanRecord {
  std::string txn;
  uint64_t span_id = 0;
  uint64_t parent_span_id = 0;  ///< 0 = root.
  std::string peer;
  std::string kind;    ///< One of the kSpan* table.
  std::string detail;  ///< Service name, document, or fault context.
  int64_t start = 0;   ///< Simulation time.
  int64_t end = -1;    ///< -1 while the span is open.
  std::string outcome;  ///< Empty while open.
  std::string fault;    ///< Fault name for aborted/failed spans.
};

/// Append-only span log with process-wide unique ids. One tracker is shared
/// by every peer of a repository (the discrete-event simulator is
/// single-threaded), which is what makes cross-peer parent links unambiguous.
///
/// A repository keeps its spans for its whole life (about twenty per
/// transaction), so storage is compact: ids are dense (span n sits at
/// index n - 1, no lookup map), and the six strings of a span are indices
/// into one table of distinct strings — peers, kinds, services and
/// outcomes repeat across transactions. Readers get owned SpanRecord
/// copies.
class SpanTracker {
 public:
  /// Opens a span and returns its id (never 0).
  uint64_t OpenSpan(const std::string& txn, const std::string& peer,
                    const std::string& kind, uint64_t parent_span_id,
                    int64_t start, const std::string& detail = std::string());

  /// Closes `span_id` with `outcome` (and optionally the fault that ended
  /// it). Unknown or already-closed ids are ignored — close points race
  /// benignly under duplicated control messages — but every ignored close
  /// bumps obs.spans_close_unknown when a registry is attached, so the
  /// benign races stay observable.
  void CloseSpan(uint64_t span_id, int64_t end, const std::string& outcome,
                 const std::string& fault = std::string());

  /// Every span, in id order.
  std::vector<SpanRecord> spans() const;
  /// The spans of transaction `txn`, in id order.
  std::vector<SpanRecord> SpansOf(const std::string& txn) const;
  /// The spans still open, in id order.
  std::vector<SpanRecord> OpenSpans() const;
  std::optional<SpanRecord> Find(uint64_t span_id) const;

  /// One JSON object per line:
  /// {"txn":...,"span":N,"parent":N,"peer":...,"kind":...,"detail":...,
  ///  "start":T,"end":T,"outcome":...[,"fault":...]}
  /// Still-open spans render with "end":-1 and the explicit outcome "OPEN"
  /// so dumps taken from crashed peers are unambiguous.
  std::string ToJsonl() const;

  /// Mirrors every OpenSpan/CloseSpan into the opening peer's flight
  /// recorder (SPAN_OPEN / SPAN_CLOSE events). Null detaches.
  void AttachRecorders(FlightRecorderSet* recorders) {
    recorders_ = recorders;
  }

  /// Counts ignored CloseSpan calls into `metrics` (not owned; null
  /// detaches).
  void AttachMetrics(MetricsRegistry* metrics);

  void Clear();

 private:
  struct Span {
    uint64_t parent_span_id;
    int64_t start;
    int64_t end;  ///< -1 while open.
    uint32_t txn, peer, kind, detail, outcome, fault;
  };

  uint32_t Intern(const std::string& s);
  const std::string& Str(uint32_t index) const { return *strings_[index]; }
  SpanRecord ToRecord(size_t index) const;

  std::vector<Span> spans_;  ///< Span id n at index n - 1.
  /// Distinct strings; the keys of symbol_index_ own them (node-based, so
  /// the pointers stay valid as the table grows).
  std::vector<const std::string*> strings_;
  std::unordered_map<std::string, uint32_t> symbol_index_;
  FlightRecorderSet* recorders_ = nullptr;
  Counter* close_unknown_ = nullptr;  ///< obs.spans_close_unknown.
};

/// Renders one span as the JSON object described at ToJsonl (no trailing
/// newline). Shared by ToJsonl and the forensic dump builder so both
/// artifacts stay parseable by the same report code.
std::string SpanToJson(const SpanRecord& s);

}  // namespace axmlx::obs

#endif  // AXMLX_OBS_SPAN_H_
