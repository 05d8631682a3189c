#ifndef E2E_BENCH_TRACER_H_
#define E2E_BENCH_TRACER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2e {

/// Wall-clock nanoseconds from a monotonic clock.
int64_t NowNs();

/// Which part of a run a span belongs to. Per-transaction figures use only
/// kTxn spans; set-up, probes and checks are reported separately.
enum class Phase : int8_t { kSetup, kTxn, kProbe, kCheck };

/// One timed interval around a call the benchmark makes into a layer. The
/// name is a string literal "layer.call"; the layer is the text before the
/// first '.'.
struct Span {
  const char* name = nullptr;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  ///< Index of the enclosing span; -1 at top level.
  int32_t txn = -1;     ///< Ordinal of the transaction it serves; -1 = none.
  Phase phase = Phase::kSetup;
};

/// In-memory span recorder for the benchmark's own call sites. The
/// benchmark is single-threaded, so spans nest strictly and the stack of
/// open spans gives every new span its parent. A disabled tracer records
/// nothing and costs one branch per call site.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Tags spans opened from now on.
  void SetContext(Phase phase, int32_t txn) {
    phase_ = phase;
    txn_ = txn;
  }

  /// Opens a span; returns its index, or -1 when disabled.
  int32_t Open(const char* name);
  void Close(int32_t index);

  /// Drops every recorded span (call with no span open).
  void Clear() {
    spans_.clear();
    open_.clear();
  }

  struct Time {
    int64_t self_ns = 0;   ///< Duration minus the time child spans cover.
    int64_t total_ns = 0;  ///< Duration.
    int64_t calls = 0;
  };
  /// Self and total time per span name, over spans of `phase`.
  std::map<std::string, Time> ByName(Phase phase) const;
  /// The same, folded by layer.
  std::map<std::string, Time> ByLayer(Phase phase) const;

  /// Durations (ms) of every span called `name`, in recording order.
  std::vector<double> DurationsMs(const std::string& name) const;

  /// Chrome trace_event JSON (Perfetto-loadable): one complete ("X") event
  /// per span, at most `max_events` of them, with the transaction ordinal,
  /// span index and parent index in `args`.
  std::string ChromeTraceJson(const std::string& workload, uint64_t seed,
                              size_t max_events) const;

 private:
  bool enabled_;
  Phase phase_ = Phase::kSetup;
  int32_t txn_ = -1;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// RAII span: opened on construction, closed on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer), index_(tracer->Open(name)) {}
  ~ScopedSpan() { tracer_->Close(index_); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int32_t index_;
};

}  // namespace e2e

#endif  // E2E_BENCH_TRACER_H_
