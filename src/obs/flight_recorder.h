#ifndef AXMLX_OBS_FLIGHT_RECORDER_H_
#define AXMLX_OBS_FLIGHT_RECORDER_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace axmlx::obs {

class SpanTracker;

/// Declared flight-recorder event kinds. Every `kind` passed to
/// FlightRecorder::Record must come from this table (lint rule R3, same
/// contract as the kEv* trace kinds and the kSpan* span kinds): forensic
/// dumps and the `axmlx_report --forensics` timeline group by these strings,
/// so an emitter inventing an off-table spelling silently falls out of the
/// rendered black box. The free-form `what` argument is lowercase by
/// convention, which keeps it visually distinct from kinds (and out of the
/// linter's ALL_CAPS literal check).
inline constexpr char kEvFrMsgSend[] = "MSG_SEND";
inline constexpr char kEvFrMsgRecv[] = "MSG_RECV";
inline constexpr char kEvFrMsgDrop[] = "MSG_DROP";
inline constexpr char kEvFrTxnState[] = "TXN_STATE";
inline constexpr char kEvFrWalAppend[] = "WAL_APPEND";
inline constexpr char kEvFrWalFlush[] = "WAL_FLUSH";
inline constexpr char kEvFrCheckpoint[] = "WAL_CHECKPOINT";
inline constexpr char kEvFrOpExec[] = "OP_EXEC";
inline constexpr char kEvFrCompStep[] = "COMP_STEP";
inline constexpr char kEvFrFault[] = "FAULT_INJECT";
inline constexpr char kEvFrSpanOpen[] = "SPAN_OPEN";
inline constexpr char kEvFrSpanClose[] = "SPAN_CLOSE";
inline constexpr char kEvFrCrash[] = "CRASH";
inline constexpr char kEvFrRestart[] = "RESTART";
inline constexpr char kEvFrRecovery[] = "RECOVERY";

/// One fixed-size flight-recorder record. `kind` points into the kEvFr*
/// table (never owned); `what` is a truncating copy of the free-form detail,
/// so appending an event never allocates.
struct FlightEvent {
  int64_t time = 0;   ///< Simulation time (from the shared clock or SetTime).
  uint64_t seq = 0;   ///< Global order among all recorders of one set.
  uint64_t span = 0;  ///< Correlated span id; 0 = none.
  int64_t arg = 0;    ///< Kind-specific integer (batch size, node count, ...).
  const char* kind = "";  ///< One of the kEvFr* table.
  char what[40] = {};     ///< Truncated lowercase detail, NUL-terminated.
};

/// Per-peer bounded ring buffer of FlightEvents: the always-on black box.
///
/// The ring is preallocated in the constructor; Record() overwrites the
/// oldest slot in place, so steady-state appends perform zero heap
/// allocation — cheap enough to stay enabled on the storage/query hot paths
/// (bench_obs_overhead enforces the budget). Events are stamped with the
/// shared clock of the owning FlightRecorderSet when there is one, else
/// with the last SetTime() value; `seq` gives a deterministic total order
/// for merging the tails of several peers into one timeline.
class FlightRecorder {
 public:
  static constexpr size_t kDefaultCapacity = 256;

  /// `shared_seq`/`clock` (optional, not owned) are supplied by
  /// FlightRecorderSet so all recorders of one repository share a sequence
  /// counter and a simulation clock; standalone recorders use local ones.
  explicit FlightRecorder(size_t capacity = kDefaultCapacity,
                          uint64_t* shared_seq = nullptr,
                          const int64_t* clock = nullptr);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Appends one event. `kind` must be a kEvFr* table constant (the pointer
  /// is stored, not copied); `what` is truncated into the fixed-size slot.
  void Record(const char* kind, std::string_view what = {}, uint64_t span = 0,
              int64_t arg = 0);

  /// Clock for recorders without a set-shared clock (no-op otherwise).
  void SetTime(int64_t time) { time_ = time; }
  int64_t time() const { return clock_ != nullptr ? *clock_ : time_; }

  size_t capacity() const { return ring_.size(); }
  /// Events ever recorded (>= size(); the difference was overwritten).
  uint64_t total() const { return total_; }
  /// Events currently retained.
  size_t size() const;

  /// The i-th retained event, oldest first (i < size()).
  const FlightEvent& At(size_t i) const;

  void Clear();

 private:
  std::vector<FlightEvent> ring_;
  uint64_t total_ = 0;
  int64_t time_ = 0;
  uint64_t* shared_seq_;
  uint64_t local_seq_ = 0;
  const int64_t* clock_;
};

/// One FlightRecorder per peer, sharing a sequence counter and a simulation
/// clock so that their tails merge into one deterministic cross-peer
/// timeline. Recorder pointers are stable for the set's lifetime
/// (node-based storage), so components cache them once.
class FlightRecorderSet {
 public:
  explicit FlightRecorderSet(
      size_t capacity_per_peer = FlightRecorder::kDefaultCapacity)
      : capacity_(capacity_per_peer) {}

  FlightRecorderSet(const FlightRecorderSet&) = delete;
  FlightRecorderSet& operator=(const FlightRecorderSet&) = delete;

  /// The recorder for `peer`, created on first use.
  FlightRecorder* ForPeer(const std::string& peer);

  /// Advances the shared clock all member recorders stamp events with.
  void SetNow(int64_t now) { now_ = now; }
  int64_t now() const { return now_; }

  const std::map<std::string, FlightRecorder>& recorders() const {
    return recorders_;
  }

 private:
  size_t capacity_;
  int64_t now_ = 0;
  uint64_t next_seq_ = 0;
  std::map<std::string, FlightRecorder> recorders_;
};

/// What triggered a forensic dump, and what to focus it on.
struct ForensicDumpOptions {
  std::string reason;  ///< "crash", "abort-cascade", "atomicity-violation".
  std::string peer;    ///< Focal peer; empty = none.
  std::string txn;     ///< Focal transaction; empty = none.
  int64_t time = -1;   ///< Failure time; -1 = unknown.
  size_t last_n = 64;  ///< Tail length taken from each involved peer.
};

/// Builds the "axmlx-forensics-v1" black-box JSON artifact: the last-N
/// events of every involved peer merged into one (time, seq)-ordered
/// timeline, plus span context. Involved peers are those that appear in
/// `options.txn`'s spans when a focal transaction is given (the abort
/// cascade's participants), else every peer with a recorder. Included spans
/// are the focal transaction's, else all still-open ones. The output is a
/// pure function of recorder/span state, so equal seeds produce
/// byte-identical dumps. `spans` may be null.
std::string BuildForensicDump(const FlightRecorderSet& recorders,
                              const ForensicDumpOptions& options,
                              const SpanTracker* spans);

}  // namespace axmlx::obs

#endif  // AXMLX_OBS_FLIGHT_RECORDER_H_
