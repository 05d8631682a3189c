#ifndef AXMLX_COMMON_TRACE_H_
#define AXMLX_COMMON_TRACE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace axmlx {

/// Declared trace-event kinds. Every `kind` emitted into a Trace must come
/// from this table (lint rule R3): benches and tests assert on kind strings
/// (`CountKind("SEND")`), so an emitter inventing an off-table spelling
/// silently breaks those assertions instead of failing loudly.
inline constexpr char kEvSend[] = "SEND";
inline constexpr char kEvRecv[] = "RECV";
inline constexpr char kEvDrop[] = "DROP";
inline constexpr char kEvSendFail[] = "SEND_FAIL";
inline constexpr char kEvSendReject[] = "SEND_REJECT";
inline constexpr char kEvDisconnect[] = "DISCONNECT";
inline constexpr char kEvDisconnectRefused[] = "DISCONNECT_REFUSED";
inline constexpr char kEvReconnect[] = "RECONNECT";
inline constexpr char kEvCrash[] = "CRASH";
inline constexpr char kEvRestart[] = "RESTART";
inline constexpr char kEvFaultDrop[] = "FAULT_DROP";
inline constexpr char kEvFaultDup[] = "FAULT_DUP";
inline constexpr char kEvFaultMisroute[] = "FAULT_MISROUTE";
inline constexpr char kEvPingTimeout[] = "PING_TIMEOUT";
inline constexpr char kEvStreamSilence[] = "STREAM_SILENCE";
inline constexpr char kEvRefresh[] = "REFRESH";

/// A single protocol event. The recovery and disconnection benches assert
/// against (and print) these traces to reproduce the paper's Figure 1 and
/// Figure 2 narratives step by step.
struct TraceEvent {
  int64_t time = 0;        ///< Simulation time the event occurred at.
  std::string actor;       ///< Peer (or component) that produced the event.
  std::string kind;        ///< Short category, e.g. "SEND", "ABORT", "DETECT".
  std::string detail;      ///< Free-form description.
};

/// Append-only event trace shared by the simulator components. Not
/// thread-safe; the discrete-event simulator is single-threaded by design.
///
/// Storage is compact because a repository keeps its trace for its whole
/// life, about a hundred events per transaction: each event is a time plus
/// three indices into one table of distinct strings. Actors, kinds and most
/// details ("INVOKE -> P01") repeat from transaction to transaction, so the
/// table stays small while the event log grows by 24 bytes an event.
class Trace {
 public:
  void Add(int64_t time, std::string_view actor, std::string_view kind,
           std::string_view detail);

  /// The events in order, as owned copies.
  std::vector<TraceEvent> events() const;
  void Clear();

  /// Returns the number of events whose `kind` matches exactly.
  int CountKind(const std::string& kind) const;

  /// Renders the trace as one line per event, for example output and tests.
  std::string ToString() const;

  /// Renders message events (SEND kind "X -> P") as a Mermaid sequence
  /// diagram, for embedding protocol runs in documentation. Non-message
  /// events become participant notes. SEND details that do not follow the
  /// "X -> P" convention (or whose peer token is not a plain identifier) are
  /// skipped, and note labels are sanitized, so free-form details cannot
  /// corrupt the diagram syntax.
  std::string ToMermaid() const;

  /// Renders the trace as JSON Lines, one
  /// {"time":...,"actor":...,"kind":...,"detail":...} object per event.
  std::string ToJsonl() const;

 private:
  struct Event {
    int64_t time;
    uint32_t actor;
    uint32_t kind;
    uint32_t detail;
  };

  /// Index of `s` in strings_, adding it on first use.
  uint32_t Intern(std::string_view s);
  const std::string& Str(uint32_t index) const { return *strings_[index]; }

  std::vector<Event> events_;
  /// Distinct strings; the keys of symbol_index_ own them (node-based, so
  /// the pointers stay valid as the table grows).
  std::vector<const std::string*> strings_;
  std::unordered_map<std::string, uint32_t> symbol_index_;
  std::vector<int> kind_counts_;  ///< By string index; maintained by Add.
};

}  // namespace axmlx

#endif  // AXMLX_COMMON_TRACE_H_
