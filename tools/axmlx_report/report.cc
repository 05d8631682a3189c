#include "axmlx_report/report.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <sstream>

#include "obs/json.h"
#include "obs/timeline.h"

namespace axmlx::report {

namespace {

std::string GetString(const obs::JsonValue& obj, const std::string& key) {
  const obs::JsonValue* v = obj.Find(key);
  return v != nullptr && v->is_string() ? v->str : std::string();
}

int64_t GetInt(const obs::JsonValue& obj, const std::string& key,
               int64_t fallback) {
  const obs::JsonValue* v = obj.Find(key);
  return v != nullptr && v->is_number() ? v->AsInt() : fallback;
}

}  // namespace

bool ParseSpans(const std::string& jsonl, std::vector<SpanRow>* out,
                std::string* error) {
  std::istringstream in(jsonl);
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    std::string parse_error;
    auto doc = obs::ParseJson(line, &parse_error);
    if (!doc.has_value() || !doc->is_object()) {
      if (error != nullptr) {
        *error = "line " + std::to_string(line_no) + ": " +
                 (parse_error.empty() ? "not a JSON object" : parse_error);
      }
      return false;
    }
    SpanRow row;
    row.txn = GetString(*doc, "txn");
    row.span_id = static_cast<uint64_t>(GetInt(*doc, "span", 0));
    row.parent_span_id = static_cast<uint64_t>(GetInt(*doc, "parent", 0));
    row.peer = GetString(*doc, "peer");
    row.kind = GetString(*doc, "kind");
    row.detail = GetString(*doc, "detail");
    row.start = GetInt(*doc, "start", 0);
    row.end = GetInt(*doc, "end", -1);
    row.outcome = GetString(*doc, "outcome");
    row.fault = GetString(*doc, "fault");
    if (row.span_id == 0) {
      if (error != nullptr) {
        *error = "line " + std::to_string(line_no) + ": missing span id";
      }
      return false;
    }
    out->push_back(std::move(row));
  }
  return true;
}

namespace {

void RenderLine(std::ostringstream* os, const SpanRow& s, int depth) {
  for (int i = 0; i < depth; ++i) *os << "  ";
  *os << s.kind;
  if (!s.detail.empty()) *os << " " << s.detail;
  *os << " @" << s.peer << " [" << s.start << "..";
  if (s.end >= 0) {
    *os << s.end;
  } else {
    *os << "?";
  }
  *os << "] " << (s.outcome.empty() ? "OPEN" : s.outcome);
  if (!s.fault.empty()) *os << " fault=" << s.fault;
  *os << "\n";
}

void RenderTree(std::ostringstream* os,
                const std::map<uint64_t, std::vector<const SpanRow*>>& kids,
                const SpanRow& node, int depth) {
  RenderLine(os, node, depth);
  auto it = kids.find(node.span_id);
  if (it == kids.end()) return;
  for (const SpanRow* child : it->second) {
    RenderTree(os, kids, *child, depth + 1);
  }
}

/// The abort propagation path: the failure origin is the earliest-closing
/// aborted SERVICE span (its ancestors close later, as the abort travels up);
/// walking its parent chain retraces the paper's "Abort TA" cascade back to
/// the origin peer.
void RenderAbortPath(std::ostringstream* os,
                     const std::map<uint64_t, const SpanRow*>& by_id,
                     const std::vector<const SpanRow*>& txn_spans) {
  const SpanRow* origin_of_failure = nullptr;
  for (const SpanRow* s : txn_spans) {
    if (s->kind != "SERVICE" || s->outcome != "ABORTED" || s->end < 0) {
      continue;
    }
    if (origin_of_failure == nullptr || s->end < origin_of_failure->end ||
        (s->end == origin_of_failure->end &&
         s->span_id > origin_of_failure->span_id)) {
      origin_of_failure = s;
    }
  }
  if (origin_of_failure == nullptr) return;
  std::vector<const SpanRow*> path;
  const SpanRow* cur = origin_of_failure;
  while (cur != nullptr) {
    if (cur->kind == "SERVICE") path.push_back(cur);
    auto it = by_id.find(cur->parent_span_id);
    cur = it == by_id.end() ? nullptr : it->second;
  }
  *os << "abort path: ";
  for (size_t i = 0; i < path.size(); ++i) {
    if (i > 0) *os << " -> ";
    *os << path[i]->peer << "(" << path[i]->detail << ")";
  }
  if (!origin_of_failure->fault.empty()) {
    *os << "  [" << origin_of_failure->fault << "]";
  }
  *os << "\n";
}

}  // namespace

std::string RenderSpanReport(const std::vector<SpanRow>& spans) {
  std::ostringstream os;
  std::vector<std::string> txn_order;
  std::map<std::string, std::vector<const SpanRow*>> by_txn;
  for (const SpanRow& s : spans) {
    auto [it, inserted] = by_txn.try_emplace(s.txn);
    if (inserted) txn_order.push_back(s.txn);
    it->second.push_back(&s);
  }
  for (const std::string& txn : txn_order) {
    const std::vector<const SpanRow*>& txn_spans = by_txn[txn];
    os << "=== txn " << txn << "\n";
    std::map<uint64_t, const SpanRow*> by_id;
    for (const SpanRow* s : txn_spans) by_id[s->span_id] = s;
    std::map<uint64_t, std::vector<const SpanRow*>> kids;
    std::vector<const SpanRow*> roots;
    for (const SpanRow* s : txn_spans) {
      if (s->parent_span_id != 0 && by_id.count(s->parent_span_id) > 0) {
        kids[s->parent_span_id].push_back(s);
      } else {
        roots.push_back(s);
      }
    }
    auto by_start = [](const SpanRow* a, const SpanRow* b) {
      if (a->start != b->start) return a->start < b->start;
      return a->span_id < b->span_id;
    };
    for (auto& [parent, children] : kids) {
      std::sort(children.begin(), children.end(), by_start);
    }
    std::sort(roots.begin(), roots.end(), by_start);
    for (const SpanRow* root : roots) RenderTree(&os, kids, *root, 1);
    RenderAbortPath(&os, by_id, txn_spans);
  }

  std::map<std::string, int> by_kind;
  std::map<std::string, int> by_outcome;
  std::map<std::string, int> by_peer;
  for (const SpanRow& s : spans) {
    ++by_kind[s.kind];
    ++by_outcome[s.outcome.empty() ? "OPEN" : s.outcome];
    ++by_peer[s.peer];
  }
  os << "=== rollups\n";
  os << "by kind:";
  for (const auto& [k, n] : by_kind) os << " " << k << "=" << n;
  os << "\nby outcome:";
  for (const auto& [k, n] : by_outcome) os << " " << k << "=" << n;
  os << "\nby peer:";
  for (const auto& [k, n] : by_peer) os << " " << k << "=" << n;
  os << "\n";
  return os.str();
}

std::string RenderForensics(const std::string& json_text, std::string* out) {
  std::string parse_error;
  auto doc = obs::ParseJson(json_text, &parse_error);
  if (!doc.has_value()) return "invalid JSON: " + parse_error;
  if (!doc->is_object()) return "top level is not an object";
  if (GetString(*doc, "schema") != "axmlx-forensics-v1") {
    return "schema must be \"axmlx-forensics-v1\"";
  }
  const obs::JsonValue* events = doc->Find("events");
  if (events == nullptr || !events->is_array()) {
    return "missing array \"events\"";
  }
  const obs::JsonValue* spans_json = doc->Find("spans");
  if (spans_json == nullptr || !spans_json->is_array()) {
    return "missing array \"spans\"";
  }

  std::ostringstream os;
  os << "=== black box: " << GetString(*doc, "reason");
  const std::string focal_peer = GetString(*doc, "peer");
  const std::string focal_txn = GetString(*doc, "txn");
  if (!focal_peer.empty()) os << " peer=" << focal_peer;
  if (!focal_txn.empty()) os << " txn=" << focal_txn;
  os << " at t=" << GetInt(*doc, "time", -1) << "\n";
  const obs::JsonValue* peers = doc->Find("peers");
  if (peers != nullptr && peers->is_array()) {
    os << "involved:";
    for (const obs::JsonValue& p : peers->items) {
      if (p.is_string()) os << " " << p.str;
    }
    os << "\n";
  }

  // The merged timeline. Columns are sized to the dump so short peer names
  // do not waste width and long ones stay aligned.
  auto pad = [](std::string s, size_t w) {
    while (s.size() < w) s.push_back(' ');
    return s;
  };
  size_t peer_w = 4;
  size_t kind_w = 4;
  for (const obs::JsonValue& e : events->items) {
    if (!e.is_object()) return "event is not an object";
    peer_w = std::max(peer_w, GetString(e, "peer").size());
    kind_w = std::max(kind_w, GetString(e, "kind").size());
  }
  os << "=== timeline (" << events->items.size() << " events, last "
     << GetInt(*doc, "last_n", 0) << " per peer)\n";
  for (const obs::JsonValue& e : events->items) {
    os << "  t=" << pad(std::to_string(GetInt(e, "time", 0)), 6) << " "
       << pad(GetString(e, "peer"), peer_w) << " "
       << pad(GetString(e, "kind"), kind_w);
    const std::string what = GetString(e, "what");
    if (!what.empty()) os << " " << what;
    const int64_t span = GetInt(e, "span", 0);
    if (span != 0) os << "  span=" << span;
    const int64_t arg = GetInt(e, "arg", 0);
    if (arg != 0) os << " arg=" << arg;
    os << "\n";
  }

  // Span context: the dump's spans are the same objects ToJsonl emits, so
  // they render with the regular tree machinery.
  std::vector<SpanRow> rows;
  for (const obs::JsonValue& s : spans_json->items) {
    if (!s.is_object()) return "span is not an object";
    SpanRow row;
    row.txn = GetString(s, "txn");
    row.span_id = static_cast<uint64_t>(GetInt(s, "span", 0));
    row.parent_span_id = static_cast<uint64_t>(GetInt(s, "parent", 0));
    row.peer = GetString(s, "peer");
    row.kind = GetString(s, "kind");
    row.detail = GetString(s, "detail");
    row.start = GetInt(s, "start", 0);
    row.end = GetInt(s, "end", -1);
    row.outcome = GetString(s, "outcome");
    row.fault = GetString(s, "fault");
    if (row.span_id == 0) return "span missing span id";
    rows.push_back(std::move(row));
  }
  if (!rows.empty()) {
    os << "=== span context\n" << RenderSpanReport(rows);
  }
  *out += os.str();
  return std::string();
}

namespace {

std::string CheckHistogram(const std::string& name,
                           const obs::JsonValue& hist) {
  if (!hist.is_object()) return "histogram " + name + " is not an object";
  const obs::JsonValue* bounds = hist.Find("bounds");
  const obs::JsonValue* counts = hist.Find("counts");
  if (bounds == nullptr || !bounds->is_array()) {
    return "histogram " + name + " missing bounds array";
  }
  if (counts == nullptr || !counts->is_array()) {
    return "histogram " + name + " missing counts array";
  }
  if (counts->items.size() != bounds->items.size() + 1) {
    return "histogram " + name + " counts size must be bounds size + 1";
  }
  int64_t total = 0;
  for (const obs::JsonValue& c : counts->items) {
    if (!c.is_number()) return "histogram " + name + " has non-number count";
    total += c.AsInt();
  }
  for (const char* field :
       {"count", "sum", "min", "max", "p50", "p95", "p99"}) {
    const obs::JsonValue* v = hist.Find(field);
    if (v == nullptr || !v->is_number()) {
      return "histogram " + name + " missing number field " + field;
    }
  }
  if (total != hist.Find("count")->AsInt()) {
    return "histogram " + name + " bucket counts do not sum to count";
  }
  return std::string();
}

}  // namespace

std::string CheckBenchJson(const std::string& json_text) {
  std::string parse_error;
  auto doc = obs::ParseJson(json_text, &parse_error);
  if (!doc.has_value()) return "invalid JSON: " + parse_error;
  if (!doc->is_object()) return "top level is not an object";
  if (GetString(*doc, "schema") != "axmlx-bench-v1") {
    return "schema must be \"axmlx-bench-v1\"";
  }
  if (GetString(*doc, "bench").empty()) {
    return "missing non-empty \"bench\" name";
  }
  const obs::JsonValue* smoke = doc->Find("smoke");
  if (smoke == nullptr || !smoke->is_bool()) {
    return "missing boolean \"smoke\"";
  }
  const obs::JsonValue* ops = doc->Find("ops_per_sec");
  if (ops == nullptr || !ops->is_number() || ops->number < 0) {
    return "missing non-negative number \"ops_per_sec\"";
  }
  const obs::JsonValue* counters = doc->Find("counters");
  if (counters == nullptr || !counters->is_object()) {
    return "missing object \"counters\"";
  }
  for (const auto& [name, value] : counters->members) {
    if (!value.is_number()) return "counter " + name + " is not a number";
  }
  const obs::JsonValue* histograms = doc->Find("histograms");
  if (histograms == nullptr || !histograms->is_object()) {
    return "missing object \"histograms\"";
  }
  for (const auto& [name, hist] : histograms->members) {
    std::string problem = CheckHistogram(name, hist);
    if (!problem.empty()) return problem;
  }
  return std::string();
}

namespace {

std::string FmtDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.2f", v);
  return buf;
}

/// "+12.3%" / "-4.0%" / "n/a" when the old value is zero.
std::string FmtDeltaPct(double old_value, double new_value) {
  if (old_value == 0) return "n/a";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%+.1f%%",
                (new_value - old_value) / old_value * 100.0);
  return buf;
}

}  // namespace

std::string DiffBenchJson(const std::string& old_json,
                          const std::string& new_json, double regress_pct,
                          std::string* out, bool* regressed) {
  *regressed = false;
  std::string problem = CheckBenchJson(old_json);
  if (!problem.empty()) return "old report: " + problem;
  problem = CheckBenchJson(new_json);
  if (!problem.empty()) return "new report: " + problem;
  std::string parse_error;
  auto old_doc = obs::ParseJson(old_json, &parse_error);
  auto new_doc = obs::ParseJson(new_json, &parse_error);

  std::ostringstream os;
  const std::string old_name = GetString(*old_doc, "bench");
  const std::string new_name = GetString(*new_doc, "bench");
  os << "bench " << new_name;
  if (old_name != new_name) {
    os << " (WARNING: comparing against bench " << old_name << ")";
  }
  os << "\n";

  const double old_ops = old_doc->Find("ops_per_sec")->number;
  const double new_ops = new_doc->Find("ops_per_sec")->number;
  os << "  ops/sec: " << FmtDouble(old_ops) << " -> " << FmtDouble(new_ops)
     << " (" << FmtDeltaPct(old_ops, new_ops) << ")\n";

  const obs::JsonValue* old_hists = old_doc->Find("histograms");
  const obs::JsonValue* new_hists = new_doc->Find("histograms");
  for (const auto& [name, new_hist] : new_hists->members) {
    const obs::JsonValue* old_hist = old_hists->Find(name);
    if (old_hist == nullptr) {
      os << "  " << name << ": (new histogram, no old data)\n";
      continue;
    }
    os << "  " << name << ":";
    bool first_q = true;
    for (const char* q : {"p50", "p95", "p99"}) {
      const int64_t old_q = GetInt(*old_hist, q, 0);
      const int64_t new_q = GetInt(new_hist, q, 0);
      os << (first_q ? " " : ", ") << q << " " << old_q << " -> " << new_q
         << " ("
         << FmtDeltaPct(static_cast<double>(old_q),
                        static_cast<double>(new_q))
         << ")";
      first_q = false;
    }
    os << "\n";
  }
  for (const auto& [name, old_hist] : old_hists->members) {
    (void)old_hist;
    if (new_hists->Find(name) == nullptr) {
      os << "  " << name << ": (histogram dropped in new report)\n";
    }
  }

  if (regress_pct >= 0 && old_ops > 0 &&
      new_ops < old_ops * (1.0 - regress_pct / 100.0)) {
    *regressed = true;
    os << "  REGRESSION: ops/sec dropped more than " << FmtDouble(regress_pct)
       << "% vs the old report\n";
  }
  *out = os.str();
  return std::string();
}

// ---------------------------------------------------------------------------
// axmlx-trace-v1: validation, forensics conversion, critical path
// ---------------------------------------------------------------------------

namespace {

/// One pid-0 transaction track reassembled from trace slices.
struct TxnTrack {
  std::string txn;
  int64_t ts = 0;
  int64_t dur = 0;
  bool open = false;
  bool seen = false;  ///< A cat:"txn" slice claimed this tid.
  /// Phase slices on this tid, (ts, dur, phase-index) in document order.
  struct Slice {
    int64_t ts;
    int64_t dur;
    int phase;
  };
  std::vector<Slice> phases;
};

/// Parses `json_text` as axmlx-trace-v1 and reassembles the pid-0
/// transaction tracks plus the flow id sets. Shared by CheckTraceJson and
/// RenderCriticalPath so the two agree on what a well-formed trace is.
std::string ParseTrace(const std::string& json_text,
                       std::map<int64_t, TxnTrack>* tracks,
                       std::set<int64_t>* flow_starts,
                       std::vector<int64_t>* flow_finishes) {
  std::string parse_error;
  auto doc = obs::ParseJson(json_text, &parse_error);
  if (!doc.has_value()) return "invalid JSON: " + parse_error;
  if (!doc->is_object()) return "top level is not an object";
  if (GetString(*doc, "schema") != "axmlx-trace-v1") {
    return "schema must be \"axmlx-trace-v1\"";
  }
  const obs::JsonValue* events = doc->Find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    return "missing array \"traceEvents\"";
  }
  size_t index = 0;
  for (const obs::JsonValue& e : events->items) {
    ++index;
    const std::string at = "traceEvents[" + std::to_string(index - 1) + "]";
    if (!e.is_object()) return at + " is not an object";
    const std::string ph = GetString(e, "ph");
    if (ph.empty()) return at + " missing \"ph\"";
    if (ph == "s" || ph == "f") {
      const obs::JsonValue* id = e.Find("id");
      if (id == nullptr || !id->is_number()) {
        return at + " flow event missing number \"id\"";
      }
      if (ph == "s") {
        flow_starts->insert(id->AsInt());
      } else {
        flow_finishes->push_back(id->AsInt());
      }
      continue;
    }
    if (ph != "X" || GetInt(e, "pid", -1) != 0) continue;
    const obs::JsonValue* args = e.Find("args");
    const std::string cat = GetString(e, "cat");
    const int64_t tid = GetInt(e, "tid", -1);
    if (cat == "txn") {
      if (args == nullptr || !args->is_object()) {
        return at + " txn slice missing \"args\"";
      }
      TxnTrack& track = (*tracks)[tid];
      if (track.seen) {
        return at + " duplicate txn slice on tid " + std::to_string(tid);
      }
      track.seen = true;
      track.txn = GetString(*args, "txn");
      track.ts = GetInt(e, "ts", 0);
      track.dur = GetInt(e, "dur", 0);
      const obs::JsonValue* open = args->Find("open");
      track.open = open != nullptr && open->is_bool() && open->boolean;
    } else if (cat == "phase") {
      if (args == nullptr || !args->is_object()) {
        return at + " phase slice missing \"args\"";
      }
      const std::string phase = GetString(*args, "phase");
      const int phase_index = obs::PhaseIndex(phase);
      if (phase_index < 0) {
        return at + " names off-table phase \"" + phase + "\"";
      }
      (*tracks)[tid].phases.push_back(
          {GetInt(e, "ts", 0), GetInt(e, "dur", 0), phase_index});
    }
  }
  return std::string();
}

}  // namespace

std::string CheckTraceJson(const std::string& json_text) {
  std::map<int64_t, TxnTrack> tracks;
  std::set<int64_t> flow_starts;
  std::vector<int64_t> flow_finishes;
  std::string problem =
      ParseTrace(json_text, &tracks, &flow_starts, &flow_finishes);
  if (!problem.empty()) return problem;

  // Every flow arrow that lands somewhere must have taken off somewhere.
  // The converse is legal: dropped or undelivered copies leave the flow
  // dangling at its start.
  for (int64_t id : flow_finishes) {
    if (flow_starts.count(id) == 0) {
      return "flow finish id " + std::to_string(id) + " has no flow start";
    }
  }

  for (const auto& [tid, track] : tracks) {
    const std::string name =
        "txn " + (track.txn.empty() ? "tid " + std::to_string(tid)
                                    : track.txn);
    if (!track.seen) {
      return name + " has phase slices but no txn slice";
    }
    if (track.open) continue;  // Open windows are truncated, not partitioned.
    // The partition invariant: phase slices are contiguous from the window
    // begin to its end, so their widths sum to the end-to-end duration.
    int64_t cursor = track.ts;
    int64_t total = 0;
    for (const TxnTrack::Slice& s : track.phases) {
      if (s.ts != cursor) {
        return name + " phase slices leave a gap at t=" +
               std::to_string(cursor);
      }
      if (s.dur <= 0) {
        return name + " has a non-positive-width phase slice";
      }
      cursor = s.ts + s.dur;
      total += s.dur;
    }
    if (cursor != track.ts + track.dur || total != track.dur) {
      return name + " phase slices do not partition the window (" +
             std::to_string(total) + " of " + std::to_string(track.dur) +
             " ticks covered)";
    }
  }
  return std::string();
}

std::string CheckReportJson(const std::string& json_text) {
  std::string parse_error;
  auto doc = obs::ParseJson(json_text, &parse_error);
  if (!doc.has_value()) return "invalid JSON: " + parse_error;
  if (!doc->is_object()) return "top level is not an object";
  const std::string schema = GetString(*doc, "schema");
  if (schema == "axmlx-bench-v1") return CheckBenchJson(json_text);
  if (schema == "axmlx-trace-v1") return CheckTraceJson(json_text);
  return "unknown schema \"" + schema + "\"";
}

namespace {

/// Emitters mirroring obs::BuildTraceJson's event shapes, local to the
/// forensics conversion (the library builder works from live objects; this
/// one from a parsed dump).
void TraceMeta(std::ostringstream* os, bool* first, int64_t pid, int64_t tid,
               const char* kind, const std::string& name) {
  if (!*first) *os << ",";
  *first = false;
  *os << "{\"ph\":\"M\",\"pid\":" << pid << ",\"tid\":" << tid
      << ",\"name\":\"" << kind << "\",\"args\":{\"name\":\""
      << obs::JsonEscape(name) << "\"}}";
}

}  // namespace

std::string ForensicsToTrace(const std::string& forensics_json,
                             std::string* trace_out) {
  std::string parse_error;
  auto doc = obs::ParseJson(forensics_json, &parse_error);
  if (!doc.has_value()) return "invalid JSON: " + parse_error;
  if (!doc->is_object()) return "top level is not an object";
  if (GetString(*doc, "schema") != "axmlx-forensics-v1") {
    return "schema must be \"axmlx-forensics-v1\"";
  }
  const obs::JsonValue* events = doc->Find("events");
  if (events == nullptr || !events->is_array()) {
    return "missing array \"events\"";
  }
  const obs::JsonValue* spans = doc->Find("spans");
  if (spans == nullptr || !spans->is_array()) {
    return "missing array \"spans\"";
  }

  // Peer processes: union of event peers and span peers, sorted; pid 1+
  // (pid 0 stays reserved for the transactions process, absent here — the
  // dump carries no timeline).
  std::map<std::string, int64_t> pid_of;
  for (const obs::JsonValue& e : events->items) {
    if (!e.is_object()) return "event is not an object";
    pid_of.emplace(GetString(e, "peer"), 0);
  }
  for (const obs::JsonValue& s : spans->items) {
    if (!s.is_object()) return "span is not an object";
    pid_of.emplace(GetString(s, "peer"), 0);
  }
  int64_t next_pid = 1;
  for (auto& [peer, pid] : pid_of) pid = next_pid++;

  std::ostringstream os;
  os << "{\"schema\":\"axmlx-trace-v1\",\"displayTimeUnit\":\"ms\","
     << "\"traceEvents\":[";
  bool first = true;
  for (const auto& [peer, pid] : pid_of) {
    TraceMeta(&os, &first, pid, 0, "process_name", peer);
    TraceMeta(&os, &first, pid, 1, "thread_name", "events");
    TraceMeta(&os, &first, pid, 2, "thread_name", "spans");
  }

  // The dump's merged timeline is already in (time, seq) order; keep it.
  for (const obs::JsonValue& e : events->items) {
    const int64_t pid = pid_of.at(GetString(e, "peer"));
    const int64_t time = GetInt(e, "time", 0);
    const std::string kind = GetString(e, "kind");
    if (!first) os << ",";
    first = false;
    os << "{\"ph\":\"X\",\"pid\":" << pid << ",\"tid\":1,\"ts\":" << time
       << ",\"dur\":0,\"name\":\"" << obs::JsonEscape(kind)
       << "\",\"cat\":\"fr\",\"args\":{\"what\":\""
       << obs::JsonEscape(GetString(e, "what"))
       << "\",\"span\":" << GetInt(e, "span", 0)
       << ",\"arg\":" << GetInt(e, "arg", 0) << "}}";
    if (kind == "MSG_SEND" || kind == "MSG_RECV") {
      os << ",{\"ph\":\"" << (kind == "MSG_SEND" ? 's' : 'f')
         << "\",\"pid\":" << pid << ",\"tid\":1,\"ts\":" << time
         << ",\"id\":" << GetInt(e, "arg", 0)
         << ",\"name\":\"msg\",\"cat\":\"overlay\"";
      if (kind == "MSG_RECV") os << ",\"bp\":\"e\"";
      os << "}";
    }
  }

  for (const obs::JsonValue& s : spans->items) {
    const int64_t pid = pid_of.at(GetString(s, "peer"));
    const int64_t end = GetInt(s, "end", -1);
    const int64_t start = GetInt(s, "start", 0);
    std::string name = GetString(s, "kind");
    const std::string detail = GetString(s, "detail");
    if (!detail.empty()) name += " " + detail;
    if (!first) os << ",";
    first = false;
    os << "{\"ph\":\"X\",\"pid\":" << pid << ",\"tid\":2,\"ts\":" << start
       << ",\"dur\":" << (end >= 0 ? end - start : 0) << ",\"name\":\""
       << obs::JsonEscape(name) << "\",\"cat\":\"span\",\"args\":{\"txn\":\""
       << obs::JsonEscape(GetString(s, "txn"))
       << "\",\"span\":" << GetInt(s, "span", 0)
       << ",\"parent\":" << GetInt(s, "parent", 0) << ",\"outcome\":\""
       << obs::JsonEscape(end >= 0 ? GetString(s, "outcome") : "OPEN")
       << "\"}}";
  }

  os << "]}\n";
  *trace_out += os.str();
  return std::string();
}

std::string RenderCriticalPath(const std::string& trace_json,
                               std::string* out) {
  std::map<int64_t, TxnTrack> tracks;
  std::set<int64_t> flow_starts;
  std::vector<int64_t> flow_finishes;
  std::string problem =
      ParseTrace(trace_json, &tracks, &flow_starts, &flow_finishes);
  if (!problem.empty()) return problem;

  struct TxnSummary {
    const TxnTrack* track;
    int64_t total = 0;
    int64_t phase_ticks[obs::kPhaseCount] = {};
    int dominant = obs::kPhaseCount - 1;
  };
  std::vector<TxnSummary> closed;
  size_t open_count = 0;
  for (const auto& [tid, track] : tracks) {
    if (!track.seen) continue;
    if (track.open) {
      ++open_count;
      continue;
    }
    TxnSummary sum;
    sum.track = &track;
    sum.total = track.dur;
    for (const TxnTrack::Slice& s : track.phases) {
      sum.phase_ticks[s.phase] += s.dur;
    }
    // Dominant = the phase holding the most ticks; ties go to the higher-
    // priority phase (lower table index), matching the attribution rule.
    for (int i = 0; i < obs::kPhaseCount; ++i) {
      if (sum.phase_ticks[i] > sum.phase_ticks[sum.dominant]) {
        sum.dominant = i;
      }
    }
    for (int i = 0; i < obs::kPhaseCount; ++i) {
      if (sum.phase_ticks[i] == sum.phase_ticks[sum.dominant] &&
          i < sum.dominant) {
        sum.dominant = i;
      }
    }
    closed.push_back(sum);
  }

  std::ostringstream os;
  os << "=== critical path (" << closed.size() << " closed txns";
  if (open_count > 0) os << ", " << open_count << " open skipped";
  os << ")\n";
  if (closed.empty()) {
    *out += os.str();
    return std::string();
  }

  auto pct = [](int64_t part, int64_t whole) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%5.1f%%",
                  whole > 0 ? 100.0 * static_cast<double>(part) /
                                  static_cast<double>(whole)
                            : 0.0);
    return std::string(buf);
  };
  auto pad = [](std::string s, size_t w) {
    while (s.size() < w) s.push_back(' ');
    return s;
  };

  // Worst K transactions by end-to-end latency; stable under equal totals
  // (document order breaks ties) so the table is deterministic per seed.
  std::vector<const TxnSummary*> worst;
  for (const TxnSummary& s : closed) worst.push_back(&s);
  std::stable_sort(worst.begin(), worst.end(),
                   [](const TxnSummary* a, const TxnSummary* b) {
                     return a->total > b->total;
                   });
  constexpr size_t kWorst = 10;
  if (worst.size() > kWorst) worst.resize(kWorst);
  size_t txn_w = 3;
  for (const TxnSummary* s : worst) {
    txn_w = std::max(txn_w, s->track->txn.size());
  }
  os << "worst " << worst.size() << " by end-to-end latency:\n";
  os << "  " << pad("txn", txn_w) << "  total  dominant        ticks  share\n";
  for (const TxnSummary* s : worst) {
    const char* phase = obs::PhaseTable()[s->dominant];
    os << "  " << pad(s->track->txn, txn_w) << "  "
       << pad(std::to_string(s->total), 5) << "  " << pad(phase, 14) << "  "
       << pad(std::to_string(s->phase_ticks[s->dominant]), 5) << "  "
       << pct(s->phase_ticks[s->dominant], s->total) << "\n";
  }

  // The dominator table: how often each phase is the critical one, and how
  // the total ticks split across phases over every closed transaction.
  int64_t dominated[obs::kPhaseCount] = {};
  int64_t ticks[obs::kPhaseCount] = {};
  int64_t grand_total = 0;
  for (const TxnSummary& s : closed) {
    ++dominated[s.dominant];
    grand_total += s.total;
    for (int i = 0; i < obs::kPhaseCount; ++i) {
      ticks[i] += s.phase_ticks[i];
    }
  }
  os << "dominator table:\n";
  os << "  phase           txns  dominated  ticks   share\n";
  for (int i = 0; i < obs::kPhaseCount; ++i) {
    if (dominated[i] == 0 && ticks[i] == 0) continue;
    os << "  " << pad(obs::PhaseTable()[i], 14) << "  "
       << pad(std::to_string(dominated[i]), 4) << "  "
       << pct(dominated[i], static_cast<int64_t>(closed.size())) << "     "
       << pad(std::to_string(ticks[i]), 6) << " " << pct(ticks[i], grand_total)
       << "\n";
  }
  os << "total: " << closed.size() << " txns, " << grand_total
     << " ticks end-to-end\n";
  *out += os.str();
  return std::string();
}

}  // namespace axmlx::report
