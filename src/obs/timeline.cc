#include "obs/timeline.h"

#include <algorithm>
#include <cstring>

#include "obs/flight_recorder.h"
#include "obs/json.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace axmlx::obs {

namespace {

const char* const kPhases[kPhaseCount] = {
    kPhaseRecovery, kPhaseCompensation, kPhaseWalAppend, kPhaseFlushWait,
    kPhaseEval,     kPhaseNetInflight,  kPhaseQueueWait,
};

const char* const kPhaseMetrics[kPhaseCount] = {
    kMetricTxnLatencyRecovery,    kMetricTxnLatencyCompensation,
    kMetricTxnLatencyWalAppend,   kMetricTxnLatencyFlushWait,
    kMetricTxnLatencyEval,        kMetricTxnLatencyNetInflight,
    kMetricTxnLatencyQueueWait,
};

}  // namespace

const char* const* PhaseTable() { return kPhases; }

int PhaseIndex(const char* phase) {
  for (int i = 0; i < kPhaseCount; ++i) {
    // Pointer equality first: call sites pass the table constants.
    if (kPhases[i] == phase || std::strcmp(kPhases[i], phase) == 0) return i;
  }
  return -1;
}

int PhaseIndex(const std::string& phase) { return PhaseIndex(phase.c_str()); }

const char* PhaseMetricName(int i) {
  return i >= 0 && i < kPhaseCount ? kPhaseMetrics[i] : "";
}

std::vector<int64_t> PhaseLatencyBuckets() {
  // ~1.5x log-spaced. The old 1-2-5 decade grid was coarse enough that
  // typical phase medians sat in buckets spanning 2-2.5x, so reported
  // quantiles clustered near a handful of bounds; the denser grid keeps
  // the in-bucket interpolation error under ~25% everywhere.
  return {1,  2,  3,  4,   6,   9,   13,  19,   28,   42,   63,
          95, 140, 210, 320, 480, 720, 1080, 1600, 2400, 3600, 5400};
}

void Timeline::AttachMetrics(MetricsRegistry* metrics) {
  metrics_ = metrics;
  if (metrics_ == nullptr) {
    for (int i = 0; i < kPhaseCount; ++i) phase_hist_[i] = nullptr;
    total_hist_ = nullptr;
    return;
  }
  for (int i = 0; i < kPhaseCount; ++i) {
    phase_hist_[i] = metrics_->GetHistogram(kPhaseMetrics[i],
                                            PhaseLatencyBuckets());
  }
  total_hist_ =
      metrics_->GetHistogram(kMetricTxnLatencyTotal, PhaseLatencyBuckets());
}

void Timeline::BeginTxn(const std::string& txn, int64_t now) {
  if (open_.count(txn) > 0) EndTxn(txn, now);
  OpenTxn open;
  open.index = txns_.size();
  open.segment_start = now;
  txns_.push_back({});
  txns_.back().txn = txn;
  txns_.back().begin = now;
  open_.emplace(txn, open);
}

void Timeline::Reattribute(OpenTxn* open, int64_t now, bool force) {
  int winner = kPhaseCount - 1;  // QUEUE_WAIT unless something claims.
  for (int i = 0; i < kPhaseCount; ++i) {
    if (open->claims[i] > 0) {
      winner = i;
      break;
    }
  }
  if (winner == open->attributed && !force) return;
  TxnTimeline& rec = txns_[open->index];
  if (now > open->segment_start) {
    rec.segments.push_back({kPhases[open->attributed], open->segment_start,
                            now});
    rec.phase_ticks[open->attributed] += now - open->segment_start;
    open->segment_start = now;
  }
  open->attributed = winner;
}

void Timeline::Enter(const std::string& txn, const char* phase, int64_t now) {
  auto it = open_.find(txn);
  if (it == open_.end()) return;
  const int index = PhaseIndex(phase);
  if (index < 0) return;
  ++it->second.claims[index];
  Reattribute(&it->second, now, /*force=*/false);
}

void Timeline::Exit(const std::string& txn, const char* phase, int64_t now) {
  auto it = open_.find(txn);
  if (it == open_.end()) return;
  const int index = PhaseIndex(phase);
  if (index < 0 || it->second.claims[index] == 0) return;
  --it->second.claims[index];
  Reattribute(&it->second, now, /*force=*/false);
}

void Timeline::Mark(const std::string& txn, const char* phase, int64_t now) {
  auto it = open_.find(txn);
  if (it == open_.end()) return;
  // Enter would make `phase` the winner only if it outranks the attributed
  // phase, closing the segment at `now`; Exit at the same instant hands
  // the attribution straight back. Otherwise neither changes anything.
  const int index = PhaseIndex(phase);
  if (index >= 0 && index < it->second.attributed) {
    Reattribute(&it->second, now, /*force=*/true);
  }
}

void Timeline::EndTxn(const std::string& txn, int64_t now) {
  auto it = open_.find(txn);
  if (it == open_.end()) return;
  OpenTxn& open = it->second;
  Reattribute(&open, now, /*force=*/true);
  TxnTimeline& rec = txns_[open.index];
  rec.end = now;
  if (total_hist_ != nullptr) {
    for (int i = 0; i < kPhaseCount; ++i) {
      phase_hist_[i]->Observe(rec.phase_ticks[i]);
    }
    total_hist_->Observe(rec.end - rec.begin);
  }
  open_.erase(it);
}

const TxnTimeline* Timeline::Find(const std::string& txn) const {
  for (size_t i = txns_.size(); i > 0; --i) {
    if (txns_[i - 1].txn == txn) return &txns_[i - 1];
  }
  return nullptr;
}

void Timeline::Clear() {
  open_.clear();
  txns_.clear();
}

// ---------------------------------------------------------------------------
// axmlx-trace-v1 export
// ---------------------------------------------------------------------------

namespace {

void AppendInt(std::string* out, int64_t v) { *out += std::to_string(v); }

/// {"ph":"M","pid":P,"tid":T,"name":"<kind>","args":{"name":"<name>"}}
void AppendMeta(std::string* out, int64_t pid, int64_t tid, const char* kind,
                const std::string& name) {
  *out += "{\"ph\":\"M\",\"pid\":";
  AppendInt(out, pid);
  *out += ",\"tid\":";
  AppendInt(out, tid);
  *out += ",\"name\":\"";
  *out += kind;
  *out += "\",\"args\":{\"name\":\"" + JsonEscape(name) + "\"}}";
}

/// Opens {"ph":"X",...,"args":{ — caller appends args pairs and "}}"
void AppendSliceHead(std::string* out, int64_t pid, int64_t tid, int64_t ts,
                     int64_t dur, const std::string& name, const char* cat) {
  *out += "{\"ph\":\"X\",\"pid\":";
  AppendInt(out, pid);
  *out += ",\"tid\":";
  AppendInt(out, tid);
  *out += ",\"ts\":";
  AppendInt(out, ts);
  *out += ",\"dur\":";
  AppendInt(out, dur);
  *out += ",\"name\":\"" + JsonEscape(name) + "\",\"cat\":\"";
  *out += cat;
  *out += "\",\"args\":{";
}

/// Flow begin ("s") or finish ("f", binding-point "e") event.
void AppendFlow(std::string* out, char ph, int64_t pid, int64_t tid,
                int64_t ts, int64_t id) {
  *out += "{\"ph\":\"";
  *out += ph;
  *out += "\",\"pid\":";
  AppendInt(out, pid);
  *out += ",\"tid\":";
  AppendInt(out, tid);
  *out += ",\"ts\":";
  AppendInt(out, ts);
  *out += ",\"id\":";
  AppendInt(out, id);
  *out += ",\"name\":\"msg\",\"cat\":\"overlay\"";
  if (ph == 'f') *out += ",\"bp\":\"e\"";
  *out += "}";
}

void Comma(std::string* out, bool* first) {
  if (!*first) *out += ",";
  *first = false;
}

}  // namespace

std::string BuildTraceJson(const FlightRecorderSet* recorders,
                           const SpanTracker* spans,
                           const Timeline* timeline) {
  // Peer processes: union of recorder peers and span peers, sorted (pid is
  // 1 + rank; pid 0 is the synthetic transactions process).
  std::map<std::string, int64_t> pid_of;
  if (recorders != nullptr) {
    for (const auto& [peer, recorder] : recorders->recorders()) {
      pid_of.emplace(peer, 0);
    }
  }
  if (spans != nullptr) {
    for (const SpanRecord& s : spans->spans()) pid_of.emplace(s.peer, 0);
  }
  int64_t next_pid = 1;
  for (auto& [peer, pid] : pid_of) pid = next_pid++;

  std::string out = "{\"schema\":\"axmlx-trace-v1\",\"displayTimeUnit\":"
                    "\"ms\",\"traceEvents\":[";
  bool first = true;

  // --- Metadata: track names ---
  if (timeline != nullptr && !timeline->txns().empty()) {
    Comma(&out, &first);
    AppendMeta(&out, 0, 0, "process_name", "transactions");
    for (size_t i = 0; i < timeline->txns().size(); ++i) {
      Comma(&out, &first);
      AppendMeta(&out, 0, static_cast<int64_t>(i) + 1, "thread_name",
                 timeline->txns()[i].txn);
    }
  }
  for (const auto& [peer, pid] : pid_of) {
    Comma(&out, &first);
    AppendMeta(&out, pid, 0, "process_name", peer);
    Comma(&out, &first);
    AppendMeta(&out, pid, 1, "thread_name", "events");
    Comma(&out, &first);
    AppendMeta(&out, pid, 2, "thread_name", "spans");
  }

  // --- Transaction phase slices (pid 0, one thread per transaction) ---
  if (timeline != nullptr) {
    for (size_t i = 0; i < timeline->txns().size(); ++i) {
      const TxnTimeline& rec = timeline->txns()[i];
      const int64_t tid = static_cast<int64_t>(i) + 1;
      int64_t end = rec.end;
      if (end < 0) {  // still open: truncate at the last attributed edge
        end = rec.begin;
        if (!rec.segments.empty()) end = rec.segments.back().end;
      }
      Comma(&out, &first);
      AppendSliceHead(&out, 0, tid, rec.begin, end - rec.begin, rec.txn,
                      "txn");
      out += "\"txn\":\"" + JsonEscape(rec.txn) + "\",\"open\":";
      out += rec.end < 0 ? "true" : "false";
      out += "}}";
      for (const PhaseSegment& seg : rec.segments) {
        Comma(&out, &first);
        AppendSliceHead(&out, 0, tid, seg.start, seg.end - seg.start,
                        seg.phase, "phase");
        out += "\"txn\":\"" + JsonEscape(rec.txn) + "\",\"phase\":\"";
        out += seg.phase;
        out += "\"}}";
      }
    }
  }

  // --- Flight events, merged across peers in (time, seq) order ---
  if (recorders != nullptr) {
    struct Entry {
      const FlightEvent* event;
      const std::string* peer;
    };
    std::vector<Entry> merged;
    for (const auto& [peer, recorder] : recorders->recorders()) {
      for (size_t i = 0; i < recorder.size(); ++i) {
        merged.push_back({&recorder.At(i), &peer});
      }
    }
    std::sort(merged.begin(), merged.end(), [](const Entry& a,
                                               const Entry& b) {
      return std::tie(a.event->time, a.event->seq) <
             std::tie(b.event->time, b.event->seq);
    });
    for (const Entry& e : merged) {
      const int64_t pid = pid_of.at(*e.peer);
      Comma(&out, &first);
      AppendSliceHead(&out, pid, 1, e.event->time, 0, e.event->kind, "fr");
      out += "\"what\":\"" + JsonEscape(e.event->what) + "\",\"span\":";
      AppendInt(&out, static_cast<int64_t>(e.event->span));
      out += ",\"arg\":";
      AppendInt(&out, e.event->arg);
      out += "}}";
      // Overlay flow arrows: every send opens a flow keyed by the message
      // id (the recorder's arg); every receive finishes one. Dropped or
      // unreceived copies leave the flow dangling, which is legal.
      if (e.event->kind == kEvFrMsgSend ||
          std::strcmp(e.event->kind, kEvFrMsgSend) == 0) {
        Comma(&out, &first);
        AppendFlow(&out, 's', pid, 1, e.event->time, e.event->arg);
      } else if (e.event->kind == kEvFrMsgRecv ||
                 std::strcmp(e.event->kind, kEvFrMsgRecv) == 0) {
        Comma(&out, &first);
        AppendFlow(&out, 'f', pid, 1, e.event->time, e.event->arg);
      }
    }
  }

  // --- Spans (per-peer thread 2) ---
  if (spans != nullptr) {
    for (const SpanRecord& s : spans->spans()) {
      const int64_t pid = pid_of.at(s.peer);
      const int64_t dur = s.end >= 0 ? s.end - s.start : 0;
      Comma(&out, &first);
      AppendSliceHead(&out, pid, 2, s.start, dur,
                      s.kind + (s.detail.empty() ? "" : " " + s.detail),
                      "span");
      out += "\"txn\":\"" + JsonEscape(s.txn) + "\",\"span\":";
      AppendInt(&out, static_cast<int64_t>(s.span_id));
      out += ",\"parent\":";
      AppendInt(&out, static_cast<int64_t>(s.parent_span_id));
      out += ",\"outcome\":\"" +
             JsonEscape(s.end >= 0 ? s.outcome : "OPEN") + "\"}}";
    }
  }

  out += "]}\n";
  return out;
}

}  // namespace axmlx::obs
