#include "obs/span.h"

#include <sstream>

#include "obs/flight_recorder.h"
#include "obs/json.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"

namespace axmlx::obs {

void SpanTracker::AttachMetrics(MetricsRegistry* metrics) {
  close_unknown_ =
      metrics != nullptr ? metrics->GetCounter(kMetricObsSpansCloseUnknown)
                         : nullptr;
}

uint32_t SpanTracker::Intern(const std::string& s) {
  auto [it, inserted] = symbol_index_.try_emplace(
      s, static_cast<uint32_t>(strings_.size()));
  if (inserted) strings_.push_back(&it->first);
  return it->second;
}

uint64_t SpanTracker::OpenSpan(const std::string& txn, const std::string& peer,
                               const std::string& kind,
                               uint64_t parent_span_id, int64_t start,
                               const std::string& detail) {
  const uint32_t empty = Intern(std::string());
  spans_.push_back({parent_span_id, start, /*end=*/-1, Intern(txn),
                    Intern(peer), Intern(kind), Intern(detail), empty, empty});
  const uint64_t span_id = spans_.size();
  if (recorders_ != nullptr) {
    recorders_->ForPeer(peer)->Record(kEvFrSpanOpen, kind, span_id,
                                      static_cast<int64_t>(parent_span_id));
  }
  return span_id;
}

void SpanTracker::CloseSpan(uint64_t span_id, int64_t end,
                            const std::string& outcome,
                            const std::string& fault) {
  if (span_id == 0 || span_id > spans_.size() ||
      spans_[span_id - 1].end >= 0) {  // unknown, or already closed
    if (close_unknown_ != nullptr) ++*close_unknown_;
    return;
  }
  Span& span = spans_[span_id - 1];
  span.end = end;
  span.outcome = Intern(outcome);
  span.fault = Intern(fault);
  if (recorders_ != nullptr) {
    recorders_->ForPeer(Str(span.peer))
        ->Record(kEvFrSpanClose, outcome, span_id);
  }
}

SpanRecord SpanTracker::ToRecord(size_t index) const {
  const Span& span = spans_[index];
  SpanRecord rec;
  rec.txn = Str(span.txn);
  rec.span_id = index + 1;
  rec.parent_span_id = span.parent_span_id;
  rec.peer = Str(span.peer);
  rec.kind = Str(span.kind);
  rec.detail = Str(span.detail);
  rec.start = span.start;
  rec.end = span.end;
  rec.outcome = Str(span.outcome);
  rec.fault = Str(span.fault);
  return rec;
}

std::vector<SpanRecord> SpanTracker::spans() const {
  std::vector<SpanRecord> out;
  out.reserve(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) out.push_back(ToRecord(i));
  return out;
}

std::vector<SpanRecord> SpanTracker::SpansOf(const std::string& txn) const {
  std::vector<SpanRecord> out;
  auto it = symbol_index_.find(txn);
  if (it == symbol_index_.end()) return out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].txn == it->second) out.push_back(ToRecord(i));
  }
  return out;
}

std::vector<SpanRecord> SpanTracker::OpenSpans() const {
  std::vector<SpanRecord> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].end < 0) out.push_back(ToRecord(i));
  }
  return out;
}

std::optional<SpanRecord> SpanTracker::Find(uint64_t span_id) const {
  if (span_id == 0 || span_id > spans_.size()) return std::nullopt;
  return ToRecord(span_id - 1);
}

std::string SpanToJson(const SpanRecord& s) {
  std::ostringstream os;
  os << "{\"txn\":\"" << JsonEscape(s.txn) << "\",\"span\":" << s.span_id
     << ",\"parent\":" << s.parent_span_id << ",\"peer\":\""
     << JsonEscape(s.peer) << "\",\"kind\":\"" << JsonEscape(s.kind)
     << "\",\"detail\":\"" << JsonEscape(s.detail) << "\",\"start\":" << s.start
     << ",\"end\":" << s.end << ",\"outcome\":\""
     << (s.end < 0 ? "OPEN" : JsonEscape(s.outcome)) << "\"";
  if (!s.fault.empty()) {
    os << ",\"fault\":\"" << JsonEscape(s.fault) << "\"";
  }
  os << "}";
  return os.str();
}

std::string SpanTracker::ToJsonl() const {
  std::string out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    out += SpanToJson(ToRecord(i));
    out += '\n';
  }
  return out;
}

void SpanTracker::Clear() {
  spans_.clear();
  strings_.clear();
  symbol_index_.clear();
}

}  // namespace axmlx::obs
