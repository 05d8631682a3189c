#include "obs/flight_recorder.h"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <set>
#include <tuple>

#include "obs/json.h"
#include "obs/span.h"

namespace axmlx::obs {

FlightRecorder::FlightRecorder(size_t capacity, uint64_t* shared_seq,
                               const int64_t* clock)
    : ring_(capacity == 0 ? size_t{1} : capacity),
      shared_seq_(shared_seq),
      clock_(clock) {}

void FlightRecorder::Record(const char* kind, std::string_view what,
                            uint64_t span, int64_t arg) {
  FlightEvent& e = ring_[total_ % ring_.size()];
  e.time = time();
  e.seq = shared_seq_ != nullptr ? (*shared_seq_)++ : local_seq_++;
  e.span = span;
  e.arg = arg;
  e.kind = kind;
  size_t n = std::min(what.size(), sizeof(e.what) - 1);
  std::memcpy(e.what, what.data(), n);
  e.what[n] = '\0';
  ++total_;
}

size_t FlightRecorder::size() const {
  return total_ < ring_.size() ? static_cast<size_t>(total_) : ring_.size();
}

const FlightEvent& FlightRecorder::At(size_t i) const {
  size_t first = total_ <= ring_.size()
                     ? size_t{0}
                     : static_cast<size_t>(total_ % ring_.size());
  return ring_[(first + i) % ring_.size()];
}

void FlightRecorder::Clear() { total_ = 0; }

FlightRecorder* FlightRecorderSet::ForPeer(const std::string& peer) {
  auto it = recorders_.find(peer);
  if (it == recorders_.end()) {
    it = recorders_
             .emplace(std::piecewise_construct, std::forward_as_tuple(peer),
                      std::forward_as_tuple(capacity_, &next_seq_, &now_))
             .first;
  }
  return &it->second;
}

std::string BuildForensicDump(const FlightRecorderSet& recorders,
                              const ForensicDumpOptions& options,
                              const SpanTracker* spans) {
  // Involved peers: the focal transaction's span participants when known
  // (the paper's abort cascade names exactly these), else every recorder.
  // Span context: the focal transaction's full tree when known, else
  // whatever was still open (in flight at the failure point).
  std::vector<SpanRecord> context;
  if (spans != nullptr) {
    context = !options.txn.empty() ? spans->SpansOf(options.txn)
                                   : spans->OpenSpans();
  }
  std::set<std::string> involved;
  if (!options.txn.empty()) {
    for (const SpanRecord& s : context) involved.insert(s.peer);
  }
  if (involved.empty()) {
    for (const auto& [peer, rec] : recorders.recorders()) involved.insert(peer);
  }
  if (!options.peer.empty()) involved.insert(options.peer);

  // Merge the last-N events of each involved peer into one timeline. The
  // shared sequence counter makes (time, seq) a deterministic total order.
  struct Entry {
    const FlightEvent* event;
    const std::string* peer;
  };
  std::vector<Entry> merged;
  for (const std::string& peer : involved) {
    auto it = recorders.recorders().find(peer);
    if (it == recorders.recorders().end()) continue;
    const FlightRecorder& rec = it->second;
    size_t count = rec.size();
    size_t first = count > options.last_n ? count - options.last_n : 0;
    for (size_t i = first; i < count; ++i) {
      merged.push_back(Entry{&rec.At(i), &it->first});
    }
  }
  std::sort(merged.begin(), merged.end(), [](const Entry& a, const Entry& b) {
    return std::tie(a.event->time, a.event->seq) <
           std::tie(b.event->time, b.event->seq);
  });

  // Built by appending: a dump runs on every aborted transaction and holds
  // a few hundred events.
  std::string out;
  out.reserve(256 + merged.size() * 112);
  const auto append_int = [&out](auto value) {
    char buf[24];
    out.append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
  };
  const auto append_str = [&out](std::string_view value) {
    out.push_back('"');
    AppendJsonEscaped(value, &out);
    out.push_back('"');
  };
  out += "{\"schema\":\"axmlx-forensics-v1\"";
  out += ",\"reason\":";
  append_str(options.reason);
  out += ",\"peer\":";
  append_str(options.peer);
  out += ",\"txn\":";
  append_str(options.txn);
  out += ",\"time\":";
  append_int(options.time);
  out += ",\"last_n\":";
  append_int(options.last_n);
  out += ",\n\"peers\":[";
  bool first_peer = true;
  for (const std::string& peer : involved) {
    if (!first_peer) out += ",";
    first_peer = false;
    append_str(peer);
  }
  out += "],\n\"events\":[";
  for (size_t i = 0; i < merged.size(); ++i) {
    const FlightEvent& e = *merged[i].event;
    if (i != 0) out += ",";
    out += "\n{\"time\":";
    append_int(e.time);
    out += ",\"seq\":";
    append_int(e.seq);
    out += ",\"peer\":";
    append_str(*merged[i].peer);
    out += ",\"kind\":";
    append_str(e.kind);
    out += ",\"span\":";
    append_int(e.span);
    out += ",\"what\":";
    append_str(e.what);
    out += ",\"arg\":";
    append_int(e.arg);
    out += "}";
  }
  out += "],\n\"spans\":[";
  bool first_span = true;
  for (const SpanRecord& s : context) {
    if (!first_span) out += ",";
    first_span = false;
    out += "\n";
    out += SpanToJson(s);
  }
  out += "]}\n";
  return out;
}

}  // namespace axmlx::obs
