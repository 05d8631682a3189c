#include "tracer.h"

#include <chrono>
#include <cstdio>

namespace e2e {
namespace {

/// The layer of a span name: the text before the first '.'.
std::string LayerOf(const std::string& name) {
  return name.substr(0, name.find('.'));
}

const char* PhaseName(Phase phase) {
  switch (phase) {
    case Phase::kSetup:
      return "setup";
    case Phase::kTxn:
      return "txn";
    case Phase::kProbe:
      return "probe";
    case Phase::kCheck:
      return "check";
  }
  return "?";
}

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int32_t Tracer::Open(const char* name) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.txn = txn_;
  span.phase = phase_;
  const auto index = static_cast<int32_t>(spans_.size());
  open_.push_back(index);
  span.start_ns = NowNs();
  spans_.push_back(span);
  return index;
}

void Tracer::Close(int32_t index) {
  if (index < 0) return;
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
  // Spans close in reverse opening order; tolerate a skipped level anyway.
  while (!open_.empty()) {
    const int32_t top = open_.back();
    open_.pop_back();
    if (top == index) break;
  }
}

std::map<std::string, Tracer::Time> Tracer::ByName(Phase phase) const {
  std::map<std::string, Time> out;
  for (const Span& span : spans_) {
    if (span.phase != phase) continue;
    const int64_t duration = span.end_ns - span.start_ns;
    Time& t = out[span.name];
    t.self_ns += duration;
    t.total_ns += duration;
    ++t.calls;
    if (span.parent >= 0) {
      const Span& parent = spans_[static_cast<size_t>(span.parent)];
      if (parent.phase == phase) out[parent.name].self_ns -= duration;
    }
  }
  return out;
}

std::map<std::string, Tracer::Time> Tracer::ByLayer(Phase phase) const {
  std::map<std::string, Time> out;
  for (const auto& [name, t] : ByName(phase)) {
    Time& layer = out[LayerOf(name)];
    layer.self_ns += t.self_ns;
    layer.total_ns += t.total_ns;
    layer.calls += t.calls;
  }
  return out;
}

std::vector<double> Tracer::DurationsMs(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (name == span.name) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns) / 1e6);
    }
  }
  return out;
}


std::string Tracer::ChromeTraceJson(const std::string& workload, uint64_t seed,
                                    size_t max_events) const {
  const size_t n = spans_.size() < max_events ? spans_.size() : max_events;
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::string out = "{\"schema\":\"axmlx-e2e-trace-v1\",\"workload\":\"" +
                    workload + "\",\"seed\":" + std::to_string(seed) +
                    ",\"spans\":" + std::to_string(spans_.size()) +
                    ",\"exported\":" + std::to_string(n) +
                    ",\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  out +=
      "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"thread_name\","
      "\"args\":{\"name\":\"e2e_txn_bench\"}}";
  char buf[320];
  for (size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    const std::string layer = LayerOf(s.name);
    std::snprintf(buf, sizeof(buf),
                  ",{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                  "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"txn\":%d,"
                  "\"phase\":\"%s\",\"id\":%zu,\"parent\":%d}}",
                  s.name, layer.c_str(),
                  static_cast<double>(s.start_ns - origin) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.txn,
                  PhaseName(s.phase), i, s.parent);
    out += buf;
  }
  out += "]}\n";
  return out;
}

}  // namespace e2e
