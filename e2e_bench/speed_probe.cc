#include "speed_probe.h"

#include <algorithm>
#include <map>
#include <memory>
#include <string>

#include "tracer.h"

namespace e2e {
namespace {

constexpr int kItems = 160;

uint64_t Next(uint64_t* x) {
  *x = *x * 6364136223846793005ULL + 1442695040888963407ULL;
  return *x >> 33;
}

struct Node {
  Node* next = nullptr;
  uint64_t value = 0;
  std::string name;
};

/// The reference work: the same steps on every call. Returns a checksum so
/// that none of it can be elided.
uint64_t ReferenceWork() {
  uint64_t x = 0x9E3779B97F4A7C15ULL;
  std::map<std::string, uint64_t> index;
  std::vector<std::unique_ptr<Node>> nodes;
  std::string text;
  for (int i = 0; i < kItems; ++i) {
    // Keys longer than the short-string buffer, so each one allocates.
    std::string key = "entry-" + std::to_string(Next(&x)) + "-value";
    text += "<entry k=\"" + key + "\">" + std::to_string(i) + "</entry>";
    auto node = std::make_unique<Node>();
    node->value = Next(&x);
    node->name = key;
    index.emplace(std::move(key), node->value);
    nodes.push_back(std::move(node));
  }
  // Link the nodes in a scrambled order and chase the chain.
  std::vector<size_t> order(nodes.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (size_t i = order.size() - 1; i > 0; --i) {
    std::swap(order[i], order[Next(&x) % (i + 1)]);
  }
  for (size_t i = 0; i + 1 < order.size(); ++i) {
    nodes[order[i]]->next = nodes[order[i + 1]].get();
  }
  uint64_t sum = 0;
  for (int pass = 0; pass < 4; ++pass) {
    for (const Node* n = nodes[order[0]].get(); n != nullptr; n = n->next) {
      sum += index.at(n->name) ^ n->value;
    }
  }
  for (char c : text) sum += c == '<' ? 1 : 0;
  return sum;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  double m = values[mid];
  if (values.size() % 2 == 0) {
    m = (m + *std::max_element(values.begin(), values.begin() + mid)) / 2;
  }
  return m;
}

}  // namespace

void SpeedProbe::Run() {
  static volatile uint64_t sink = 0;
  const int64_t start = NowNs();
  sink = sink + ReferenceWork();
  const int64_t end = NowNs();
  probes_.push_back(
      {start + (end - start) / 2, static_cast<double>(end - start)});
}

double SpeedProbe::Scale(const Sample& s) const {
  if (probes_.empty()) return s.value;
  // The kWindow probes nearest to s.at_ns in time, and every other probe
  // within kHalfSpanNs of it.
  auto it = std::lower_bound(
      probes_.begin(), probes_.end(), s.at_ns,
      [](const Sample& p, int64_t at) { return p.at_ns < at; });
  size_t lo = static_cast<size_t>(it - probes_.begin());
  size_t hi = lo;
  while (hi - lo < static_cast<size_t>(kWindow) &&
         (lo > 0 || hi < probes_.size())) {
    const bool take_low =
        hi == probes_.size() ||
        (lo > 0 && s.at_ns - probes_[lo - 1].at_ns <= probes_[hi].at_ns - s.at_ns);
    if (take_low) {
      --lo;
    } else {
      ++hi;
    }
  }
  while (lo > 0 && probes_[lo - 1].at_ns >= s.at_ns - kHalfSpanNs) --lo;
  while (hi < probes_.size() && probes_[hi].at_ns <= s.at_ns + kHalfSpanNs) {
    ++hi;
  }
  std::vector<double> near;
  for (size_t i = lo; i < hi; ++i) near.push_back(probes_[i].value);
  return s.value * kReferenceNs / Median(std::move(near));
}

std::vector<double> SpeedProbe::Scale(const std::vector<Sample>& samples) const {
  std::vector<double> out;
  out.reserve(samples.size());
  for (const Sample& s : samples) out.push_back(Scale(s));
  return out;
}

double SpeedProbe::MedianUs() const {
  std::vector<double> ns;
  for (const Sample& p : probes_) ns.push_back(p.value);
  return Median(std::move(ns)) / 1e3;
}

}  // namespace e2e
