#ifndef E2E_BENCH_SPEED_PROBE_H_
#define E2E_BENCH_SPEED_PROBE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace e2e {

/// A wall time and the instant (NowNs) it was taken.
struct Sample {
  int64_t at_ns = 0;
  double value = 0.0;
};

/// Tracks how fast the host runs right now, so that wall times can be
/// reported at a fixed reference speed.
///
/// On a shared host, other tenants slow the CPU itself by up to 2x, in
/// levels that last from seconds to minutes; every wall time of the program
/// moves with them. The probe times a fixed piece of reference work that
/// does what the program does most (small allocations from the process
/// heap, short strings, an ordered map, pointer chasing, building and
/// scanning text) and calls no library code. The benchmark runs it after
/// every set-up, transaction and probe, outside every timed region. A wall
/// time taken at instant t is then scaled by kReferenceNs / (median probe
/// time within about a second of t): a change that makes the program faster
/// lowers the scaled time, and a slower host does not raise it.
///
/// The probe allocates from the program's own heap, on purpose: a probe
/// with a private, cache-warm arena followed the host's speed levels only
/// half as closely. The price is that the heap's state moves it a little:
/// on the same host level it takes about 25% longer beside commit-large's
/// 100 MB heap than beside commit-small's 13 MB one. A change that shrinks
/// or grows the heap a lot can therefore move the probe; host.probe_us (a
/// per-layer metric) shows it, and the wall-clock figures are printed too.
class SpeedProbe {
 public:
  /// Probe time at the reference speed: about what one probe takes beside
  /// commit-small on an unloaded 4-vCPU Intel Xeon (family 6, model 143)
  /// KVM guest.
  static constexpr double kReferenceNs = 200'000.0;
  /// The speed at an instant is the median of the kWindow probes nearest
  /// to it in time, together with every probe within kHalfSpanNs of it:
  /// host speed levels last seconds, and a wider window steadies the tails.
  static constexpr int kWindow = 16;
  static constexpr int64_t kHalfSpanNs = 500'000'000;

  /// Runs the reference work once and records how long it took.
  void Run();

  /// Forgets every probe (after the warm-up).
  void Clear() { probes_.clear(); }

  /// `s.value` scaled to the reference speed at `s.at_ns`.
  double Scale(const Sample& s) const;
  std::vector<double> Scale(const std::vector<Sample>& samples) const;

  /// Median probe time of the run, in microseconds.
  double MedianUs() const;
  size_t probes() const { return probes_.size(); }

 private:
  std::vector<Sample> probes_;  ///< (midpoint, duration in ns), in order.
};

}  // namespace e2e

#endif  // E2E_BENCH_SPEED_PROBE_H_
