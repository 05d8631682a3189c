#ifndef AXMLX_BENCH_BENCH_UTIL_H_
#define AXMLX_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"

namespace axmlx::bench {

/// Minimal fixed-width table printer for experiment output. Every bench
/// prints its experiment rows through this, so EXPERIMENTS.md and the bench
/// logs share one format.
class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void AddRow(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
  }

  void Print() const {
    std::vector<size_t> widths(headers_.size());
    for (size_t i = 0; i < headers_.size(); ++i) widths[i] = headers_[i].size();
    for (const auto& row : rows_) {
      for (size_t i = 0; i < row.size() && i < widths.size(); ++i) {
        if (row[i].size() > widths[i]) widths[i] = row[i].size();
      }
    }
    PrintRule(widths);
    PrintRow(headers_, widths);
    PrintRule(widths);
    for (const auto& row : rows_) PrintRow(row, widths);
    PrintRule(widths);
  }

 private:
  static void PrintRow(const std::vector<std::string>& cells,
                       const std::vector<size_t>& widths) {
    std::printf("|");
    for (size_t i = 0; i < widths.size(); ++i) {
      const std::string& cell = i < cells.size() ? cells[i] : std::string();
      std::printf(" %-*s |", static_cast<int>(widths[i]), cell.c_str());
    }
    std::printf("\n");
  }
  static void PrintRule(const std::vector<size_t>& widths) {
    std::printf("+");
    for (size_t w : widths) {
      for (size_t i = 0; i < w + 2; ++i) std::printf("-");
      std::printf("+");
    }
    std::printf("\n");
  }

  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string Fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.2f", v);
  return buf;
}
template <typename T>
  requires std::is_integral_v<T>
std::string Fmt(T v) {
  return std::to_string(v);
}

/// Removes `--smoke` from argv (so google benchmark never sees it) and
/// reports whether it was present. Call BEFORE benchmark::Initialize.
/// Smoke mode means: write the JSON report from a few iterations and skip
/// the full google-benchmark run — scripts/check.sh uses it to validate the
/// machine-readable pipeline quickly.
inline bool StripSmokeFlag(int* argc, char** argv) {
  bool smoke = false;
  int w = 1;
  for (int r = 1; r < *argc; ++r) {
    if (std::strcmp(argv[r], "--smoke") == 0) {
      smoke = true;
    } else {
      argv[w++] = argv[r];
    }
  }
  *argc = w;
  argv[w] = nullptr;
  return smoke;
}

/// Microsecond-scale latency buckets shared by every bench histogram, wide
/// enough for whole simulated transactions (up to 2s per op). ~1.6x
/// log-spaced: the old 2-2.5x grid left medians inside buckets so wide
/// that reported p50s pinned to bounds (one baseline read exactly 250000
/// for rounds whose true median was anywhere in 100000..250000).
inline std::vector<int64_t> LatencyBucketsUs() {
  return {50,    80,    130,    200,    320,    500,    800,     1300,
          2000,  3200,  5000,   8000,   13000,  20000,  32000,   50000,
          80000, 130000, 200000, 320000, 500000, 800000, 1300000, 2000000};
}

/// Machine-readable bench report (schema "axmlx-bench-v1"). Every bench_*
/// binary writes BENCH_<name>.json into the working directory so
/// `axmlx_report --check` and downstream tooling can consume the numbers
/// without scraping tables.
class JsonReport {
 public:
  JsonReport(std::string name, bool smoke)
      : name_(std::move(name)), smoke_(smoke) {}

  /// Sets `ops_per_sec`: real operations retired per second of wall-clock
  /// time.
  void SetOpsPerSec(double ops) { ops_per_sec_ = ops; }

  void AddCounter(const std::string& name, int64_t value) {
    counters_.emplace_back(name, value);
  }
  void AddHistogram(const std::string& name,
                    const obs::HistogramSnapshot& snap) {
    histograms_.emplace_back(name, snap);
  }

  std::string ToJson() const {
    std::string out = "{\"schema\":\"axmlx-bench-v1\",\"bench\":\"" +
                      obs::JsonEscape(name_) + "\",\"smoke\":" +
                      (smoke_ ? "true" : "false") + ",\"ops_per_sec\":";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.3f", ops_per_sec_);
    out += buf;
    out += ",\"counters\":{";
    for (size_t i = 0; i < counters_.size(); ++i) {
      if (i > 0) out += ",";
      out += "\"" + obs::JsonEscape(counters_[i].first) +
             "\":" + std::to_string(counters_[i].second);
    }
    out += "},\"histograms\":{";
    for (size_t i = 0; i < histograms_.size(); ++i) {
      if (i > 0) out += ",";
      out += "\"" + obs::JsonEscape(histograms_[i].first) +
             "\":" + histograms_[i].second.ToJson();
    }
    out += "}}\n";
    return out;
  }

  /// Writes BENCH_<name>.json; returns false (and warns) on I/O failure so
  /// a read-only working directory degrades the report, not the bench.
  bool Write() const {
    const std::string path = "BENCH_" + name_ + ".json";
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
      return false;
    }
    out << ToJson();
    return out.good();
  }

 private:
  std::string name_;
  bool smoke_ = false;
  double ops_per_sec_ = 0;
  std::vector<std::pair<std::string, int64_t>> counters_;
  std::vector<std::pair<std::string, obs::HistogramSnapshot>> histograms_;
};

/// Runs `fn` `iters` times against the wall clock, records each call's
/// latency into histogram `hist_name` (microseconds), and sets the report's
/// ops/sec from the total. The histogram snapshot lands in the report
/// too. Returns total elapsed wall seconds so a caller whose iteration
/// retires more than one operation can overwrite the rate with the true
/// per-operation number (`report->SetOpsPerSec(ops / seconds)`).
template <typename Fn>
double MeasureThroughput(JsonReport* report, const std::string& hist_name,
                         int iters, Fn&& fn) {
  obs::Histogram hist(LatencyBucketsUs());
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) {
    const auto s = std::chrono::steady_clock::now();
    fn();
    const auto e = std::chrono::steady_clock::now();
    hist.Observe(
        std::chrono::duration_cast<std::chrono::microseconds>(e - s).count());
  }
  const auto t1 = std::chrono::steady_clock::now();
  const double total_s =
      std::chrono::duration_cast<std::chrono::duration<double>>(t1 - t0)
          .count();
  report->SetOpsPerSec(total_s > 0 ? iters / total_s : 0);
  report->AddHistogram(hist_name, hist.Snapshot());
  return total_s;
}

}  // namespace axmlx::bench

#endif  // AXMLX_BENCH_BENCH_UTIL_H_
