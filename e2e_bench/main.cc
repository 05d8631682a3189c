// End-to-end distributed-transaction benchmark.
//
//   e2e_txn_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--work-dir <dir>] [--trace-out <file>] [--txns <n>]
//
// --trace 0 measures the end-to-end metrics with tracing off, and reports
// their timings at the reference host speed of speed_probe.h (the wall-clock
// figures are printed beside them). --trace 1
// runs the workload untraced for half the time, then the same epochs again
// with spans on; it reports the per-layer metrics of the traced half, the
// tracing overhead between the two, and writes the spans as Chrome
// trace_event JSON to --trace-out. --txns stops after exactly that many
// transactions instead of after --seconds (the determinism self-test).
//
// The last line of standard output is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// The exit code is non-zero when any correctness check failed.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "harness.h"
#include "tracer.h"

namespace e2e {
namespace {

// Spans exported to the Chrome trace (about 160 bytes each); the per-layer
// figures use every span.
constexpr size_t kMaxTraceEvents = 50000;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  int txns = 0;
  std::string work_dir = ".bench_build/e2e_bench/work";
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      *error = "missing value for " + flag;
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (!(args->seconds > 0)) end = nullptr;
    } else if (flag == "--trace") {
      args->trace = static_cast<int>(std::strtol(value.c_str(), &end, 10));
      if (args->trace != 0 && args->trace != 1) end = nullptr;
    } else if (flag == "--txns") {
      args->txns = static_cast<int>(std::strtol(value.c_str(), &end, 10));
      if (args->txns < 0) end = nullptr;
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      *error = "unknown flag " + flag;
      return false;
    }
    if (end != nullptr && (*end != '\0' || value.empty())) end = nullptr;
    if ((flag == "--seed" || flag == "--seconds" || flag == "--trace" ||
         flag == "--txns") &&
        end == nullptr) {
      *error = "bad value for " + flag + ": " + value;
      return false;
    }
  }
  if (!have_workload) *error = "--workload is required";
  return have_workload;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

std::string Number(double value) {
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  if (ec != std::errc()) return "0";
  return std::string(buf, end);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  ///< Sample count or definition, for the human table.
};

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Sum(const std::vector<double>& values) {
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum;
}

/// The timings at the reference host speed when `probe` is set, else as
/// measured on the wall clock.
std::vector<Metric> EndToEnd(const Totals& t, const SpeedProbe* probe) {
  const double decided = static_cast<double>(t.decided());
  auto times = [probe](const std::vector<Sample>& samples) {
    if (probe != nullptr) return probe->Scale(samples);
    std::vector<double> out;
    for (const Sample& s : samples) out.push_back(s.value);
    return out;
  };
  const std::vector<double> setup = times(t.setup_s);
  const std::vector<double> commits = times(t.commit_ms);
  const std::vector<double> aborts = times(t.abort_ms);
  const std::vector<double> recovers = times(t.recover_ms);
  return {
      {"setup_s", Median(setup), "s",
       std::to_string(setup.size()) + " set-ups, median"},
      {"txn_per_s", Ratio(decided, Sum(times(t.txn_ms)) / 1e3), "1/s",
       "decided per second of RunTransaction time"},
      // Committed and aborted latencies are reported apart: on
      // chaos-recover they form two clusters, and a median over both falls
      // in the sparse gap between them.
      {"txn_p50_ms", Median(commits), "ms",
       std::to_string(commits.size()) + " committed samples"},
      {"txn_p95_ms", Quantile(commits, 0.95), "ms",
       std::to_string(commits.size()) + " committed samples"},
      {"abort_p50_ms", Median(aborts), "ms",
       std::to_string(aborts.size()) + " samples"},
      {"recover_p50_ms", Median(recovers), "ms",
       std::to_string(recovers.size()) + " samples"},
      {"wal_bytes_per_txn", Ratio(static_cast<double>(t.wal_bytes), decided),
       "bytes", std::to_string(t.wal_bytes) + " bytes"},
      {"peak_rss_mb", PeakRssMb(), "MB", "ru_maxrss"},
  };
}

std::vector<Metric> PerLayer(const Totals& t, const Tracer& tracer,
                             double overhead_pct, const SpeedProbe& probe) {
  const double n = static_cast<double>(t.attempted);
  const double epochs = static_cast<double>(t.epochs);
  const double restarts = static_cast<double>(t.restarts);
  std::map<std::string, Tracer::Time> by_name = tracer.ByName(Phase::kTxn);
  std::map<std::string, Tracer::Time> by_layer = tracer.ByLayer(Phase::kTxn);
  std::map<std::string, Tracer::Time> setup = tracer.ByName(Phase::kSetup);
  auto ms = [](int64_t ns) { return static_cast<double>(ns) / 1e6; };
  int64_t storage_calls = 0;
  for (const char* name :
       {"storage.Begin", "storage.Execute", "storage.Commit", "storage.Abort",
        "storage.JournalDedupKey"}) {
    storage_calls += by_name[name].calls;
  }
  std::vector<double> ticks(t.sim_ticks.begin(), t.sim_ticks.end());
  std::vector<double> wal_at_crash(t.wal_bytes_at_crash.begin(),
                                   t.wal_bytes_at_crash.end());
  const double aborts = static_cast<double>(t.aborted);
  return {
      {"storage.busy_ms_per_txn", Ratio(ms(by_layer["storage"].self_ns), n),
       "ms", "self time"},
      {"storage.calls_per_txn", Ratio(static_cast<double>(storage_calls), n),
       "count", ""},
      {"storage.wal_records_per_txn",
       Ratio(static_cast<double>(t.wal_records), n), "count", ""},
      {"storage.flushes_per_txn", Ratio(static_cast<double>(t.wal_flushes), n),
       "count", ""},
      {"storage.checkpoint_ms", Median(tracer.DurationsMs("storage.Checkpoint")),
       "ms", std::to_string(t.checkpoints) + " checkpoints, " +
                 std::to_string(t.checkpoints_skipped) + " skipped"},
      {"storage.open_ms", Median(tracer.DurationsMs("storage.OpenReplay")),
       "ms", "WAL replay on restart"},
      {"storage.replayed_ops", Ratio(static_cast<double>(t.replayed_ops),
                                     restarts),
       "count", "per restart"},
      {"storage.wal_bytes_at_crash", Median(wal_at_crash), "bytes",
       std::to_string(wal_at_crash.size()) + " crashes"},
      {"repo.resync_ms", Median(tracer.DurationsMs("repo.ResyncFromReplica")),
       "ms", ""},
      {"repo.resync_nodes", Ratio(static_cast<double>(t.resync_nodes),
                                  restarts),
       "count", "per restart"},
      {"repo.crash_ms", Median(tracer.DurationsMs("repo.CrashPeer")), "ms", ""},
      {"repo.restart_ms", Median(tracer.DurationsMs("repo.RestartPeer")), "ms",
       ""},
      {"repo.self_ms_per_txn",
       Ratio(ms(by_name["repo.RunTransaction"].self_ns), n), "ms",
       "RunTransaction minus child spans"},
      {"service.calls_per_txn",
       Ratio(static_cast<double>(by_name["service.Quote"].calls), n), "count",
       ""},
      {"service.busy_ms_per_txn", Ratio(ms(by_layer["service"].self_ns), n),
       "ms", "self time"},
      {"overlay.messages_per_txn",
       Ratio(static_cast<double>(t.messages_sent), n), "count", ""},
      {"overlay.delivered_per_sent",
       Ratio(static_cast<double>(t.messages_delivered),
             static_cast<double>(t.messages_sent)),
       "ratio", ""},
      {"overlay.sends_failed_per_txn",
       Ratio(static_cast<double>(t.sends_failed), n), "count", ""},
      {"overlay.sim_ticks_p50", Median(ticks), "ticks", ""},
      {"overlay.clock_horizon_per_txn",
       Ratio(static_cast<double>(t.horizon_hits), n), "count",
       "transactions that left the clock at the quiescence horizon"},
      {"txn.failed_frac",
       Ratio(static_cast<double>(t.aborted + t.undecided),
             static_cast<double>(t.attempted)),
       "ratio", "(aborted + undecided) / attempted"},
      {"txn.compensations_per_abort",
       Ratio(static_cast<double>(t.compensations), aborts), "count", ""},
      {"txn.nodes_compensated_per_abort",
       Ratio(static_cast<double>(t.nodes_compensated), aborts), "count", ""},
      {"txn.wasted_nodes_per_txn",
       Ratio(static_cast<double>(t.wasted_nodes), n), "count", ""},
      {"txn.retries_per_txn", Ratio(static_cast<double>(t.retries), n),
       "count", ""},
      {"txn.pending_control_end",
       Ratio(static_cast<double>(t.pending_control_end), epochs), "count",
       "per epoch"},
      {"xml.doc_nodes_start", Ratio(static_cast<double>(t.doc_nodes_start),
                                    epochs),
       "count", "per worker document"},
      {"xml.doc_nodes_end", Ratio(static_cast<double>(t.doc_nodes_end), epochs),
       "count", "per worker document"},
      {"xml.nodes_allocated_per_txn",
       Ratio(static_cast<double>(t.nodes_allocated), n), "count", ""},
      {"xml.parse_ms", Ratio(ms(setup["xml.HostDocument"].total_ns), epochs),
       "ms", "per set-up"},
      {"query.candidates_per_hit",
       Ratio(static_cast<double>(t.index_candidates),
             static_cast<double>(t.index_hits)),
       "ratio", ""},
      {"query.walk_fallbacks_per_txn",
       Ratio(static_cast<double>(t.walk_fallbacks), n), "count", ""},
      {"obs.forensic_dumps_per_txn",
       Ratio(static_cast<double>(t.forensic_dumps), n), "count", ""},
      {"obs.trace_overhead_pct", overhead_pct, "%", "traced vs untraced"},
      {"host.probe_us", probe.MedianUs(), "us",
       std::to_string(probe.probes()) + " speed probes, median"},
  };
}

void PrintLayerTable(const Tracer& tracer, const Totals& t) {
  const double n = static_cast<double>(t.attempted);
  for (Phase phase : {Phase::kTxn, Phase::kSetup}) {
    const std::map<std::string, Tracer::Time> layers = tracer.ByLayer(phase);
    int64_t total = 0;
    for (const auto& [layer, time] : layers) total += time.self_ns;
    std::printf("\n%s self time by layer (%s)\n",
                phase == Phase::kTxn ? "timed transactions" : "set-up",
                phase == Phase::kTxn
                    ? (std::to_string(t.attempted) + " txns").c_str()
                    : (std::to_string(t.epochs) + " set-ups").c_str());
    std::printf("  %-10s %12s %12s %8s %10s\n", "layer", "self_ms", "ms/unit",
                "share", "calls");
    const double units =
        phase == Phase::kTxn ? n : static_cast<double>(t.epochs);
    for (const auto& [layer, time] : layers) {
      std::printf("  %-10s %12.3f %12.4f %7.1f%% %10lld\n", layer.c_str(),
                  static_cast<double>(time.self_ns) / 1e6,
                  Ratio(static_cast<double>(time.self_ns) / 1e6, units),
                  100.0 * Ratio(static_cast<double>(time.self_ns),
                                static_cast<double>(total)),
                  static_cast<long long>(time.calls));
    }
  }
}

void PrintMetrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-32s %16.6f %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
}

std::string ResultJson(bool correct, int64_t attempted, int64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           Number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  return out + "}}";
}

std::string DeterministicJson(const Totals& t) {
  const double decided = static_cast<double>(t.decided());
  std::vector<double> ticks(t.sim_ticks.begin(), t.sim_ticks.end());
  char fingerprint[32];
  std::snprintf(fingerprint, sizeof(fingerprint), "%016llx",
                static_cast<unsigned long long>(t.input_fingerprint));
  return "{\"attempted\": " + std::to_string(t.attempted) +
         ", \"committed\": " + std::to_string(t.committed) +
         ", \"aborted\": " + std::to_string(t.aborted) +
         ", \"undecided\": " + std::to_string(t.undecided) +
         ", \"messages_per_txn\": " +
         Number(Ratio(static_cast<double>(t.messages_sent),
                      static_cast<double>(t.attempted))) +
         ", \"wal_bytes_per_txn\": " +
         Number(Ratio(static_cast<double>(t.wal_bytes), decided)) +
         ", \"sim_ticks_p50\": " + Number(Median(ticks)) +
         ", \"failed_frac\": " +
         Number(Ratio(static_cast<double>(t.aborted + t.undecided),
                      static_cast<double>(t.attempted))) +
         ", \"input_fingerprint\": \"" + fingerprint + "\"}";
}

bool Report(const char* label, const axmlx::Status& status, const Totals& t) {
  bool ok = status.ok() && t.errors.empty() && t.violations == 0;
  if (!status.ok()) {
    std::fprintf(stderr, "%s run failed: %s\n", label,
                 status.ToString().c_str());
  }
  for (const std::string& e : t.errors) {
    std::fprintf(stderr, "%s correctness: %s\n", label, e.c_str());
  }
  if (t.violations > static_cast<int64_t>(t.errors.size())) {
    std::fprintf(stderr, "%s correctness: %lld failures in total\n", label,
                 static_cast<long long>(t.violations));
  }
  std::printf(
      "%s: %d epochs, %lld txns (committed %lld, aborted %lld, undecided "
      "%lld), %.3f s in transactions\n",
      label, t.epochs, static_cast<long long>(t.attempted),
      static_cast<long long>(t.committed), static_cast<long long>(t.aborted),
      static_cast<long long>(t.undecided),
      static_cast<double>(t.timed_ns) / 1e9);
  return ok;
}

int Main(int argc, char** argv) {
  Args args;
  std::string error;
  if (!ParseArgs(argc, argv, &args, &error)) {
    std::fprintf(stderr, "e2e_txn_bench: %s\n", error.c_str());
    return 2;
  }
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "e2e_txn_bench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  const std::string work_dir =
      args.work_dir + "/" + args.workload + "-" + std::to_string(getpid());
  std::printf("e2e_txn_bench workload=%s seed=%llu seconds=%g trace=%d\n",
              spec->name, static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace);

  RunLimits limits;
  limits.seconds = args.trace == 1 ? args.seconds / 2 : args.seconds;
  limits.max_txns = args.txns;
  Tracer off(false);
  Harness untraced(*spec, args.seed, work_dir + "/untraced", &off);
  const axmlx::Status status = untraced.Run(limits);
  bool correct = Report("untraced", status, untraced.totals());
  const Totals& a = untraced.totals();
  int64_t attempted = a.attempted;
  int64_t failed = a.undecided + a.violations;

  std::vector<Metric> metrics;
  if (args.trace == 0) {
    std::printf("as measured on the wall clock:\n");
    PrintMetrics(EndToEnd(a, nullptr));
    std::printf("at the reference host speed (%zu speed probes, median %.1f "
                "us, reference %.1f us):\n",
                untraced.probe().probes(), untraced.probe().MedianUs(),
                SpeedProbe::kReferenceNs / 1e3);
    metrics = EndToEnd(a, &untraced.probe());
    PrintMetrics(metrics);
    std::printf("deterministic %s\n", DeterministicJson(a).c_str());
  } else if (status.ok()) {
    Tracer on(true);
    RunLimits same = limits;
    same.max_epochs = a.epochs;
    Harness traced(*spec, args.seed, work_dir + "/traced", &on);
    const axmlx::Status traced_status = traced.Run(same);
    correct = Report("traced", traced_status, traced.totals()) && correct;
    const Totals& b = traced.totals();
    attempted += b.attempted;
    failed += b.undecided + b.violations;
    // Both halves at the reference speed: they run at different times.
    const double overhead =
        100.0 * (Ratio(Sum(traced.probe().Scale(b.txn_ms)),
                       static_cast<double>(b.attempted)) /
                     Ratio(Sum(untraced.probe().Scale(a.txn_ms)),
                           static_cast<double>(a.attempted)) -
                 1.0);
    metrics = PerLayer(b, on, overhead, traced.probe());
    PrintLayerTable(on, b);
    PrintMetrics(metrics);
    if (!args.trace_out.empty()) {
      std::ofstream out(args.trace_out, std::ios::trunc);
      out << on.ChromeTraceJson(spec->name, args.seed, kMaxTraceEvents);
      if (!out.good()) {
        std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
        correct = false;
      } else {
        std::printf("spans written to %s\n", args.trace_out.c_str());
      }
    }
  }
  std::printf("%s\n", ResultJson(correct, attempted, failed, metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  try {
    return e2e::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_txn_bench: %s\n", e.what());
    return 1;
  }
}
