// Tests for the critical-path attribution layer (obs/timeline): the phase
// partition invariant — phases sum to each transaction's wall duration — on
// both a synthetic claim sequence and a full seeded fault drill, plus the
// axmlx-trace-v1 exporter (byte-deterministic per seed, parseable, every
// flow arrow's begin/end ids pair up) and the forensics -> trace conversion
// check.sh drives.

#include "obs/timeline.h"

#include <fstream>
#include <numeric>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "axmlx_report/report.h"
#include "common/rng.h"
#include "obs/json.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "repo/fault_drill.h"

namespace axmlx {
namespace {

int64_t SegmentTicks(const obs::TxnTimeline& rec) {
  int64_t total = 0;
  for (const obs::PhaseSegment& seg : rec.segments) {
    total += seg.end - seg.start;
  }
  return total;
}

int64_t PhaseTicks(const obs::TxnTimeline& rec) {
  return std::accumulate(rec.phase_ticks,
                         rec.phase_ticks + obs::kPhaseCount, int64_t{0});
}

// --- Timeline mechanics -----------------------------------------------------

TEST(Timeline, PriorityAttributionWithCountedClaims) {
  obs::Timeline tl;
  tl.BeginTxn("TA", 0);
  tl.Enter("TA", obs::kPhaseNetInflight, 0);
  tl.Enter("TA", obs::kPhaseEval, 2);  // EVAL outranks NET_INFLIGHT
  tl.Exit("TA", obs::kPhaseEval, 5);
  tl.Exit("TA", obs::kPhaseNetInflight, 8);
  tl.EndTxn("TA", 10);  // tail is unclaimed -> QUEUE_WAIT

  const obs::TxnTimeline* rec = tl.Find("TA");
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->begin, 0);
  EXPECT_EQ(rec->end, 10);
  ASSERT_EQ(rec->segments.size(), 4u);
  EXPECT_EQ(rec->segments[0].phase, obs::kPhaseNetInflight);
  EXPECT_EQ(rec->segments[1].phase, obs::kPhaseEval);
  EXPECT_EQ(rec->segments[2].phase, obs::kPhaseNetInflight);
  EXPECT_EQ(rec->segments[3].phase, obs::kPhaseQueueWait);
  EXPECT_EQ(rec->phase_ticks[obs::PhaseIndex(obs::kPhaseNetInflight)], 5);
  EXPECT_EQ(rec->phase_ticks[obs::PhaseIndex(obs::kPhaseEval)], 3);
  EXPECT_EQ(rec->phase_ticks[obs::PhaseIndex(obs::kPhaseQueueWait)], 2);
  EXPECT_EQ(PhaseTicks(*rec), rec->end - rec->begin);
}

TEST(Timeline, CountedClaimsNeedEveryCopyToExit) {
  // Two in-flight copies (a duplicated message) are two claims; the phase
  // holds until the last one lands.
  obs::Timeline tl;
  tl.BeginTxn("TA", 0);
  tl.Enter("TA", obs::kPhaseNetInflight, 0);
  tl.Enter("TA", obs::kPhaseNetInflight, 0);
  tl.Exit("TA", obs::kPhaseNetInflight, 3);
  tl.Exit("TA", obs::kPhaseNetInflight, 7);
  tl.EndTxn("TA", 7);
  const obs::TxnTimeline* rec = tl.Find("TA");
  ASSERT_NE(rec, nullptr);
  ASSERT_EQ(rec->segments.size(), 1u);
  EXPECT_EQ(rec->segments[0].phase, obs::kPhaseNetInflight);
  EXPECT_EQ(rec->phase_ticks[obs::PhaseIndex(obs::kPhaseNetInflight)], 7);
}

TEST(Timeline, LateAndForeignEventsAreIgnored) {
  obs::Timeline tl;
  tl.BeginTxn("TA", 0);
  tl.EndTxn("TA", 4);
  // Messages outliving the decision, unknown txns, and unbalanced exits
  // must all be harmless no-ops.
  tl.Enter("TA", obs::kPhaseNetInflight, 5);
  tl.Enter("TB", obs::kPhaseEval, 1);
  tl.Exit("TA", obs::kPhaseWalAppend, 6);
  tl.EndTxn("TB", 9);
  ASSERT_EQ(tl.txns().size(), 1u);
  EXPECT_EQ(tl.txns()[0].end, 4);
}

TEST(Timeline, MarkRecordsWhatEnterThenExitRecords) {
  // Random claim sequences with zero-width markers mixed in: Mark on one
  // timeline, an Enter/Exit pair at the same instant on the other.
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(seed);
    obs::Timeline marked;
    obs::Timeline paired;
    int64_t now = 0;
    std::vector<int> held;
    for (obs::Timeline* tl : {&marked, &paired}) tl->BeginTxn("TA", 0);
    for (int step = 0; step < 60; ++step) {
      now += static_cast<int64_t>(rng.Uniform(3));
      const char* phase =
          obs::PhaseTable()[rng.Uniform(obs::kPhaseCount)];
      switch (rng.Uniform(3)) {
        case 0:
          for (obs::Timeline* tl : {&marked, &paired}) {
            tl->Enter("TA", phase, now);
          }
          held.push_back(obs::PhaseIndex(phase));
          break;
        case 1:
          if (held.empty()) break;
          for (obs::Timeline* tl : {&marked, &paired}) {
            tl->Exit("TA", obs::PhaseTable()[held.back()], now);
          }
          held.pop_back();
          break;
        default:
          marked.Mark("TA", phase, now);
          paired.Enter("TA", phase, now);
          paired.Exit("TA", phase, now);
      }
    }
    for (obs::Timeline* tl : {&marked, &paired}) tl->EndTxn("TA", now + 1);
    const obs::TxnTimeline& a = marked.txns().front();
    const obs::TxnTimeline& b = paired.txns().front();
    ASSERT_EQ(a.segments.size(), b.segments.size()) << "seed " << seed;
    for (size_t i = 0; i < a.segments.size(); ++i) {
      EXPECT_STREQ(a.segments[i].phase, b.segments[i].phase);
      EXPECT_EQ(a.segments[i].start, b.segments[i].start);
      EXPECT_EQ(a.segments[i].end, b.segments[i].end);
    }
    for (int i = 0; i < obs::kPhaseCount; ++i) {
      EXPECT_EQ(a.phase_ticks[i], b.phase_ticks[i]) << "seed " << seed;
    }
  }
}

TEST(Timeline, EndObservesPhaseHistograms) {
  obs::Timeline tl;
  obs::MetricsRegistry metrics;
  tl.AttachMetrics(&metrics);
  tl.BeginTxn("TA", 0);
  tl.Enter("TA", obs::kPhaseEval, 1);
  tl.Exit("TA", obs::kPhaseEval, 4);
  tl.EndTxn("TA", 6);
  obs::MetricsSnapshot snap = metrics.Snapshot();
  EXPECT_EQ(snap.histograms.at(obs::kMetricTxnLatencyTotal).sum, 6);
  EXPECT_EQ(snap.histograms.at(obs::kMetricTxnLatencyEval).sum, 3);
  EXPECT_EQ(snap.histograms.at(obs::kMetricTxnLatencyQueueWait).sum, 3);
  // Every phase series observes once per transaction, hit or not.
  for (int i = 0; i < obs::kPhaseCount; ++i) {
    EXPECT_EQ(snap.histograms.at(obs::PhaseMetricName(i)).count, 1)
        << obs::PhaseMetricName(i);
  }
}

// --- Drill-scale invariants -------------------------------------------------

repo::FaultDrillOptions DrillOptions(const std::string& name, uint64_t seed) {
  repo::FaultDrillOptions options;
  options.seed = seed;
  options.storage_dir = ::testing::TempDir() + "axmlx_timeline_" + name;
  options.depth = 1;
  options.fanout = 3;
  options.transactions = 6;
  options.drop_rate = 0.05;
  options.dup_rate = 0.05;
  options.delay_max = 3;
  options.crash_every = 3;
  return options;
}

TEST(TimelineDrill, PhasesPartitionEveryWindowAcrossAFaultDrill) {
  repo::FaultDrill drill(DrillOptions("partition", 511));
  auto report = drill.Run();
  ASSERT_TRUE(report.ok()) << report.status();

  const obs::Timeline& tl = drill.repo().timeline();
  ASSERT_FALSE(tl.txns().empty());
  size_t closed = 0;
  for (const obs::TxnTimeline& rec : tl.txns()) {
    if (rec.end < 0) continue;
    ++closed;
    // The partition invariant, twice over: segments tile [begin, end]
    // contiguously, and the per-phase tick totals sum to the wall duration.
    int64_t cursor = rec.begin;
    for (const obs::PhaseSegment& seg : rec.segments) {
      EXPECT_EQ(seg.start, cursor) << rec.txn;
      EXPECT_GT(seg.end, seg.start) << rec.txn;
      cursor = seg.end;
    }
    EXPECT_EQ(cursor, rec.end) << rec.txn;
    EXPECT_EQ(SegmentTicks(rec), rec.end - rec.begin) << rec.txn;
    EXPECT_EQ(PhaseTicks(rec), rec.end - rec.begin) << rec.txn;
  }
  ASSERT_GT(closed, 0u);

  // The drill's registry carries the per-phase series: one observation per
  // closed transaction, and total = sum of the phase sums.
  obs::MetricsSnapshot snap = drill.metrics().Snapshot();
  const obs::HistogramSnapshot& total =
      snap.histograms.at(obs::kMetricTxnLatencyTotal);
  EXPECT_EQ(total.count, static_cast<int64_t>(closed));
  int64_t phase_sum = 0;
  for (int i = 0; i < obs::kPhaseCount; ++i) {
    phase_sum += snap.histograms.at(obs::PhaseMetricName(i)).sum;
  }
  EXPECT_EQ(phase_sum, total.sum);
  // In the simulated overlay the wall time is transport + queueing; the
  // drill must attribute real ticks, not just residual.
  EXPECT_GT(
      snap.histograms.at(obs::kMetricTxnLatencyNetInflight).sum, 0);
}

TEST(TimelineDrill, TraceExportIsByteDeterministicPerSeed) {
  std::string first;
  std::string second;
  {
    repo::FaultDrill drill(DrillOptions("det", 902));
    ASSERT_TRUE(drill.Run().ok());
    first = drill.repo().BuildTrace();
  }
  {
    repo::FaultDrill drill(DrillOptions("det", 902));
    ASSERT_TRUE(drill.Run().ok());
    second = drill.repo().BuildTrace();
  }
  EXPECT_EQ(first, second);

  repo::FaultDrill other(DrillOptions("det", 903));
  ASSERT_TRUE(other.Run().ok());
  EXPECT_NE(first, other.repo().BuildTrace());
}

TEST(TimelineDrill, TraceParsesFlowsPairAndCheckerAccepts) {
  repo::FaultDrill drill(DrillOptions("flows", 511));
  ASSERT_TRUE(drill.Run().ok());
  const std::string trace = drill.repo().BuildTrace();

  std::string error;
  auto doc = obs::ParseJson(trace, &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_EQ(doc->Find("schema")->str, "axmlx-trace-v1");
  const obs::JsonValue* events = doc->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_FALSE(events->items.empty());

  // Every flow finish ("f") must land on a flow some send opened ("s");
  // dangling starts are legal (drops / in-flight copies).
  std::set<int64_t> starts;
  std::vector<int64_t> finishes;
  size_t phase_slices = 0;
  for (const obs::JsonValue& e : events->items) {
    ASSERT_TRUE(e.is_object());
    const std::string ph = e.Find("ph")->str;
    if (ph == "s") starts.insert(e.Find("id")->AsInt());
    if (ph == "f") finishes.push_back(e.Find("id")->AsInt());
    if (ph == "X" && e.Find("cat") != nullptr &&
        e.Find("cat")->str == "phase") {
      ++phase_slices;
    }
  }
  ASSERT_FALSE(starts.empty());
  ASSERT_FALSE(finishes.empty());
  for (int64_t id : finishes) {
    EXPECT_TRUE(starts.count(id) > 0) << "unpaired flow finish id " << id;
  }
  ASSERT_GT(phase_slices, 0u);

  // The report-side validator agrees (schema, pairing, phase partition).
  EXPECT_EQ(report::CheckTraceJson(trace), "");
  EXPECT_EQ(report::CheckReportJson(trace), "");

  // And the critical-path renderer names a dominant phase per transaction.
  std::string rendered;
  ASSERT_EQ(report::RenderCriticalPath(trace, &rendered), "");
  EXPECT_NE(rendered.find("=== critical path ("), std::string::npos);
  EXPECT_NE(rendered.find("dominator table:"), std::string::npos);
}

TEST(TimelineDrill, ForensicsDumpConvertsToCheckableTrace) {
  repo::FaultDrillOptions options = DrillOptions("convert", 7001);
  options.transactions = 2;
  options.drop_rate = 0.0;
  options.dup_rate = 0.0;
  options.crash_every = 0;
  options.force_violation = true;
  repo::FaultDrill drill(options);
  auto report = drill.Run();
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_FALSE(report->forensic_dumps.empty());

  std::ifstream in(report->forensic_dumps.front(), std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string dump = buffer.str();
  ASSERT_FALSE(dump.empty());

  std::string trace;
  ASSERT_EQ(report::ForensicsToTrace(dump, &trace), "");
  EXPECT_EQ(report::CheckTraceJson(trace), "");
  // Converting the same dump twice is byte-stable.
  std::string again;
  ASSERT_EQ(report::ForensicsToTrace(dump, &again), "");
  EXPECT_EQ(trace, again);
}

}  // namespace
}  // namespace axmlx
