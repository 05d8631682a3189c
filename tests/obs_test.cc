// Tests for the observability layer (src/obs) and its consumers: metrics
// registry snapshot/JSON round-trip, histogram bucket edges, causal span
// parent/child reconstruction across peers, the Trace JSONL/Mermaid
// renderers, and the axmlx_report parse/render/check pipeline.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "axmlx_report/report.h"
#include "common/trace.h"
#include "obs/json.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "repo/axml_repository.h"
#include "repo/scenarios.h"

namespace axmlx {
namespace {

// --- MetricsRegistry --------------------------------------------------------

TEST(MetricsRegistry, CountersGaugesAndStableHandles) {
  obs::MetricsRegistry registry;
  obs::Counter* sent = registry.GetCounter(obs::kMetricOverlayMessagesSent);
  ++*sent;
  *sent += 4;
  sent->Increment();
  EXPECT_EQ(sent->value(), 6);
  // Same name -> same handle; the hot path caches the pointer once.
  EXPECT_EQ(registry.GetCounter(obs::kMetricOverlayMessagesSent), sent);
  registry.GetGauge("overlay.queue_depth")->Set(2.5);
  obs::MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counters.at("overlay.messages_sent"), 6);
  EXPECT_DOUBLE_EQ(snap.gauges.at("overlay.queue_depth"), 2.5);
  registry.Reset();
  EXPECT_EQ(sent->value(), 0);  // handle survives Reset
}

TEST(MetricsRegistry, SnapshotJsonRoundTrips) {
  obs::MetricsRegistry registry;
  *registry.GetCounter(obs::kMetricTxnTxnsCommitted) += 3;
  registry.GetGauge("drill.rate")->Set(0.25);
  registry.GetHistogram("txn.latency", {10, 100})->Observe(7);
  std::string error;
  auto doc = obs::ParseJson(registry.ToJson(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  const obs::JsonValue* counters = doc->Find("counters");
  ASSERT_NE(counters, nullptr);
  const obs::JsonValue* committed = counters->Find("txn.txns_committed");
  ASSERT_NE(committed, nullptr);
  EXPECT_EQ(committed->AsInt(), 3);
  const obs::JsonValue* hists = doc->Find("histograms");
  ASSERT_NE(hists, nullptr);
  const obs::JsonValue* hist = hists->Find("txn.latency");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->Find("count")->AsInt(), 1);
  ASSERT_EQ(hist->Find("counts")->items.size(), 3u);
  EXPECT_EQ(hist->Find("counts")->items[0].AsInt(), 1);
}

TEST(MetricsRegistry, HistogramSameBoundsAndEmptyBoundsShareOneHandle) {
  obs::MetricsRegistry registry;
  obs::Histogram* hist = registry.GetHistogram("txn.latency", {10, 100});
  // Identical bounds and "whatever exists" (empty bounds) both return the
  // histogram registered first — one series, never a silent fork.
  EXPECT_EQ(registry.GetHistogram("txn.latency", {10, 100}), hist);
  EXPECT_EQ(registry.GetHistogram("txn.latency", {}), hist);
}

TEST(MetricsRegistryDeathTest, HistogramBoundsMismatchAborts) {
  obs::MetricsRegistry registry;
  registry.GetHistogram("txn.latency", {10, 100});
  // Re-registering under the same name with different bucket edges would
  // corrupt the series (observations binned against two different scales);
  // the registry treats it as a programming error and dies loudly.
  EXPECT_DEATH(registry.GetHistogram("txn.latency", {10, 200}),
               "bucket bounds mismatch");
}

TEST(Histogram, BucketEdgesAreInclusiveUpperBounds) {
  obs::Histogram hist({10, 20});
  hist.Observe(10);  // lands in bucket 0 (bound >= value)
  hist.Observe(11);  // bucket 1
  hist.Observe(20);  // bucket 1
  hist.Observe(21);  // overflow
  obs::HistogramSnapshot snap = hist.Snapshot();
  ASSERT_EQ(snap.counts.size(), 3u);
  EXPECT_EQ(snap.counts[0], 1);
  EXPECT_EQ(snap.counts[1], 2);
  EXPECT_EQ(snap.counts[2], 1);
  EXPECT_EQ(snap.count, 4);
  EXPECT_EQ(snap.sum, 62);
  EXPECT_EQ(snap.min, 10);
  EXPECT_EQ(snap.max, 21);
  // Rank math: rank(q) = floor(q*(count-1))+1. p50 -> rank 2, the first of
  // two observations in bucket 1 (edges 10..20): 10 + 10*1/2 = 15. p95/p99
  // -> rank 3, the second: 10 + 10*2/2 = 20. Before in-bucket interpolation
  // all three pinned to the bucket bound 20.
  EXPECT_EQ(snap.p50, 15);
  EXPECT_EQ(snap.p95, 20);
  EXPECT_EQ(snap.p99, 20);
  EXPECT_EQ(hist.Quantile(1.0), 21);  // overflow bucket reports the max
}

TEST(Histogram, OverflowBucketInterpolatesTowardObservedMax) {
  // Four observations beyond the last bound land in the overflow bucket.
  // Quantiles that resolve there interpolate between the last bound and
  // the observed max instead of all collapsing to the max (the old
  // behavior made p50 == p99 for any tail-heavy series).
  obs::Histogram hist({10});
  hist.Observe(20);
  hist.Observe(40);
  hist.Observe(60);
  hist.Observe(100);
  // rank(0.5) = 2 of 4 in-bucket, lower edge = observed min (20 > the last
  // bound): 20 + (100-20)*2/4 = 60 (estimate).
  EXPECT_EQ(hist.Quantile(0.5), 60);
  EXPECT_EQ(hist.Quantile(1.0), 100);  // rank 4 of 4 -> exactly the max
  // A single overflow observation still reports the max unconditionally.
  obs::Histogram lone({10});
  lone.Observe(55);
  EXPECT_EQ(lone.Quantile(0.5), 55);
}

TEST(Histogram, EmptyAndResetBehave) {
  obs::Histogram hist({5});
  EXPECT_EQ(hist.Quantile(0.5), 0);
  EXPECT_EQ(hist.min(), 0);
  hist.Observe(3);
  hist.Reset();
  EXPECT_EQ(hist.count(), 0);
  EXPECT_EQ(hist.Snapshot().p95, 0);
}

// --- SpanTracker ------------------------------------------------------------

TEST(SpanTracker, FirstCloseWinsAndUnknownIdsIgnored) {
  obs::SpanTracker spans;
  uint64_t id = spans.OpenSpan("TA", "P1", obs::kSpanService, 0, 5, "S1");
  spans.CloseSpan(id, 9, obs::kOutcomeCommitted);
  spans.CloseSpan(id, 12, obs::kOutcomeAborted, "Late");  // ignored
  spans.CloseSpan(9999, 1, obs::kOutcomeFailed);          // ignored
  std::optional<obs::SpanRecord> rec = spans.Find(id);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->end, 9);
  EXPECT_EQ(rec->outcome, obs::kOutcomeCommitted);
  EXPECT_TRUE(rec->fault.empty());
}

TEST(SpanTracker, IgnoredClosesAreCountedWhenMetricsAttached) {
  // The benign-race behavior stays (duplicated control messages legally
  // re-close spans) but each ignored close is observable once a registry
  // is attached.
  obs::SpanTracker spans;
  obs::MetricsRegistry metrics;
  spans.AttachMetrics(&metrics);
  uint64_t id = spans.OpenSpan("TA", "P1", obs::kSpanService, 0, 5, "S1");
  spans.CloseSpan(id, 9, obs::kOutcomeCommitted);  // first close: not counted
  spans.CloseSpan(id, 12, obs::kOutcomeAborted);   // duplicate
  spans.CloseSpan(9999, 1, obs::kOutcomeFailed);   // unknown id
  EXPECT_EQ(
      metrics.GetCounter(obs::kMetricObsSpansCloseUnknown)->value(), 2);
  // Detaching stops the counting but keeps ignoring late closes.
  spans.AttachMetrics(nullptr);
  spans.CloseSpan(9999, 2, obs::kOutcomeFailed);
  EXPECT_EQ(
      metrics.GetCounter(obs::kMetricObsSpansCloseUnknown)->value(), 2);
}

/// The paper's Figure 1 run with S5 failing and no handlers: the span tree
/// must reconstruct the cross-peer invocation tree (TXN at the origin,
/// SERVICE spans parented across peers via the message header) and carry
/// the abort from AP5 up to AP1.
TEST(SpanTracker, CrossPeerInvocationTreeFromFigureOne) {
  repo::AxmlRepository repository(1);
  repo::ScenarioOptions options;
  options.s5_fault_probability = 1.0;
  options.peer_options.use_fault_handlers = false;  // full abort to the root
  ASSERT_TRUE(repo::BuildFigureOne(&repository, options).ok());
  auto outcome = repository.RunTransaction("AP1", repo::kTxnName, "S1");
  ASSERT_TRUE(outcome.ok());
  EXPECT_FALSE(outcome->status.ok());

  const std::vector<obs::SpanRecord> all = repository.spans().spans();
  const obs::SpanRecord* txn = nullptr;
  std::map<std::string, const obs::SpanRecord*> service_at;  // peer -> span
  for (const obs::SpanRecord& s : all) {
    if (s.kind == obs::kSpanTxn) txn = &s;
    if (s.kind == obs::kSpanService) service_at[s.peer] = &s;
  }
  ASSERT_NE(txn, nullptr);
  EXPECT_EQ(txn->peer, "AP1");
  EXPECT_EQ(txn->outcome, obs::kOutcomeAborted);
  // All six Figure 1 peers ran a service span.
  for (const char* peer : {"AP1", "AP2", "AP3", "AP4", "AP5", "AP6"}) {
    ASSERT_TRUE(service_at.count(peer) > 0) << peer;
  }
  // Parent links reconstruct Figure 1's topology across peers.
  EXPECT_EQ(service_at["AP1"]->parent_span_id, txn->span_id);
  EXPECT_EQ(service_at["AP2"]->parent_span_id, service_at["AP1"]->span_id);
  EXPECT_EQ(service_at["AP3"]->parent_span_id, service_at["AP1"]->span_id);
  EXPECT_EQ(service_at["AP4"]->parent_span_id, service_at["AP3"]->span_id);
  EXPECT_EQ(service_at["AP5"]->parent_span_id, service_at["AP3"]->span_id);
  EXPECT_EQ(service_at["AP6"]->parent_span_id, service_at["AP5"]->span_id);
  // The abort path: AP5 failed and every ancestor aborted behind it.
  EXPECT_EQ(service_at["AP5"]->outcome, obs::kOutcomeAborted);
  EXPECT_EQ(service_at["AP3"]->outcome, obs::kOutcomeAborted);
  EXPECT_EQ(service_at["AP1"]->outcome, obs::kOutcomeAborted);
}

TEST(SpanTracker, JsonlRoundTripsThroughReportParser) {
  obs::SpanTracker spans;
  uint64_t root = spans.OpenSpan("TA", "P1", obs::kSpanTxn, 0, 0, "S");
  uint64_t child =
      spans.OpenSpan("TA", "P2", obs::kSpanService, root, 1, "S\"x\"");
  spans.CloseSpan(child, 4, obs::kOutcomeAborted, "Injected");
  spans.CloseSpan(root, 5, obs::kOutcomeAborted, "Injected");

  std::vector<report::SpanRow> rows;
  std::string error;
  ASSERT_TRUE(report::ParseSpans(spans.ToJsonl(), &rows, &error)) << error;
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].txn, "TA");
  EXPECT_EQ(rows[0].span_id, root);
  EXPECT_EQ(rows[1].parent_span_id, root);
  EXPECT_EQ(rows[1].detail, "S\"x\"");  // escaping survives the round trip
  EXPECT_EQ(rows[1].fault, "Injected");
}

TEST(SpanTracker, ToJsonlEmitsExplicitOpenOutcome) {
  obs::SpanTracker spans;
  spans.OpenSpan("TC", "P1", obs::kSpanService, 0, 3, "S");
  std::string jsonl = spans.ToJsonl();
  // Open spans must be self-describing in dumps taken mid-flight (e.g. from
  // a crashed peer): an explicit sentinel outcome, not an empty field.
  EXPECT_NE(jsonl.find("\"outcome\":\"OPEN\""), std::string::npos) << jsonl;
  EXPECT_NE(jsonl.find("\"end\":-1"), std::string::npos) << jsonl;
}

// --- axmlx_report rendering and validation ----------------------------------

TEST(Report, RendersTreeAndAbortPath) {
  obs::SpanTracker spans;
  uint64_t txn = spans.OpenSpan("TA", "AP1", obs::kSpanTxn, 0, 0, "S1");
  uint64_t s1 = spans.OpenSpan("TA", "AP1", obs::kSpanService, txn, 0, "S1");
  uint64_t s3 = spans.OpenSpan("TA", "AP3", obs::kSpanService, s1, 2, "S3");
  uint64_t s5 = spans.OpenSpan("TA", "AP5", obs::kSpanService, s3, 4, "S5");
  spans.CloseSpan(s5, 6, obs::kOutcomeAborted, "Injected");
  spans.CloseSpan(s3, 8, obs::kOutcomeAborted, "Injected");
  spans.CloseSpan(s1, 10, obs::kOutcomeAborted, "Injected");
  spans.CloseSpan(txn, 10, obs::kOutcomeAborted, "Injected");

  std::vector<report::SpanRow> rows;
  std::string error;
  ASSERT_TRUE(report::ParseSpans(spans.ToJsonl(), &rows, &error)) << error;
  std::string rendered = report::RenderSpanReport(rows);
  EXPECT_NE(rendered.find("=== txn TA"), std::string::npos) << rendered;
  // The failing peer's span is the deepest line of the tree (depth 4 under
  // TXN -> S1 -> S3, two spaces per level).
  EXPECT_NE(rendered.find("        SERVICE S5 @AP5 [4..6] ABORTED"),
            std::string::npos)
      << rendered;
  // The abort path retraces failing peer -> origin.
  EXPECT_NE(rendered.find("abort path: AP5(S5) -> AP3(S3) -> AP1(S1)"),
            std::string::npos)
      << rendered;
  EXPECT_NE(rendered.find("[Injected]"), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("by kind: SERVICE=3 TXN=1"), std::string::npos)
      << rendered;
}

TEST(Report, OpenSpansRenderAsOpen) {
  obs::SpanTracker spans;
  spans.OpenSpan("TB", "P1", obs::kSpanService, 0, 3, "S");
  std::vector<report::SpanRow> rows;
  ASSERT_TRUE(report::ParseSpans(spans.ToJsonl(), &rows, nullptr));
  std::string rendered = report::RenderSpanReport(rows);
  EXPECT_NE(rendered.find("[3..?] OPEN"), std::string::npos) << rendered;
}

TEST(Report, ParseSpansRejectsMalformedLines) {
  std::vector<report::SpanRow> rows;
  std::string error;
  EXPECT_FALSE(report::ParseSpans("{\"txn\":\"T\"}\n", &rows, &error));
  EXPECT_NE(error.find("line 1"), std::string::npos);
  rows.clear();
  EXPECT_FALSE(report::ParseSpans(
      "{\"txn\":\"T\",\"span\":1,\"kind\":\"TXN\"}\nnot json\n", &rows,
      &error));
  EXPECT_NE(error.find("line 2"), std::string::npos);
}

TEST(Report, CheckBenchJsonAcceptsWellFormedReport) {
  const std::string good =
      "{\"schema\":\"axmlx-bench-v1\",\"bench\":\"demo\",\"smoke\":true,"
      "\"ops_per_sec\":12.5,\"counters\":{\"a\":1},"
      "\"histograms\":{\"lat\":{\"bounds\":[10],\"counts\":[2,1],"
      "\"count\":3,\"sum\":25,\"min\":5,\"max\":12,\"p50\":10,\"p95\":12,"
      "\"p99\":12}}}";
  EXPECT_EQ(report::CheckBenchJson(good), "");
}

TEST(Report, CheckBenchJsonRejectsSchemaAndShapeProblems) {
  EXPECT_NE(report::CheckBenchJson("not json"), "");
  EXPECT_NE(report::CheckBenchJson("{\"schema\":\"other\"}"), "");
  // Bucket counts must sum to count.
  const std::string bad_sum =
      "{\"schema\":\"axmlx-bench-v1\",\"bench\":\"demo\",\"smoke\":false,"
      "\"ops_per_sec\":1,\"counters\":{},"
      "\"histograms\":{\"lat\":{\"bounds\":[10],\"counts\":[2,1],"
      "\"count\":5,\"sum\":25,\"min\":5,\"max\":12,\"p50\":10,\"p95\":12,"
      "\"p99\":12}}}";
  EXPECT_NE(report::CheckBenchJson(bad_sum).find("sum to count"),
            std::string::npos);
  // counts size must be bounds size + 1.
  const std::string bad_shape =
      "{\"schema\":\"axmlx-bench-v1\",\"bench\":\"demo\",\"smoke\":false,"
      "\"ops_per_sec\":1,\"counters\":{},"
      "\"histograms\":{\"lat\":{\"bounds\":[10],\"counts\":[2],"
      "\"count\":2,\"sum\":8,\"min\":4,\"max\":4,\"p50\":4,\"p95\":4,"
      "\"p99\":4}}}";
  EXPECT_NE(report::CheckBenchJson(bad_shape), "");
}

// --- Trace renderers (satellites: Mermaid hardening + JSONL) ---------------

TEST(TraceLog, ToJsonlEscapesAndEmitsOneObjectPerLine) {
  Trace trace;
  trace.Add(1, "A", kEvSend, "INVOKE -> B");
  trace.Add(2, "B", kEvRecv, "payload \"quoted\"\nnewline");
  std::string jsonl = trace.ToJsonl();
  std::string error;
  size_t lines = 0;
  std::istringstream in(jsonl);
  for (std::string line; std::getline(in, line);) {
    ++lines;
    auto doc = obs::ParseJson(line, &error);
    ASSERT_TRUE(doc.has_value()) << error << ": " << line;
    EXPECT_TRUE(doc->Find("time")->is_number());
  }
  EXPECT_EQ(lines, 2u);
  EXPECT_NE(jsonl.find("\\\"quoted\\\""), std::string::npos);
}

TEST(TraceLog, MermaidSkipsMalformedSendsAndSanitizesLabels) {
  Trace trace;
  trace.Add(1, "A", kEvSend, "INVOKE -> B");
  trace.Add(2, "A", kEvSend, "free-form detail without arrow");
  trace.Add(3, "A;evil", kEvSend, "INVOKE -> B");      // bad actor token
  trace.Add(4, "A", kEvSend, "INVOKE -> P;rogue");     // bad peer token
  trace.Add(5, "B", kEvDisconnect, "note; with : colons");
  std::string mermaid = trace.ToMermaid();
  EXPECT_NE(mermaid.find("A->>B: INVOKE"), std::string::npos) << mermaid;
  EXPECT_EQ(mermaid.find("free-form"), std::string::npos) << mermaid;
  EXPECT_EQ(mermaid.find("evil"), std::string::npos) << mermaid;
  EXPECT_EQ(mermaid.find("rogue"), std::string::npos) << mermaid;
  // The note survives, its separators neutralized.
  EXPECT_EQ(mermaid.find("note; with : colons"), std::string::npos) << mermaid;
  EXPECT_NE(mermaid.find("DISCONNECT"), std::string::npos) << mermaid;
}

TEST(TraceLog, CountKindTracksAddAndClear) {
  Trace trace;
  for (int i = 0; i < 5; ++i) trace.Add(i, "A", kEvSend, "INVOKE -> B");
  trace.Add(9, "A", kEvDrop, "x");
  EXPECT_EQ(trace.CountKind(kEvSend), 5);
  EXPECT_EQ(trace.CountKind(kEvDrop), 1);
  EXPECT_EQ(trace.CountKind("ABSENT"), 0);
  trace.Clear();
  EXPECT_EQ(trace.CountKind(kEvSend), 0);
}

}  // namespace
}  // namespace axmlx
