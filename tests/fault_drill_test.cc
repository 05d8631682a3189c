#include "repo/fault_drill.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "compensation/compensation.h"
#include "ops/operation.h"
#include "repo/axml_repository.h"
#include "txn/payload.h"
#include "txn/peer.h"
#include "xml/document.h"

namespace axmlx::repo {
namespace {

std::string JoinDetails(const std::vector<std::string>& details) {
  std::string out;
  for (const std::string& d : details) out += d + "\n";
  return out;
}

FaultDrillOptions BaseOptions(const std::string& test_name, uint64_t seed) {
  FaultDrillOptions options;
  options.seed = seed;
  options.storage_dir = ::testing::TempDir() + "axmlx_drill_" + test_name;
  options.depth = 1;
  options.fanout = 3;
  options.transactions = 8;
  return options;
}

TEST(FaultDrillTest, CleanNetworkCommitsEverything) {
  FaultDrillOptions options = BaseOptions("clean", 101);
  FaultDrill drill(options);
  auto report = drill.Run();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->committed, options.transactions);
  EXPECT_EQ(report->aborted, 0);
  EXPECT_EQ(report->undecided, 0);
  EXPECT_EQ(report->violations, 0);
  EXPECT_EQ(report->dangling_contexts, 0);
  EXPECT_EQ(report->pending_control, 0u);
}

TEST(FaultDrillTest, DropsAndDupsPreserveAtomicity) {
  FaultDrillOptions options = BaseOptions("dropdup", 202);
  options.drop_rate = 0.1;
  options.dup_rate = 0.1;
  options.delay_max = 4;
  options.transactions = 12;
  FaultDrill drill(options);
  auto report = drill.Run();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->violations, 0)
      << JoinDetails(report->violation_details);
  EXPECT_EQ(report->committed + report->aborted + report->undecided,
            options.transactions);
  // The drill actually exercised the injector.
  EXPECT_GT(report->faults.dropped + report->faults.duplicated, 0);
}

TEST(FaultDrillTest, PartitionsAbortButNeverTear) {
  FaultDrillOptions options = BaseOptions("partition", 303);
  options.partition_every = 2;
  options.transactions = 8;
  FaultDrill drill(options);
  auto report = drill.Run();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->violations, 0)
      << JoinDetails(report->violation_details);
  EXPECT_GT(report->faults.partition_blocked, 0);
  // Un-partitioned transactions still commit.
  EXPECT_GT(report->committed, 0);
}

TEST(FaultDrillTest, CrashRestartRecoversFromWalAlone) {
  FaultDrillOptions options = BaseOptions("crash", 404);
  options.crash_every = 2;
  options.transactions = 8;
  FaultDrill drill(options);
  auto report = drill.Run();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->violations, 0)
      << JoinDetails(report->violation_details);
  EXPECT_EQ(report->crashes, 4);
  EXPECT_EQ(report->restarts, 4);
  // Restarted peers were rebuilt from their WAL: replay happened, and
  // crashes mid-transaction forced presumed-abort rollbacks on Open().
  EXPECT_GT(report->wal_replayed_ops, 0);
}

TEST(FaultDrillTest, EverythingAtOnceStillAtomic) {
  FaultDrillOptions options = BaseOptions("chaos", 505);
  options.drop_rate = 0.05;
  options.dup_rate = 0.05;
  options.delay_max = 3;
  options.partition_every = 3;
  options.crash_every = 4;
  options.transactions = 12;
  FaultDrill drill(options);
  auto report = drill.Run();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->violations, 0)
      << JoinDetails(report->violation_details);
  EXPECT_GT(report->crashes, 0);
  EXPECT_GT(report->faults.partition_blocked, 0);
}

// Depth-2 drill cells (13 workers with fanout 3, 7 with fanout 2), keepalive
// on. An aborted transaction used to leak the keepalive watch on a failed
// but reachable child; the monitor then ran the clock to the quiescence
// budget, every later transaction was sent into a dead clock, and each cell
// reported hundreds of violations. Drops x crashes stays out: that is a
// separate open defect in abort propagation across a crash.
// The cell holds no pointer: gtest names each case after the cell's raw
// bytes, and a string address there would change the name on every run.
struct DepthTwoCell {
  uint64_t seeds;  // seeds 1..seeds each run the cell once
  int fanout;
  int partition_every;
  double dup_rate;
};

std::string CellName(const DepthTwoCell& cell) {
  return "f" + std::to_string(cell.fanout) +
         (cell.dup_rate > 0 ? "_dup_crash" : "_partition_crash");
}

class DepthTwoDrillTest : public ::testing::TestWithParam<DepthTwoCell> {};

TEST_P(DepthTwoDrillTest, AtomicLiveAndClockBounded) {
  const DepthTwoCell& cell = GetParam();
  for (uint64_t seed = 1; seed <= cell.seeds; ++seed) {
    FaultDrillOptions options = BaseOptions("d2_" + CellName(cell), seed);
    options.depth = 2;
    options.fanout = cell.fanout;
    options.transactions = 16;
    options.partition_every = cell.partition_every;
    options.dup_rate = cell.dup_rate;
    options.crash_every = 4;
    FaultDrill drill(options);
    auto report = drill.Run();
    ASSERT_TRUE(report.ok()) << report.status();
    SCOPED_TRACE("seed " + std::to_string(seed));
    EXPECT_EQ(report->violations, 0)
        << JoinDetails(report->violation_details);
    EXPECT_EQ(report->undecided, 0);
    EXPECT_EQ(report->harness_errors, 0);
    EXPECT_GT(report->crashes, 0);
    // Every transaction decides within a few hundred ticks; a leaked timer
    // would have run the clock up to the budget.
    EXPECT_LT(report->final_time, overlay::Network::kQuiescenceBudget / 100);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cells, DepthTwoDrillTest,
    ::testing::Values(DepthTwoCell{5, 2, 3, 0.0}, DepthTwoCell{5, 2, 0, 0.05},
                      DepthTwoCell{5, 3, 3, 0.0}, DepthTwoCell{5, 3, 0, 0.05}),
    [](const ::testing::TestParamInfo<DepthTwoCell>& info) {
      return CellName(info.param);
    });

// Journal that only records dedup keys — stands in for the DurableStore
// adapter so the test can watch exactly which keys the peer admits.
class DedupRecordingJournal : public txn::WriteJournal {
 public:
  void OnApply(const std::string&, const std::string&,
               const std::vector<ops::Operation>&) override {}
  void OnResolved(const std::string&, bool) override {}
  void OnDedup(const std::string& key) override { keys.push_back(key); }
  std::vector<std::string> keys;
};

int CountItems(txn::AxmlPeer* peer) {
  xml::Document* doc = peer->repository().GetDocument("Inv");
  if (doc == nullptr) return -1;
  int n = 0;
  doc->Walk(doc->root(), [&](const xml::Node& node) {
    if (node.type == xml::NodeType::kElement && node.name == "it") ++n;
    return true;
  });
  return n;
}

overlay::Message MakeCompensate(const overlay::PeerId& to) {
  auto payload = std::make_shared<txn::CompensatePayload>();
  payload->document = "Inv";
  payload->plan.operations.push_back(
      ops::MakeInsert("Select d from d in Inv/items", "<it>comp</it>"));
  overlay::Message m;
  m.from = "coordinator";
  m.to = to;
  m.type = txn::kMsgCompensate;
  m.headers[txn::kHdrTxn] = "t_redeliver";
  m.headers[txn::kHdrDedup] = "comp/t_redeliver/P1";
  m.attachment = std::move(payload);
  return m;
}

// A COMPENSATE retransmission that lands *after* the receiving peer crashed
// and restarted must still be suppressed: the at-most-once window is rebuilt
// from journaled dedup keys (DurableStore DEDUP records via
// WriteJournal::OnDedup → SeedDedupKey), so the shipped plan is applied
// exactly once across incarnations. Before the fix the rebuilt peer had an
// empty window and ran the plan a second time.
TEST(FaultDrillTest, CompensateRedeliveryAfterRestart) {
  AxmlRepository repo(42);
  AxmlRepository::PeerConfig config;
  config.id = "P1";
  auto peer = repo.AddPeer(config);
  ASSERT_TRUE(peer.ok()) << peer.status();
  ASSERT_TRUE(
      repo.HostDocument("P1", "<Inv><items><it>base</it></items></Inv>").ok());
  DedupRecordingJournal journal;
  (*peer)->AttachJournal(&journal);

  // First delivery applies the plan; the duplicate in the same incarnation
  // is suppressed by the in-memory window.
  overlay::Message m = MakeCompensate("P1");
  (*peer)->OnMessage(m, &repo.network());
  (*peer)->OnMessage(m, &repo.network());
  EXPECT_EQ(CountItems(*peer), 2);
  EXPECT_EQ((*peer)->stats().compensations_executed, 1);
  ASSERT_EQ(journal.keys.size(), 1u);
  EXPECT_EQ(journal.keys[0], "comp/t_redeliver/P1");

  // Crash-restart: all volatile state (including the dedup window) is gone.
  ASSERT_TRUE(repo.CrashPeer("P1").ok());
  auto rebuilt = repo.RestartPeer(config);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
  ASSERT_TRUE(
      repo.HostDocument("P1", "<Inv><items><it>base</it><it>comp</it>"
                              "</items></Inv>")
          .ok());
  // What FaultDrill::RestartNow does from the recovered WAL: re-seed the
  // window with every journaled key.
  for (const std::string& key : journal.keys) (*rebuilt)->SeedDedupKey(key);

  // The retransmission hits the rebuilt window — plan NOT applied again.
  (*rebuilt)->OnMessage(m, &repo.network());
  EXPECT_EQ(CountItems(*rebuilt), 2);
  EXPECT_EQ((*rebuilt)->stats().compensations_executed, 0);

  // Control: without seeding, the same redelivery double-applies — the
  // exact failure mode the journal exists to prevent.
  ASSERT_TRUE(repo.CrashPeer("P1").ok());
  auto unseeded = repo.RestartPeer(config);
  ASSERT_TRUE(unseeded.ok()) << unseeded.status();
  ASSERT_TRUE(
      repo.HostDocument("P1", "<Inv><items><it>base</it><it>comp</it>"
                              "</items></Inv>")
          .ok());
  (*unseeded)->OnMessage(m, &repo.network());
  EXPECT_EQ(CountItems(*unseeded), 3);
  EXPECT_EQ((*unseeded)->stats().compensations_executed, 1);
}

/// Every WAL file under `root` (all peers, all crash incarnations), keyed
/// by its path relative to `root`.
std::map<std::string, std::string> CollectWals(const std::string& root) {
  std::map<std::string, std::string> wals;
  std::error_code ec;
  for (auto it = std::filesystem::recursive_directory_iterator(root, ec);
       !ec && it != std::filesystem::recursive_directory_iterator(); ++it) {
    if (!it->is_regular_file()) continue;
    const std::string name = it->path().filename().string();
    if (name.rfind("wal", 0) != 0 || name.find(".log") == std::string::npos) {
      continue;
    }
    std::ifstream in(it->path(), std::ios::binary);
    std::ostringstream contents;
    contents << in.rdbuf();
    wals[std::filesystem::relative(it->path(), root).string()] =
        contents.str();
  }
  return wals;
}

struct SeededDrill {
  FaultDrillReport report;
  std::map<std::string, std::string> wals;
};

/// Runs the seed-813 crash drill (depth 1, fanout 2, drops, delays, two
/// crash/recover cycles) in its own directory and collects its WALs.
SeededDrill RunSeededDrill(const std::string& tag) {
  FaultDrillOptions options = BaseOptions("seeded_" + tag, 813);
  options.fanout = 2;
  options.ops_per_service = 2;
  options.drop_rate = 0.05;
  options.delay_max = 3;
  options.crash_every = 4;
  FaultDrill drill(options);
  auto report = drill.Run();
  EXPECT_TRUE(report.ok()) << report.status();
  SeededDrill out;
  if (report.ok()) out.report = *report;
  out.wals = CollectWals(options.storage_dir);
  std::error_code ec;
  std::filesystem::remove_all(options.storage_dir, ec);
  return out;
}

// Same seed, same run: the drill is the oracle behind byte-identical WAL
// replay, so two runs must agree on every decision and on every byte every
// peer journaled, across every crash incarnation.
TEST(FaultDrillTest, SameSeedWritesIdenticalWals) {
  SeededDrill first = RunSeededDrill("a");
  SeededDrill second = RunSeededDrill("b");
  EXPECT_EQ(first.report.violations, 0)
      << JoinDetails(first.report.violation_details);
  EXPECT_EQ(second.report.violations, 0)
      << JoinDetails(second.report.violation_details);
  EXPECT_EQ(first.report.crashes, 2);
  EXPECT_GT(first.report.committed, 0);
  EXPECT_EQ(second.report.committed, first.report.committed);
  EXPECT_EQ(second.report.aborted, first.report.aborted);
  EXPECT_EQ(second.report.undecided, first.report.undecided);
  EXPECT_EQ(second.report.wal_replayed_ops, first.report.wal_replayed_ops);
  ASSERT_FALSE(first.wals.empty());
  ASSERT_EQ(second.wals.size(), first.wals.size());
  for (const auto& [path, bytes] : first.wals) {
    auto it = second.wals.find(path);
    ASSERT_NE(it, second.wals.end()) << "missing " << path;
    EXPECT_EQ(it->second, bytes) << "diverged in " << path;
  }
}

}  // namespace
}  // namespace axmlx::repo
