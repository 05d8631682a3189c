#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "common/rng.h"
#include "obs/metric_names.h"
#include "compensation/compensation.h"
#include "ops/executor.h"
#include "ops/operation.h"
#include "storage/durable_store.h"
#include "tests/test_data.h"
#include "xml/parser.h"

namespace axmlx::storage {
namespace {

class StorageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "axmlx_store_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    // Fresh directory per test.
    std::remove((dir_ + "/wal.log").c_str());
    std::remove((dir_ + "/manifest.txt").c_str());
    std::remove((dir_ + "/snap_ATPList.xml").c_str());
    std::remove((dir_ + "/snap_Other.xml").c_str());
  }

  std::unique_ptr<DurableStore> OpenStore() {
    auto store = std::make_unique<DurableStore>(dir_, testing::AtpInvoker());
    Status s = store->Open();
    EXPECT_TRUE(s.ok()) << s;
    return store;
  }

  // A failed operation must leave no OP record: replay would run it again,
  // fail, and the store would never open. `bad` fails; the transaction then
  // aborts, and the reopened store must match the pre-transaction document.
  void ExpectFailedOpLeavesNoRecord(const ops::Operation& bad,
                                    StatusCode expected) {
    std::string before;
    {
      auto store = OpenStore();
      ASSERT_TRUE(store->CreateDocument(testing::kAtpListXml).ok());
      before = store->Get("ATPList")->Serialize();
      ASSERT_TRUE(store->Begin("T1").ok());
      auto failed = store->Execute("T1", "ATPList", bad);
      ASSERT_FALSE(failed.ok());
      EXPECT_EQ(failed.status().code(), expected) << failed.status();
      Status aborted = store->Abort("T1");
      ASSERT_TRUE(aborted.ok()) << aborted;
      EXPECT_EQ(store->Get("ATPList")->Serialize(), before);
    }
    auto reopened = OpenStore();
    ASSERT_NE(reopened->Get("ATPList"), nullptr);
    EXPECT_EQ(reopened->stats().replayed_ops, 0);
    EXPECT_EQ(reopened->Get("ATPList")->Serialize(), before);
  }

  std::string dir_;
};

TEST_F(StorageTest, WalPayloadEscapingRoundTrips) {
  std::string raw = "line1\nline2\r%25 <a b=\"c\"/>";
  EXPECT_EQ(DecodeWalPayload(EncodeWalPayload(raw)), raw);
  EXPECT_EQ(EncodeWalPayload(raw).find('\n'), std::string::npos);
}

TEST_F(StorageTest, CommittedWorkSurvivesRestart) {
  {
    auto store = OpenStore();
    ASSERT_TRUE(store->CreateDocument(testing::kAtpListXml).ok());
    ASSERT_TRUE(store->Begin("T1").ok());
    auto effect = store->Execute(
        "T1", "ATPList",
        ops::MakeInsert("Select p from p in ATPList//player "
                        "where p/name/lastname = Nadal",
                        "<coach>Toni</coach>"));
    ASSERT_TRUE(effect.ok()) << effect.status();
    ASSERT_TRUE(store->Commit("T1").ok());
    // No checkpoint: durability must come from the WAL alone.
  }
  auto reopened = OpenStore();
  ASSERT_GT(reopened->stats().replayed_ops, 0);
  xml::Document* doc = reopened->Get("ATPList");
  ASSERT_NE(doc, nullptr);
  bool found = false;
  doc->Walk(doc->root(), [&found](const xml::Node& n) {
    if (n.is_element() && n.name == "coach") found = true;
    return true;
  });
  EXPECT_TRUE(found);
}

TEST_F(StorageTest, InFlightTransactionIsRolledBackOnRecovery) {
  std::string before;
  {
    auto store = OpenStore();
    ASSERT_TRUE(store->CreateDocument(testing::kAtpListXml).ok());
    before = store->Get("ATPList")->Serialize();
    ASSERT_TRUE(store->Begin("T1").ok());
    ASSERT_TRUE(store
                    ->Execute("T1", "ATPList",
                              ops::MakeDelete(
                                  "Select p/citizenship from p in "
                                  "ATPList//player"))
                    .ok());
    // Crash: no Commit, store destroyed.
  }
  auto reopened = OpenStore();
  EXPECT_EQ(reopened->stats().recovered_txns, 1);
  EXPECT_EQ(reopened->Get("ATPList")->Serialize(), before);
}

TEST_F(StorageTest, DurableAbortStaysRolledBackAfterRestart) {
  std::string before;
  {
    auto store = OpenStore();
    ASSERT_TRUE(store->CreateDocument(testing::kAtpListXml).ok());
    before = store->Get("ATPList")->Serialize();
    ASSERT_TRUE(store->Begin("T1").ok());
    ASSERT_TRUE(store
                    ->Execute("T1", "ATPList",
                              ops::MakeReplace(
                                  "Select p/citizenship from p in "
                                  "ATPList//player "
                                  "where p/name/lastname = Nadal",
                                  "<citizenship>USA</citizenship>"))
                    .ok());
    ASSERT_TRUE(store->Abort("T1").ok());
    EXPECT_EQ(store->Get("ATPList")->Serialize(), before);
  }
  auto reopened = OpenStore();
  EXPECT_EQ(reopened->stats().recovered_txns, 0);  // abort was durable
  EXPECT_EQ(reopened->Get("ATPList")->Serialize(), before);
}

TEST_F(StorageTest, MalformedPayloadLeavesNoWalRecord) {
  ExpectFailedOpLeavesNoRecord(
      ops::MakeInsert("Select d from d in ATPList", "<a>"),
      StatusCode::kParseError);
}

TEST_F(StorageTest, UnknownTargetLeavesNoWalRecord) {
  ExpectFailedOpLeavesNoRecord(ops::MakeDeleteById(999999),
                               StatusCode::kNotFound);
}

TEST_F(StorageTest, CheckpointTruncatesWalAndPreservesState) {
  std::string committed_state;
  {
    auto store = OpenStore();
    ASSERT_TRUE(store->CreateDocument(testing::kAtpListXml).ok());
    ASSERT_TRUE(store->Begin("T1").ok());
    ASSERT_TRUE(store
                    ->Execute("T1", "ATPList",
                              ops::MakeInsert(
                                  "Select p from p in ATPList//player "
                                  "where p/name/lastname = Federer",
                                  "<sponsor>RF</sponsor>"))
                    .ok());
    ASSERT_TRUE(store->Commit("T1").ok());
    ASSERT_TRUE(store->Checkpoint().ok());
    committed_state = store->Get("ATPList")->Serialize();
  }
  auto reopened = OpenStore();
  EXPECT_EQ(reopened->stats().replayed_ops, 0);  // WAL was truncated
  EXPECT_EQ(reopened->Get("ATPList")->Serialize(), committed_state);
}

TEST_F(StorageTest, CheckpointRefusedWithActiveTransactions) {
  auto store = OpenStore();
  ASSERT_TRUE(store->CreateDocument(testing::kAtpListXml).ok());
  ASSERT_TRUE(store->Begin("T1").ok());
  EXPECT_EQ(store->Checkpoint().code(), StatusCode::kFailedPrecondition);
}

TEST_F(StorageTest, MaterializingQueryReplaysDeterministically) {
  // Queries mutate the document (materialization, §3.1); replay re-invokes
  // the same deterministic services and converges to the same state.
  std::string after;
  {
    auto store = OpenStore();
    ASSERT_TRUE(store->CreateDocument(testing::kAtpListXml).ok());
    ASSERT_TRUE(store->Begin("T1").ok());
    auto effect = store->Execute(
        "T1", "ATPList",
        ops::MakeQuery("Select p/points from p in ATPList//player "
                       "where p/name/lastname = Federer"));
    ASSERT_TRUE(effect.ok()) << effect.status();
    ASSERT_TRUE(store->Commit("T1").ok());
    after = store->Get("ATPList")->Serialize();
    EXPECT_NE(after.find("890"), std::string::npos);
  }
  auto reopened = OpenStore();
  EXPECT_EQ(reopened->Get("ATPList")->Serialize(), after);
}

TEST_F(StorageTest, ExternalsAreJournaledForReplay) {
  // getGrandSlamsWonbyYear needs $year; the value must survive recovery so
  // replay rematerializes identically.
  std::string after;
  {
    auto store = OpenStore();
    ASSERT_TRUE(store->CreateDocument(testing::kAtpListXml).ok());
    ASSERT_TRUE(store->SetExternal("year", "2005").ok());
    ASSERT_TRUE(store->Begin("T1").ok());
    auto effect = store->Execute(
        "T1", "ATPList",
        ops::MakeQuery("Select p/grandslamswon from p in ATPList//player "
                       "where p/name/lastname = Federer"));
    ASSERT_TRUE(effect.ok()) << effect.status();
    ASSERT_TRUE(store->Commit("T1").ok());
    after = store->Get("ATPList")->Serialize();
    EXPECT_NE(after.find("2005"), std::string::npos);
  }
  auto reopened = OpenStore();
  EXPECT_EQ(reopened->Get("ATPList")->Serialize(), after);
}

TEST_F(StorageTest, ApiGuards) {
  DurableStore unopened(dir_, nullptr);
  EXPECT_FALSE(unopened.Begin("T").ok());
  EXPECT_FALSE(unopened.CreateDocument("<X/>").ok());

  auto store = OpenStore();
  EXPECT_FALSE(store->Execute("nope", "Doc", ops::MakeQuery("x")).ok());
  EXPECT_FALSE(store->Commit("nope").ok());
  EXPECT_FALSE(store->Abort("nope").ok());
  ASSERT_TRUE(store->CreateDocument("<Other><a/></Other>").ok());
  EXPECT_EQ(store->CreateDocument("<Other/>").code(),
            StatusCode::kAlreadyExists);
  ASSERT_TRUE(store->Begin("T").ok());
  EXPECT_EQ(store->Begin("T").code(), StatusCode::kAlreadyExists);
  auto missing_doc = store->Execute("T", "Missing", ops::MakeQuery("x"));
  EXPECT_EQ(missing_doc.status().code(), StatusCode::kNotFound);
}

TEST_F(StorageTest, MultipleInterleavedTransactions) {
  std::string before;
  {
    auto store = OpenStore();
    ASSERT_TRUE(store->CreateDocument(testing::kAtpListXml).ok());
    before = store->Get("ATPList")->Serialize();
    ASSERT_TRUE(store->Begin("T1").ok());
    ASSERT_TRUE(store->Begin("T2").ok());
    ASSERT_TRUE(store
                    ->Execute("T1", "ATPList",
                              ops::MakeInsert(
                                  "Select p from p in ATPList//player "
                                  "where p/name/lastname = Federer",
                                  "<t1/>"))
                    .ok());
    ASSERT_TRUE(store
                    ->Execute("T2", "ATPList",
                              ops::MakeInsert(
                                  "Select p from p in ATPList//player "
                                  "where p/name/lastname = Nadal",
                                  "<t2/>"))
                    .ok());
    ASSERT_TRUE(store->Commit("T1").ok());
    // T2 is in flight at the crash.
  }
  auto reopened = OpenStore();
  EXPECT_EQ(reopened->stats().recovered_txns, 1);
  std::string state = reopened->Get("ATPList")->Serialize();
  EXPECT_NE(state.find("<t1/>"), std::string::npos);   // committed kept
  EXPECT_EQ(state.find("<t2/>"), std::string::npos);   // loser undone
}

TEST_F(StorageTest, GroupCommitBatchesRecordsUntilResolve) {
  DurableStore store(dir_, testing::AtpInvoker(), FlushPolicy::OnResolve());
  ASSERT_TRUE(store.Open().ok());
  ASSERT_TRUE(store.CreateDocument(testing::kAtpListXml).ok());
  const int64_t flushes_before =
      store.metrics().Snapshot().counters.at(obs::kMetricWalFlushes);
  ASSERT_TRUE(store.Begin("T1").ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(store
                    .Execute("T1", "ATPList",
                             ops::MakeInsert("Select d from d in ATPList",
                                             "<x/>"))
                    .ok());
  }
  // Under OnResolve, the five OP records sit in the batch: no new flushes.
  EXPECT_EQ(store.metrics().Snapshot().counters.at(obs::kMetricWalFlushes),
            flushes_before);
  ASSERT_TRUE(store.Commit("T1").ok());
  // RESOLVED force-flushes exactly once for the whole transaction.
  EXPECT_EQ(store.metrics().Snapshot().counters.at(obs::kMetricWalFlushes),
            flushes_before + 1);
  EXPECT_GE(
      store.metrics().Snapshot().counters.at(obs::kMetricWalRecordsBatched), 7);
}

TEST_F(StorageTest, EveryNPolicyFlushesInBatches) {
  DurableStore store(dir_, testing::AtpInvoker(), FlushPolicy::EveryN(3));
  ASSERT_TRUE(store.Open().ok());
  ASSERT_TRUE(store.CreateDocument(testing::kAtpListXml).ok());
  ASSERT_TRUE(store.FlushWal().ok());  // drain the NEWDOC record
  const int64_t before =
      store.metrics().Snapshot().counters.at(obs::kMetricWalFlushes);
  ASSERT_TRUE(store.Begin("T1").ok());
  ASSERT_TRUE(store
                  .Execute("T1", "ATPList",
                           ops::MakeInsert("Select d from d in ATPList",
                                           "<x/>"))
                  .ok());
  // BEGIN + one OP = 2 pending records, below the threshold of 3.
  EXPECT_EQ(store.metrics().Snapshot().counters.at(obs::kMetricWalFlushes),
            before);
  ASSERT_TRUE(store
                  .Execute("T1", "ATPList",
                           ops::MakeInsert("Select d from d in ATPList",
                                           "<y/>"))
                  .ok());
  // Third record crosses the threshold.
  EXPECT_EQ(store.metrics().Snapshot().counters.at(obs::kMetricWalFlushes),
            before + 1);
  ASSERT_TRUE(store.Commit("T1").ok());
}

TEST_F(StorageTest, ExplicitFlushWalDrainsTheBatch) {
  DurableStore store(dir_, testing::AtpInvoker(), FlushPolicy::OnResolve());
  ASSERT_TRUE(store.Open().ok());
  ASSERT_TRUE(store.CreateDocument(testing::kAtpListXml).ok());
  ASSERT_TRUE(store.Begin("T1").ok());
  const int64_t before =
      store.metrics().Snapshot().counters.at(obs::kMetricWalFlushes);
  ASSERT_TRUE(store.FlushWal().ok());
  EXPECT_EQ(store.metrics().Snapshot().counters.at(obs::kMetricWalFlushes),
            before + 1);
  ASSERT_TRUE(store.Abort("T1").ok());
}

TEST_F(StorageTest, PublishesHotPathCountersInMetrics) {
  auto store = OpenStore();
  ASSERT_TRUE(store->CreateDocument(testing::kAtpListXml).ok());
  ASSERT_TRUE(store->Begin("T1").ok());
  ASSERT_TRUE(store
                  ->Execute("T1", "ATPList",
                            ops::MakeInsert(
                                "Select p from p in ATPList//player "
                                "where p/name/lastname = Nadal",
                                "<flag/>"))
                  .ok());
  ASSERT_TRUE(store->Commit("T1").ok());
  auto counters = store->metrics().Snapshot().counters;
  // The insert allocated nodes and its descendant step rode the tag index.
  EXPECT_GT(counters.at(obs::kMetricDocNodesAllocated), 0);
  EXPECT_GT(counters.at(obs::kMetricQueryIndexHits) +
                counters.at(obs::kMetricQueryWalkFallbacks),
            0);
  EXPECT_GT(counters.at(obs::kMetricWalFlushes), 0);
}

TEST_F(StorageTest, SeedAndReplayNodesArePublishedBeforeTheFirstTxn) {
  int64_t seeded = 0;
  {
    auto store = OpenStore();
    ASSERT_TRUE(store->CreateDocument(testing::kAtpListXml).ok());
    seeded = store->Get("ATPList")->storage_stats().nodes_allocated;
    ASSERT_GT(seeded, 0);
    // Published by CreateDocument itself, not by the first Execute.
    EXPECT_EQ(
        store->metrics().Snapshot().counters.at(obs::kMetricDocNodesAllocated),
        seeded);
  }
  // Replay in Open allocates the same nodes again; Open publishes them.
  auto reopened = OpenStore();
  EXPECT_EQ(reopened->metrics().Snapshot().counters.at(
                obs::kMetricDocNodesAllocated),
            reopened->Get("ATPList")->storage_stats().nodes_allocated);
  EXPECT_EQ(reopened->Get("ATPList")->storage_stats().nodes_allocated, seeded);
}

TEST_F(StorageTest, BatchedCommitSurvivesRestart) {
  {
    DurableStore store(dir_, testing::AtpInvoker(), FlushPolicy::OnResolve());
    ASSERT_TRUE(store.Open().ok());
    ASSERT_TRUE(store.CreateDocument(testing::kAtpListXml).ok());
    ASSERT_TRUE(store.Begin("T1").ok());
    ASSERT_TRUE(store
                    .Execute("T1", "ATPList",
                             ops::MakeInsert("Select d from d in ATPList",
                                             "<kept/>"))
                    .ok());
    ASSERT_TRUE(store.Commit("T1").ok());
  }
  DurableStore reopened(dir_, testing::AtpInvoker(), FlushPolicy::OnResolve());
  ASSERT_TRUE(reopened.Open().ok());
  EXPECT_NE(reopened.Get("ATPList")->Serialize().find("<kept/>"),
            std::string::npos);
}

// --- Id-exact WAL compensation records and snapshots ----------------------

std::string ReadAll(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void WriteAll(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::trunc);
  out << content;
}

/// `text` with every ` ids="..."` attribute value replaced by `value`, or
/// the attribute dropped when `value` is null.
std::string WithIds(std::string text, const std::string* value) {
  const std::string key = " ids=\"";
  for (size_t at = text.find(key); at != std::string::npos;
       at = text.find(key, at + 1)) {
    const size_t end = text.find('"', at + key.size()) + 1;
    text.replace(at, end - at, value == nullptr ? "" : key + *value + "\"");
  }
  return text;
}

/// Node-for-node equality by id, plus the id counter and serialization.
void ExpectSameNodes(const xml::Document& live, const xml::Document& replayed) {
  EXPECT_EQ(live.next_id(), replayed.next_id());
  EXPECT_EQ(live.Serialize(), replayed.Serialize());
  const xml::NodeId end = std::max(live.next_id(), replayed.next_id());
  for (xml::NodeId id = 1; id < end; ++id) {
    const xml::Node* a = live.Find(id);
    const xml::Node* b = replayed.Find(id);
    ASSERT_EQ(a == nullptr, b == nullptr) << "node " << id;
    if (a == nullptr) continue;
    EXPECT_EQ(a->type, b->type) << "node " << id;
    EXPECT_EQ(a->name, b->name) << "node " << id;
    EXPECT_EQ(a->text, b->text) << "node " << id;
    EXPECT_EQ(a->attributes, b->attributes) << "node " << id;
    EXPECT_EQ(a->parent, b->parent) << "node " << id;
    EXPECT_EQ(a->children, b->children) << "node " << id;
  }
}

xml::NodeId FindElement(const xml::Document& doc, const std::string& name) {
  xml::NodeId found = xml::kNullNode;
  doc.Walk(doc.root(), [&](const xml::Node& n) {
    if (found == xml::kNullNode && n.is_element() && n.name == name) {
      found = n.id;
    }
    return true;
  });
  return found;
}

const char kFedererPoints[] =
    "Select p/points from p in ATPList//player "
    "where p/name/lastname = Federer";

/// T1 materializes the replace-mode getPoints call through a lazy query and
/// aborts: its compensation re-attaches the old <points> under its original
/// ids. Optionally checkpoints. T2 then deletes that node by id and inserts
/// a coach, and commits. Returns the live document as the crash left it.
std::unique_ptr<xml::Document> RunAbortThenMutate(DurableStore* store,
                                                  bool checkpoint) {
  EXPECT_TRUE(store->CreateDocument(testing::kAtpListXml).ok());
  const xml::NodeId points = FindElement(*store->Get("ATPList"), "points");
  EXPECT_TRUE(store->Begin("T1").ok());
  auto queried =
      store->Execute("T1", "ATPList", ops::MakeQuery(kFedererPoints));
  EXPECT_TRUE(queried.ok()) << queried.status();
  EXPECT_NE(store->Get("ATPList")->Serialize().find("890"),
            std::string::npos);
  EXPECT_TRUE(store->Abort("T1").ok());
  // The compensation put the old result back under its original id.
  EXPECT_EQ(FindElement(*store->Get("ATPList"), "points"), points);
  if (checkpoint) {
    EXPECT_TRUE(store->Checkpoint().ok());
  }
  EXPECT_TRUE(store->Begin("T2").ok());
  auto deleted =
      store->Execute("T2", "ATPList", ops::MakeDeleteById(points));
  EXPECT_TRUE(deleted.ok()) << deleted.status();
  auto inserted = store->Execute(
      "T2", "ATPList",
      ops::MakeInsert("Select p from p in ATPList//player "
                      "where p/name/lastname = Nadal",
                      "<coach>Toni</coach>"));
  EXPECT_TRUE(inserted.ok()) << inserted.status();
  EXPECT_TRUE(store->Commit("T2").ok());
  return store->Get("ATPList")->Clone();
}

TEST_F(StorageTest, CompensationReplaysWithItsOriginalIds) {
  std::unique_ptr<xml::Document> live;
  {
    auto store = OpenStore();
    live = RunAbortThenMutate(store.get(), /*checkpoint=*/false);
  }  // crash: only the WAL survives
  auto reopened = OpenStore();
  ASSERT_NE(reopened->Get("ATPList"), nullptr);
  EXPECT_GT(reopened->stats().replayed_ops, 0);
  ExpectSameNodes(*live, *reopened->Get("ATPList"));
}

TEST_F(StorageTest, CheckpointKeepsNodeIdsAndIdCounter) {
  std::unique_ptr<xml::Document> live;
  {
    auto store = OpenStore();
    live = RunAbortThenMutate(store.get(), /*checkpoint=*/true);
  }
  auto reopened = OpenStore();
  ASSERT_NE(reopened->Get("ATPList"), nullptr);
  EXPECT_EQ(reopened->epoch(), 1u);
  ExpectSameNodes(*live, *reopened->Get("ATPList"));
  // New nodes continue the original numbering after a snapshot load.
  ASSERT_TRUE(reopened->Begin("T3").ok());
  auto more = reopened->Execute(
      "T3", "ATPList",
      ops::MakeInsert("Select d from d in ATPList", "<extra/>"));
  ASSERT_TRUE(more.ok()) << more.status();
  ASSERT_EQ((*more)->inserted.size(), 1u);
  EXPECT_EQ((*more)->inserted[0], live->next_id());
}

TEST_F(StorageTest, OperationXmlRoundTripsTheRestoredSubtree) {
  std::unique_ptr<xml::Document> doc = testing::MakeAtpList();
  ops::Executor executor(doc.get(), testing::AtpInvoker());
  auto effect = executor.Execute(
      ops::MakeDelete("Select p/citizenship from p in ATPList//player "
                      "where p/name/lastname = Federer"));
  ASSERT_TRUE(effect.ok()) << effect.status();
  comp::CompensationPlan plan = comp::CompensationBuilder::ForEffect(*effect);
  ASSERT_EQ(plan.operations.size(), 1u);
  const ops::Operation& op = plan.operations[0];
  ASSERT_NE(op.restore, nullptr);
  const std::string text = op.ToXml();
  ASSERT_NE(text.find(" ids=\""), std::string::npos) << text;

  // The canonical form and a hand-spelled one (attribute order, layout)
  // both decode to the same ids.
  const size_t type_end = text.find(' ', 8);  // after `<action type="..."`
  const size_t tag_end = text.find('>');
  const std::string spelled =
      "<action" + text.substr(type_end, tag_end - type_end) + " " +
      text.substr(8, type_end - 8) + ">\n  " + text.substr(tag_end + 1);
  ASSERT_EQ(spelled.rfind("<action targetNode=", 0), 0u) << spelled;
  for (const std::string& input : {text, spelled}) {
    auto parsed = ops::Operation::FromXml(input);
    ASSERT_TRUE(parsed.ok()) << parsed.status() << "\n" << input;
    ASSERT_NE(parsed->restore, nullptr) << input;
    EXPECT_EQ(parsed->restore->root, op.restore->root);
    ASSERT_EQ(parsed->restore->nodes.size(), op.restore->nodes.size());
    for (size_t i = 0; i < op.restore->nodes.size(); ++i) {
      EXPECT_EQ(parsed->restore->nodes[i].id, op.restore->nodes[i].id);
      EXPECT_EQ(parsed->restore->nodes[i].name, op.restore->nodes[i].name);
      EXPECT_EQ(parsed->restore->nodes[i].text, op.restore->nodes[i].text);
      EXPECT_EQ(parsed->restore->nodes[i].children,
                op.restore->nodes[i].children);
    }
    EXPECT_EQ(parsed->target_node, op.target_node);
    EXPECT_EQ(parsed->position, op.position);
  }

  // A malformed or mismatched id list is an error, not a crash or a guess.
  const size_t ids_at = text.find(" ids=\"") + 6;
  const std::string ids = text.substr(ids_at, text.find('"', ids_at) - ids_at);
  const std::string first_id = ids.substr(0, ids.find_first_of("-,"));
  for (const std::string& bad :
       {std::string(""), std::string("x"), std::string("9-3"),
        std::string("1,,2"), std::string("0"), first_id,
        first_id + "," + first_id, ids + ",999999",
        std::string("1-99999999999999")}) {
    const std::string broken = WithIds(text, &bad);
    EXPECT_FALSE(ops::Operation::FromXml(broken).ok()) << broken;
  }
}

TEST_F(StorageTest, LegacyFilesWithoutIdsStillOpen) {
  std::string wal_state;
  {
    auto store = OpenStore();
    ASSERT_TRUE(store->CreateDocument(testing::kAtpListXml).ok());
    ASSERT_TRUE(store->Begin("T1").ok());
    ASSERT_TRUE(
        store->Execute("T1", "ATPList", ops::MakeQuery(kFedererPoints)).ok());
    ASSERT_TRUE(store->Abort("T1").ok());
    wal_state = store->Get("ATPList")->Serialize();
  }
  // A WAL written before compensation records carried ids: replay falls
  // back to fresh-id insertion and reaches the same serialization.
  const std::string wal = ReadAll(dir_ + "/wal.log");
  ASSERT_NE(wal.find(" ids=\""), std::string::npos);
  WriteAll(dir_ + "/wal.log", WithIds(wal, nullptr));
  std::string snapshot_state;
  {
    auto reopened = OpenStore();
    ASSERT_NE(reopened->Get("ATPList"), nullptr);
    EXPECT_EQ(reopened->Get("ATPList")->Serialize(), wal_state);
    ASSERT_TRUE(reopened->Checkpoint().ok());
    snapshot_state = reopened->Get("ATPList")->Serialize();
  }
  // A snapshot written before snapshots kept ids: a plain serialization.
  const std::string snap_path = dir_ + "/snap_e1_ATPList.xml";
  const std::string snap = ReadAll(snap_path);
  ASSERT_EQ(snap.rfind(kSnapshotHeader, 0), 0u);
  WriteAll(snap_path, snap.substr(snap.find('\n') + 1));
  auto legacy = OpenStore();
  ASSERT_NE(legacy->Get("ATPList"), nullptr);
  EXPECT_EQ(legacy->Get("ATPList")->Serialize(), snapshot_state);
  // A damaged header is reported, not guessed around: a malformed next id,
  // and ids that do not fit below the next id.
  const std::string header = snap.substr(0, snap.find('\n'));
  const std::string ids = header.substr(header.rfind(' ') + 1);
  for (const std::string& bad : {std::string(" next=x ") + ids,
                                 std::string(" next=1 ") + ids}) {
    WriteAll(snap_path, kSnapshotHeader + bad + "\n" +
                            snap.substr(snap.find('\n') + 1));
    DurableStore damaged(dir_, testing::AtpInvoker());
    EXPECT_FALSE(damaged.Open().ok()) << bad;
  }
}

}  // namespace
}  // namespace axmlx::storage
