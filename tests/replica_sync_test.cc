// Delta replica sync (DESIGN.md §8): after every push the replica must equal
// the primary node for node — the same record under every id, the same
// size, next id and serialization — whether the push shipped only the
// touched nodes or fell back to a full copy. The replica SetReplica makes
// is tracked from the start, so the first push is a delta. The fallback
// rules (a copy not made for replication, replica changed on its own,
// either side replaced) are checked directly on documents, inside a seeded
// fault drill with crashes, restarts and resyncs, and around
// peer-independent compensation run on a replica.

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "axml/call_catalog.h"
#include "axml/materializer.h"
#include "axml/service_call.h"
#include "common/rng.h"
#include "obs/metric_names.h"
#include "query/parser.h"
#include "repo/axml_repository.h"
#include "repo/fault_drill.h"
#include "repo/scenarios.h"
#include "service/repository.h"
#include "txn/peer.h"
#include "xml/builder.h"
#include "xml/document.h"
#include "xml/edit.h"
#include "xml/parser.h"

namespace axmlx {
namespace {

using xml::Document;
using xml::Node;
using xml::NodeId;

/// Node-for-node equality: every id resolves to the same record (links,
/// spelling, text, attributes) or to nothing on both sides, and the tag
/// index lists each live element of a name exactly once.
void ExpectSameDocument(const Document& primary, const Document& replica,
                        const std::string& where) {
  ASSERT_EQ(primary.size(), replica.size()) << where;
  ASSERT_EQ(primary.next_id(), replica.next_id()) << where;
  ASSERT_EQ(primary.root(), replica.root()) << where;
  std::set<std::string> names;
  for (NodeId id = 1; id < primary.next_id(); ++id) {
    const Node* a = primary.Find(id);
    const Node* b = replica.Find(id);
    ASSERT_EQ(a == nullptr, b == nullptr) << where << " id " << id;
    if (a == nullptr) continue;
    ASSERT_EQ(a->type, b->type) << where << " id " << id;
    ASSERT_EQ(a->parent, b->parent) << where << " id " << id;
    ASSERT_EQ(a->name, b->name) << where << " id " << id;
    ASSERT_EQ(replica.NameOf(b->name_id), b->name) << where << " id " << id;
    ASSERT_EQ(a->text, b->text) << where << " id " << id;
    ASSERT_EQ(a->attributes, b->attributes) << where << " id " << id;
    ASSERT_EQ(a->children, b->children) << where << " id " << id;
    if (a->is_element()) names.insert(a->name);
  }
  for (const std::string& name : names) {
    std::vector<NodeId> want, got;
    primary.CollectElementsNamed(primary.FindNameId(name), &want);
    replica.CollectElementsNamed(replica.FindNameId(name), &got);
    std::sort(want.begin(), want.end());
    want.erase(std::unique(want.begin(), want.end()), want.end());
    std::sort(got.begin(), got.end());
    ASSERT_TRUE(std::adjacent_find(got.begin(), got.end()) == got.end())
        << where << ": duplicate index entries for " << name;
    ASSERT_EQ(want, got) << where << " index of " << name;
  }
  ASSERT_EQ(primary.Serialize(), replica.Serialize()) << where;
}

/// Every live element of `doc`, in id order.
std::vector<NodeId> LiveElements(const Document& doc) {
  std::vector<NodeId> out;
  for (NodeId id = 1; id < doc.next_id(); ++id) {
    const Node* n = doc.Find(id);
    if (n != nullptr && n->is_element()) out.push_back(id);
  }
  return out;
}

/// One random edit through the public mutators, covering every kind of
/// node-state change a push has to carry.
void RandomEdit(Document* doc, Rng* rng) {
  const std::vector<NodeId> elems = LiveElements(*doc);
  const NodeId target = elems[rng->Uniform(elems.size())];
  switch (rng->Uniform(7)) {
    case 0:
      xml::AddTextElement(doc, target, "entry",
                          "v" + std::to_string(rng->Uniform(100)));
      break;
    case 1:
      if (target != doc->root()) (void)doc->RemoveSubtree(target);
      break;
    case 2:
      (void)doc->SetAttribute(target, "k", std::to_string(rng->Uniform(5)));
      break;
    case 3:
      (void)doc->SetAttributes(target, {{"x", "1"}, {"y", "2"}});
      break;
    case 4:
      if (target != doc->root()) {
        (void)doc->RenameElement(target, rng->Bernoulli(0.5) ? "a" : "b");
      }
      break;
    case 5: {
      // Detach with ids preserved, then put back elsewhere (an undo-style
      // id-preserving restore).
      if (target == doc->root()) break;
      auto detached = xml::DetachSubtree(doc, target);
      if (!detached.ok()) break;
      (void)xml::Reattach(doc, detached->subtree, doc->root(), 0);
      break;
    }
    default: {
      const Node* n = doc->Find(target);
      for (NodeId c : n->children) {
        if (doc->Find(c)->is_text()) {
          (void)doc->SetText(c, "t" + std::to_string(rng->Uniform(9)));
          break;
        }
      }
    }
  }
}

TEST(ReplicaSyncTest, FirstPushFallsBackThenDeltasMatchPrimary) {
  Rng rng(11);
  Document primary("Doc");
  for (int i = 0; i < 40; ++i) RandomEdit(&primary, &rng);
  // Never pushed: the primary has not been tracking changes.
  std::unique_ptr<Document> replica = primary.Clone();
  EXPECT_FALSE(primary.SyncReplica(replica.get()));
  replica = primary.CloneForReplica();
  ExpectSameDocument(primary, *replica, "first push");
  for (int push = 0; push < 60; ++push) {
    const int edits = static_cast<int>(rng.UniformRange(0, 6));
    for (int i = 0; i < edits; ++i) RandomEdit(&primary, &rng);
    ASSERT_TRUE(primary.SyncReplica(replica.get())) << "push " << push;
    ExpectSameDocument(primary, *replica, "push " + std::to_string(push));
  }
}

TEST(ReplicaSyncTest, LocallyMutatedReplicaFallsBack) {
  Document primary("Doc");
  xml::AddTextElement(&primary, primary.root(), "entry", "1");
  std::unique_ptr<Document> replica = primary.CloneForReplica();
  xml::AddTextElement(&primary, primary.root(), "entry", "2");
  ASSERT_TRUE(primary.SyncReplica(replica.get()));
  // The replica runs work of its own (e.g. peer-independent compensation).
  xml::AddTextElement(replica.get(), replica->root(), "entry", "3");
  const std::string replica_text = replica->Serialize();
  EXPECT_FALSE(primary.SyncReplica(replica.get()));
  EXPECT_EQ(replica->Serialize(), replica_text);  // left untouched
  replica = primary.CloneForReplica();
  ExpectSameDocument(primary, *replica, "after fallback");
  xml::AddTextElement(&primary, primary.root(), "entry", "4");
  EXPECT_TRUE(primary.SyncReplica(replica.get()));
  ExpectSameDocument(primary, *replica, "delta after fallback");
}

TEST(ReplicaSyncTest, ReplacedReplicaOrPrimaryFallsBack) {
  Document primary("Doc");
  std::unique_ptr<Document> replica = primary.CloneForReplica();
  // Same content, different document (a replica peer restarted and
  // re-hosted its copy): identity differs.
  std::unique_ptr<Document> rehosted = replica->Clone();
  EXPECT_NE(rehosted->identity(), replica->identity());
  EXPECT_FALSE(primary.SyncReplica(rehosted.get()));
  EXPECT_TRUE(primary.SyncReplica(replica.get()));
  // A primary rebuilt from its WAL is a new document that never pushed.
  std::unique_ptr<Document> restarted = primary.Clone();
  EXPECT_FALSE(restarted->SyncReplica(replica.get()));
  EXPECT_FALSE(primary.SyncReplica(&primary));
  EXPECT_FALSE(primary.SyncReplica(nullptr));
}

TEST(ReplicaSyncTest, ReplicaCallCatalogFollowsPushes) {
  // SyncReplica writes node records directly, so it moves the replica's
  // call-shape generation itself: a query on the replica after a push that
  // renames a call's output selects what a fresh catalog would.
  Document primary("Doc");
  NodeId item = xml::AddElement(&primary, primary.root(), "item");
  std::vector<NodeId> calls;
  for (const char* out : {"price", "rank"}) {
    axml::ScSpec spec;
    spec.method_name = "m";
    spec.output_name = out;
    auto sc = axml::BuildServiceCall(&primary, item, spec);
    ASSERT_TRUE(sc.ok());
    calls.push_back(*sc);
  }
  std::unique_ptr<Document> replica = primary.CloneForReplica();
  axml::ServiceInvoker invoker =
      [](const axml::ServiceRequest&) -> Result<axml::ServiceResponse> {
    AXMLX_ASSIGN_OR_RETURN(auto fragment, xml::Parse("<r><v>1</v></r>"));
    axml::ServiceResponse response;
    response.fragment = std::move(fragment);
    return response;
  };
  auto select = [&invoker](Document* doc, axml::CallCatalog* catalog,
                           const std::string& name) {
    auto q = query::ParseQuery("Select p/" + name + " from p in Doc//item");
    EXPECT_TRUE(q.ok());
    xml::EditLog log;
    axml::Materializer m(doc, invoker, &log, catalog);
    auto got = m.MaterializeForQuery(*q, doc->root());
    EXPECT_TRUE(got.ok()) << got.status();
    return got.ok() ? *got : std::vector<NodeId>{};
  };
  // Queries that select nothing leave the replica as the primary made it,
  // so the pushes below stay deltas.
  axml::CallCatalog catalog;
  EXPECT_EQ(select(replica.get(), &catalog, "points"), std::vector<NodeId>{});
  ASSERT_EQ(catalog.builds(), 1);

  // A materialization on the primary changes only a call's children: the
  // replica keeps its catalog.
  {
    xml::EditLog log;
    axml::Materializer m(&primary, invoker, &log);
    ASSERT_TRUE(m.MaterializeCall(calls[1]).ok());
  }
  ASSERT_TRUE(primary.SyncReplica(replica.get()));
  EXPECT_EQ(select(replica.get(), &catalog, "points"), std::vector<NodeId>{});
  EXPECT_EQ(catalog.builds(), 1);

  ASSERT_TRUE(primary.SetAttribute(calls[0], "outputName", "points").ok());
  ASSERT_TRUE(primary.SyncReplica(replica.get()));
  ExpectSameDocument(primary, *replica, "after outputName push");
  std::unique_ptr<Document> fresh = replica->Clone();
  const std::vector<NodeId> want = select(fresh.get(), nullptr, "points");
  EXPECT_EQ(want, std::vector<NodeId>{calls[0]});
  EXPECT_EQ(select(replica.get(), &catalog, "points"), want);
  EXPECT_EQ(catalog.builds(), 2);
}

// --- In a seeded fault drill ------------------------------------------------

TEST(ReplicaSyncTest, FaultDrillReplicaEqualsPrimaryAfterEveryPush) {
  repo::FaultDrillOptions options;
  options.seed = 4242;
  options.storage_dir = ::testing::TempDir() + "axmlx_replica_sync_drill";
  options.depth = 1;
  options.fanout = 3;
  options.transactions = 24;
  options.dup_rate = 0.05;
  options.partition_every = 3;
  options.crash_every = 4;
  repo::FaultDrill* drill = nullptr;
  // Per primary peer and document: the replica copy the last push left.
  struct Copy {
    uint64_t identity = 0;
    uint64_t mutations = 0;
  };
  std::map<std::string, Copy> last;
  int pushes = 0, kept_copy = 0, new_copy = 0;
  options.replica_push_observer = [&](const overlay::PeerId& peer,
                                      const std::string& document) {
    repo::AxmlRepository& repo = drill->repo();
    const Document* primary =
        repo.FindPeer(peer)->repository().GetDocument(document);
    const Document* replica = repo.FindPeer(repo.directory().ReplicaOf(peer))
                                  ->repository()
                                  .GetDocument(document);
    ASSERT_NE(primary, nullptr);
    ASSERT_NE(replica, nullptr);
    ++pushes;
    const std::string key = peer + "/" + document;
    ExpectSameDocument(*primary, *replica,
                       key + " push " + std::to_string(pushes));
    auto it = last.find(key);
    if (it != last.end() && it->second.identity == replica->identity()) {
      // The push updated the copy in place: only sound when nothing but
      // the previous push changed it.
      ASSERT_EQ(it->second.mutations, replica->mutation_count()) << key;
      ++kept_copy;
    } else if (it != last.end()) {
      ++new_copy;  // a full copy replaced the one the last push left
    }
    last[key] = {replica->identity(), replica->mutation_count()};
  };
  repo::FaultDrill run(options);
  drill = &run;
  auto report = run.Run();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->violations, 0) << report->violation_details.front();
  EXPECT_GT(report->crashes, 0);
  EXPECT_GT(report->restarts, 0);
  EXPECT_GT(report->resync_nodes, 0u);
  EXPECT_GT(kept_copy, 0);
  EXPECT_GT(new_copy, 0);

  // The pushing peers publish the same split. The origin never crashes and
  // its replica never runs work of its own, so its counters cover the whole
  // run and every push of it is a delta from the copy SetReplica made; the
  // full copies above come from restarted peers.
  obs::MetricsRegistry& origin = run.repo().FindPeer("P")->metrics();
  EXPECT_GT(origin.GetCounter(obs::kMetricTxnReplicaPushesDelta)->value(), 0);
  EXPECT_EQ(origin.GetCounter(obs::kMetricTxnReplicaPushesFull)->value(), 0);
}

TEST(ReplicaSyncTest, SetReplicaCopyTakesDeltaOnFirstPush) {
  // SetReplica makes a tracked copy, so the original's first push already
  // ships only the nodes its transaction touched.
  repo::AxmlRepository repo(1);
  for (const char* id : {"A", "AR"}) {
    repo::AxmlRepository::PeerConfig config;
    config.id = id;
    ASSERT_TRUE(repo.AddPeer(config).ok());
  }
  ASSERT_TRUE(
      repo.HostDocument("A", "<DataA><log><entry>0</entry></log></DataA>")
          .ok());
  service::ServiceDefinition record;
  record.name = "Record";
  record.document = "DataA";
  record.ops.push_back(
      ops::MakeInsert("Select d from d in DataA//log", "<entry>x</entry>"));
  ASSERT_TRUE(repo.HostService("A", std::move(record)).ok());
  ASSERT_TRUE(repo.SetReplica("A", "AR").ok());
  Document* primary = repo.FindPeer("A")->repository().GetDocument("DataA");
  const Document* replica =
      repo.FindPeer("AR")->repository().GetDocument("DataA");
  ASSERT_NE(replica, nullptr);
  ExpectSameDocument(*primary, *replica, "after SetReplica");
  const uint64_t copy = replica->identity();
  int pushes = 0;
  repo.directory().SetReplicaPushObserver(
      [&](const overlay::PeerId&, const std::string& document) {
        ++pushes;
        const Document* now =
            repo.FindPeer("AR")->repository().GetDocument(document);
        EXPECT_EQ(now->identity(), copy) << "push " << pushes;
        ExpectSameDocument(*primary, *now, "push " + std::to_string(pushes));
      });
  for (int i = 0; i < 2; ++i) {
    auto outcome = repo.RunTransaction("A", "T" + std::to_string(i), "Record");
    ASSERT_TRUE(outcome.ok()) << outcome.status();
    ASSERT_TRUE(outcome->status.ok()) << outcome->status;
  }
  EXPECT_EQ(pushes, 2);
  obs::MetricsRegistry& a = repo.FindPeer("A")->metrics();
  EXPECT_EQ(a.GetCounter(obs::kMetricTxnReplicaPushesFull)->value(), 0);
  EXPECT_EQ(a.GetCounter(obs::kMetricTxnReplicaPushesDelta)->value(), 2);
}

TEST(ReplicaSyncTest, CompensationOnReplicaForcesFullPush) {
  // Figure 1 with peer-independent compensation: AP6 finishes, returns its
  // results and disconnects; AP5 then faults, and AP6's shipped
  // compensating service runs on its replica AP6R (§3.2, §3.3). AP6R has
  // now changed on its own, so AP6's next push must take a full copy.
  repo::AxmlRepository repo(1);
  repo::ScenarioOptions options;
  options.s5_fault_probability = 1.0;
  options.add_replicas = true;
  options.duration = 10;
  options.peer_options.peer_independent = true;
  ASSERT_TRUE(repo::BuildFigureOne(&repo, options).ok());
  std::vector<bool> ap6_new_copy;  // per AP6 push: did the replica change?
  // The copy SetReplica made: the first push updates it in place.
  uint64_t ap6_replica = repo.FindPeer("AP6R")
                             ->repository()
                             .GetDocument(repo::ScenarioDocName("AP6"))
                             ->identity();
  repo.directory().SetReplicaPushObserver(
      [&](const overlay::PeerId& peer, const std::string& document) {
        const Document* primary =
            repo.FindPeer(peer)->repository().GetDocument(document);
        const Document* replica =
            repo.FindPeer(repo.directory().ReplicaOf(peer))
                ->repository()
                .GetDocument(document);
        ExpectSameDocument(*primary, *replica, peer + "/" + document);
        if (peer != "AP6") return;
        ap6_new_copy.push_back(replica->identity() != ap6_replica);
        ap6_replica = replica->identity();
      });
  repo.network().DisconnectAt(14, "AP6");
  auto first = repo.RunTransaction("AP1", "T1", "S1");
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->status.code(), StatusCode::kAborted);
  ASSERT_EQ(repo.FindPeer("AP6R")->stats().compensations_executed, 1);
  ASSERT_EQ(ap6_new_copy, std::vector<bool>{false});  // the first push

  ASSERT_TRUE(repo.network().Reconnect("AP6").ok());
  ASSERT_TRUE(repo.ResyncFromReplica("AP6").ok());
  auto second = repo.RunTransaction("AP1", "T2", "S1");
  ASSERT_TRUE(second.ok());
  ASSERT_GE(ap6_new_copy.size(), 3u);
  EXPECT_TRUE(ap6_new_copy[1]) << "push after replica-side compensation";
  EXPECT_FALSE(ap6_new_copy[2]) << "deltas resume after the full copy";
  obs::MetricsRegistry& ap6 = repo.FindPeer("AP6")->metrics();
  EXPECT_EQ(ap6.GetCounter(obs::kMetricTxnReplicaPushesFull)->value(), 1);
  EXPECT_EQ(ap6.GetCounter(obs::kMetricTxnReplicaPushesDelta)->value(),
            static_cast<int64_t>(ap6_new_copy.size()) - 1);
}

}  // namespace
}  // namespace axmlx
