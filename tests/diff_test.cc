#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "common/rng.h"
#include "ops/executor.h"
#include "ops/operation.h"
#include "repo/axml_repository.h"
#include "repo/scenarios.h"
#include "tests/test_data.h"
#include "xml/builder.h"
#include "xml/diff.h"

namespace axmlx::xml {
namespace {

/// Checks ComputeDiff/ApplyDiff: transforming a clone of `from` must yield
/// structural equality with `to`, preserving shared node ids.
void ExpectDiffConverges(const Document& from, const Document& to) {
  auto diff = ComputeDiff(from, to);
  ASSERT_TRUE(diff.ok()) << diff.status();
  auto scratch = from.Clone();
  ASSERT_TRUE(ApplyDiff(scratch.get(), *diff).ok());
  EXPECT_TRUE(Document::Equals(*scratch, to))
      << "from:\n" << from.Serialize(kNullNode, true) << "to:\n"
      << to.Serialize(kNullNode, true) << "got:\n"
      << scratch->Serialize(kNullNode, true);
  // Shared ids must be preserved (replica invariant).
  to.Walk(to.root(), [&](const Node& n) {
    if (from.Contains(n.id)) {
      EXPECT_TRUE(scratch->Contains(n.id));
    }
    return true;
  });
}

TEST(DocumentDiff, IdenticalDocumentsYieldEmptyScript) {
  auto doc = testing::MakeAtpList();
  auto copy = doc->Clone();
  auto diff = ComputeDiff(*doc, *copy);
  ASSERT_TRUE(diff.ok());
  EXPECT_TRUE(diff->empty());
  EXPECT_EQ(diff->NodesAffected(), 0u);
}

TEST(DocumentDiff, DetectsInsertions) {
  auto from = testing::MakeAtpList();
  auto to = from->Clone();
  NodeId player = FirstDescendantElement(*to, to->root(), "player");
  AddTextElement(to.get(), player, "coach", "Toni");
  auto diff = ComputeDiff(*from, *to);
  ASSERT_TRUE(diff.ok());
  EXPECT_EQ(diff->size(), 1u);
  EXPECT_EQ(diff->ops[0].kind, DiffOp::Kind::kInsertSubtree);
  ExpectDiffConverges(*from, *to);
}

TEST(DocumentDiff, DetectsRemovals) {
  auto from = testing::MakeAtpList();
  auto to = from->Clone();
  NodeId citizenship =
      FirstDescendantElement(*to, to->root(), "citizenship");
  ASSERT_TRUE(to->RemoveSubtree(citizenship).ok());
  auto diff = ComputeDiff(*from, *to);
  ASSERT_TRUE(diff.ok());
  EXPECT_EQ(diff->size(), 1u);
  EXPECT_EQ(diff->ops[0].kind, DiffOp::Kind::kRemoveSubtree);
  ExpectDiffConverges(*from, *to);
}

TEST(DocumentDiff, DetectsTextAndAttributeChanges) {
  auto from = testing::MakeAtpList();
  auto to = from->Clone();
  NodeId lastname = FirstDescendantElement(*to, to->root(), "lastname");
  const Node* ln = to->Find(lastname);
  ASSERT_TRUE(to->SetText(ln->children[0], "Federer-Jr").ok());
  NodeId player = FirstDescendantElement(*to, to->root(), "player");
  ASSERT_TRUE(to->SetAttribute(player, "rank", "3").ok());
  auto diff = ComputeDiff(*from, *to);
  ASSERT_TRUE(diff.ok());
  EXPECT_EQ(diff->size(), 2u);
  ExpectDiffConverges(*from, *to);
}

TEST(DocumentDiff, DetectsReordering) {
  Document from("r");
  NodeId a = AddElement(&from, from.root(), "a");
  NodeId b = AddElement(&from, from.root(), "b");
  NodeId c = AddElement(&from, from.root(), "c");
  (void)a;
  (void)b;
  auto to = from.Clone();
  // Move c to the front in `to`.
  auto detached = DetachSubtree(to.get(), c);
  ASSERT_TRUE(detached.ok());
  ASSERT_TRUE(Reattach(to.get(), detached->subtree, to->root(), 0).ok());
  ExpectDiffConverges(from, *to);
}

TEST(DocumentDiff, HandlesReparenting) {
  Document from("r");
  NodeId a = AddElement(&from, from.root(), "a");
  NodeId b = AddElement(&from, from.root(), "b");
  NodeId x = AddTextElement(&from, a, "x", "payload");
  (void)b;
  auto to = from.Clone();
  auto detached = DetachSubtree(to.get(), x);
  ASSERT_TRUE(detached.ok());
  NodeId b_in_to = FirstChildElement(*to, to->root(), "b");
  ASSERT_TRUE(Reattach(to.get(), detached->subtree, b_in_to, 0).ok());
  ExpectDiffConverges(from, *to);
}

TEST(DocumentDiff, RejectsUnrelatedDocuments) {
  Document a("r");
  AddElement(&a, a.root(), "x");  // shifts id allocation
  Document b("r");
  // Different root ids? Both roots are id 1 — simulate unrelated roots by
  // extracting a fragment.
  auto frag = a.ExtractFragment(a.Find(a.root())->children[0]);
  ASSERT_TRUE(frag.ok());
  EXPECT_FALSE(ComputeDiff(**frag, b).ok());
}

class DiffSeeds : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DiffSeeds, RandomEditScriptsConverge) {
  Rng rng(GetParam());
  auto from = testing::MakeAtpList();
  auto to = from->Clone();
  // Apply random edits to `to` via real operations.
  ops::Executor executor(to.get(), testing::AtpInvoker());
  executor.SetExternal("year", "2005");
  static const char* kPlayers[] = {"Federer", "Nadal"};
  int n_edits = 1 + static_cast<int>(rng.Uniform(6));
  for (int i = 0; i < n_edits; ++i) {
    std::string player = kPlayers[rng.Uniform(2)];
    ops::Operation op;
    switch (rng.Uniform(4)) {
      case 0:
        op = ops::MakeInsert(
            "Select p from p in ATPList//player "
            "where p/name/lastname = " + player,
            "<tag n=\"" + std::to_string(rng.Uniform(100)) + "\"/>");
        break;
      case 1:
        op = ops::MakeDelete(
            "Select p/citizenship from p in ATPList//player "
            "where p/name/lastname = " + player);
        break;
      case 2:
        op = ops::MakeReplace(
            "Select p/name/firstname from p in ATPList//player "
            "where p/name/lastname = " + player,
            "<firstname>F" + std::to_string(rng.Uniform(10)) +
                "</firstname>");
        break;
      default:
        op = ops::MakeQuery(
            "Select p/points from p in ATPList//player "
            "where p/name/lastname = " + player);
        break;
    }
    ASSERT_TRUE(executor.Execute(op).ok());
  }
  ExpectDiffConverges(*from, *to);
  // And the reverse direction (rolling a replica back) also converges.
  ExpectDiffConverges(*to, *from);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DiffSeeds, ::testing::Range<uint64_t>(1, 21));

TEST(DocumentDiff, SetAttributesIsVersioned) {
  // An attribute-only change replayed by ApplyDiff must go through a
  // recorded mutator: the document's mutation counter moves, and a tracked
  // replica's delta push carries the new attributes (an unrecorded write
  // would leave the replica reading the old ones).
  Document doc("Root");
  NodeId item = AddElement(&doc, doc.root(), "item");
  ASSERT_TRUE(doc.SetAttribute(item, "state", "old").ok());
  auto target = doc.Clone();
  ASSERT_TRUE(target->SetAttribute(item, "state", "new").ok());
  auto diff = ComputeDiff(doc, *target);
  ASSERT_TRUE(diff.ok()) << diff.status();
  ASSERT_EQ(diff->size(), 1u);
  ASSERT_EQ(diff->ops[0].kind, DiffOp::Kind::kSetAttributes);

  std::unique_ptr<Document> replica = doc.CloneForReplica();
  const uint64_t mutations = doc.mutation_count();
  ASSERT_TRUE(ApplyDiff(&doc, *diff).ok());
  EXPECT_EQ(*doc.Find(item)->FindAttribute("state"), "new");
  EXPECT_GT(doc.mutation_count(), mutations);
  ASSERT_TRUE(doc.SyncReplica(replica.get()));
  const Node* seen = replica->Find(item);
  ASSERT_NE(seen, nullptr);
  ASSERT_NE(seen->FindAttribute("state"), nullptr);
  EXPECT_EQ(*seen->FindAttribute("state"), "new");
}

}  // namespace
}  // namespace axmlx::xml

namespace axmlx::repo {
namespace {

TEST(Resync, ReconnectedPeerCatchesUpFromReplica) {
  // AP5 disconnects mid-transaction; AP3 retries S5 on the replica AP5R
  // and the transaction commits — AP5's own copy is now stale. On rejoin,
  // ResyncFromReplica brings it up to date via a diff script.
  AxmlRepository repo(1);
  ScenarioOptions options;
  options.duration = 30;
  options.add_replicas = true;
  options.handlers_retry_on_replica = true;
  options.s5_handler_at_ap3 = true;
  options.peer_options.keepalive_interval = 10;
  ASSERT_TRUE(BuildFigureOne(&repo, options).ok());
  // Disconnect before AP5's INVOKE arrives: its copy stays at the initial
  // state while the replica executes the retried service.
  repo.network().DisconnectAt(1, "AP5");
  auto outcome = repo.RunTransaction("AP1", kTxnName, "S1");
  ASSERT_TRUE(outcome.ok());
  ASSERT_TRUE(outcome->status.ok()) << outcome->status;

  const xml::Document* replica_doc =
      repo.FindPeer("AP5R")->repository().GetDocument(ScenarioDocName("AP5"));
  xml::Document* own_doc =
      repo.FindPeer("AP5")->repository().GetDocument(ScenarioDocName("AP5"));
  EXPECT_FALSE(xml::Document::Equals(*own_doc, *replica_doc));

  ASSERT_TRUE(repo.network().Reconnect("AP5").ok());
  auto synced = repo.ResyncFromReplica("AP5");
  ASSERT_TRUE(synced.ok()) << synced.status();
  EXPECT_GT(*synced, 0u);
  EXPECT_TRUE(xml::Document::Equals(*own_doc, *replica_doc));
  // Idempotent: a second resync ships nothing.
  auto again = repo.ResyncFromReplica("AP5");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, 0u);
}

TEST(Resync, RequiresAReplica) {
  AxmlRepository repo(1);
  ScenarioOptions options;
  ASSERT_TRUE(BuildFigureOne(&repo, options).ok());
  EXPECT_EQ(repo.ResyncFromReplica("AP5").status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(repo.ResyncFromReplica("nope").status().code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace axmlx::repo
