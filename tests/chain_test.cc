#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "chain/active_chain.h"
#include "common/rng.h"

namespace axmlx::chain {
namespace {

/// Builds the paper's Figure 2 chain:
/// [AP1* -> AP2 -> [AP3 -> AP6] || [AP4 -> AP5]].
ActivePeerChain PaperChain() {
  ChainNode ap6{"AP6", false, "S6", {}};
  ChainNode ap5{"AP5", false, "S5", {}};
  ChainNode ap3{"AP3", false, "S3", {ap6}};
  ChainNode ap4{"AP4", false, "S4", {ap5}};
  ChainNode ap2{"AP2", false, "S2", {ap3, ap4}};
  ChainNode ap1{"AP1", true, "S1", {ap2}};
  return ActivePeerChain(ap1);
}

TEST(ActivePeerChain, SerializeMatchesPaperShape) {
  std::string s = PaperChain().Serialize();
  EXPECT_EQ(s,
            "[AP1*:S1 -> [AP2:S2 -> [AP3:S3 -> [AP6:S6]] || "
            "[AP4:S4 -> [AP5:S5]]]]");
}

TEST(ActivePeerChain, ParseRoundTrip) {
  ActivePeerChain chain = PaperChain();
  auto parsed = ActivePeerChain::Parse(chain.Serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->Serialize(), chain.Serialize());
}

TEST(ActivePeerChain, ParseWithoutServicesAndSpaces) {
  auto parsed = ActivePeerChain::Parse("[A->[B]||[C->[D]]]");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->ChildrenOf("A"),
            (std::vector<overlay::PeerId>{"B", "C"}));
  EXPECT_EQ(parsed->ParentOf("D"), "C");
}

TEST(ActivePeerChain, ParseRejectsGarbage) {
  EXPECT_FALSE(ActivePeerChain::Parse("[").ok());
  EXPECT_FALSE(ActivePeerChain::Parse("[A -> ]").ok());
  EXPECT_FALSE(ActivePeerChain::Parse("[A][B]").ok());
  EXPECT_FALSE(ActivePeerChain::Parse("A").ok());
}

TEST(ActivePeerChain, EmptyChainParses) {
  auto parsed = ActivePeerChain::Parse("[]");
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->empty());
  EXPECT_FALSE(parsed->Contains("AP1"));
}

TEST(ActivePeerChain, ParentChildSiblingQueries) {
  ActivePeerChain chain = PaperChain();
  EXPECT_EQ(chain.ParentOf("AP6"), "AP3");
  EXPECT_EQ(chain.ParentOf("AP3"), "AP2");
  EXPECT_EQ(chain.ParentOf("AP1"), "");
  EXPECT_EQ(chain.ChildrenOf("AP2"),
            (std::vector<overlay::PeerId>{"AP3", "AP4"}));
  EXPECT_EQ(chain.SiblingsOf("AP3"), (std::vector<overlay::PeerId>{"AP4"}));
  EXPECT_TRUE(chain.SiblingsOf("AP1").empty());
  EXPECT_TRUE(chain.ChildrenOf("AP6").empty());
}

TEST(ActivePeerChain, AncestorsClosestFirst) {
  ActivePeerChain chain = PaperChain();
  // §3.3(b): "AP6 can try the next closest peer (AP1)" — ancestors of AP6
  // beyond its dead parent AP3 are AP2 then AP1.
  EXPECT_EQ(chain.AncestorsOf("AP6"),
            (std::vector<overlay::PeerId>{"AP3", "AP2", "AP1"}));
}

TEST(ActivePeerChain, NearestSuperPeer) {
  ActivePeerChain chain = PaperChain();
  EXPECT_EQ(chain.NearestSuperPeer("AP6"), "AP1");
  EXPECT_EQ(chain.NearestSuperPeer("AP1"), "AP1");
  EXPECT_EQ(chain.NearestSuperPeer("nonexistent"), "");
}

TEST(ActivePeerChain, SubtreeForDescendantNotification) {
  ActivePeerChain chain = PaperChain();
  // Case (c): descendants of AP3 to notify.
  EXPECT_EQ(chain.SubtreeOf("AP3"),
            (std::vector<overlay::PeerId>{"AP3", "AP6"}));
  EXPECT_EQ(chain.SubtreeOf("AP2").size(), 5u);
}

TEST(ActivePeerChain, SpheresOfAtomicity) {
  // "atomicity may still be guaranteed for a transaction if all the
  // involved peers (for that transaction) are super peers" (§3.3).
  EXPECT_FALSE(PaperChain().AtomicityGuaranteed());
  ChainNode b{"B", true, "", {}};
  ChainNode a{"A", true, "", {b}};
  EXPECT_TRUE(ActivePeerChain(a).AtomicityGuaranteed());
  ChainNode c{"C", false, "", {}};
  ChainNode a2{"A", true, "", {b, c}};
  EXPECT_FALSE(ActivePeerChain(a2).AtomicityGuaranteed());
  EXPECT_FALSE(ActivePeerChain().AtomicityGuaranteed());
}

TEST(ActivePeerChain, AllPeersPreOrder) {
  EXPECT_EQ(PaperChain().AllPeers(),
            (std::vector<overlay::PeerId>{"AP1", "AP2", "AP3", "AP6", "AP4",
                                          "AP5"}));
}

TEST(ActivePeerChain, DeepChainQueries) {
  // Linear chain of 20 peers.
  ChainNode node{"P19", false, "", {}};
  for (int i = 18; i >= 0; --i) {
    ChainNode parent{"P" + std::to_string(i), i == 0, "", {node}};
    node = parent;
  }
  ActivePeerChain chain(node);
  EXPECT_EQ(chain.AncestorsOf("P19").size(), 19u);
  EXPECT_EQ(chain.NearestSuperPeer("P19"), "P0");
  auto parsed = ActivePeerChain::Parse(chain.Serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->AllPeers().size(), 20u);
}

TEST(ActivePeerChain, ParseKeepsCanonicalTextAndRewritesOtherSpellings) {
  const std::string canonical = PaperChain().Serialize();
  auto kept = ActivePeerChain::Parse(canonical);
  ASSERT_TRUE(kept.ok()) << kept.status();
  EXPECT_EQ(kept->Serialize(), canonical);
  // Spaces around separators and brackets, and none at all, are accepted
  // and come out as Serialize writes them.
  auto spaced = ActivePeerChain::Parse(
      "  [ AP1*:S1->[AP2:S2 -> [ AP3:S3 ->[AP6:S6] ]||[AP4:S4 -> [AP5:S5]]] ] ");
  ASSERT_TRUE(spaced.ok()) << spaced.status();
  EXPECT_EQ(spaced->Serialize(), canonical);
  // An empty service label is dropped, as Serialize drops it.
  auto unlabeled = ActivePeerChain::Parse("[A: -> [B:S]]");
  ASSERT_TRUE(unlabeled.ok()) << unlabeled.status();
  EXPECT_EQ(unlabeled->Serialize(), "[A -> [B:S]]");
  EXPECT_EQ(ActivePeerChain::Parse("")->Serialize(), "[]");
  EXPECT_EQ(ActivePeerChain().Serialize(), "[]");
  // A tree whose root has no peer id is the empty chain.
  EXPECT_TRUE(ActivePeerChain(ChainNode{"", true, "S", {}}).empty());
}

TEST(ActivePeerChain, ParseRejectsWhatTheTreeParserRejected) {
  for (const char* bad :
       {"[", "[]]", " []", "[A", "[A -> ]", "[A][B]", "A", "[A -> [B] ||]",
        "[A - > [B]]", "[*]", "[:S]", "[A -> [B]] x", "[A ->> [B]]"}) {
    EXPECT_FALSE(ActivePeerChain::Parse(bad).ok()) << bad;
  }
}

/// A random chain tree of up to `*budget` nodes. Ids carry '-' and '_'.
ChainNode RandomTree(Rng* rng, int depth, int* budget) {
  ChainNode node;
  node.peer = "P" + std::to_string(*budget) +
              (rng->Bernoulli(0.2) ? "-x_" + std::to_string(depth) : "");
  --*budget;
  node.super = rng->Bernoulli(0.3);
  if (rng->Bernoulli(0.7)) node.service = "S" + std::to_string(rng->Uniform(9));
  const int children = depth >= 5 ? 0 : static_cast<int>(rng->Uniform(4));
  for (int i = 0; i < children && *budget > 0; ++i) {
    node.children.push_back(RandomTree(rng, depth + 1, budget));
  }
  return node;
}

/// `node` in the bracket syntax with random spaces wherever the parser
/// skips them (and "->" / "||" / "]" spelled out), so Parse has to rewrite
/// it.
void SpellLoosely(const ChainNode& node, Rng* rng, std::string* out) {
  auto space = [rng, out] {
    if (rng->Bernoulli(0.4)) out->append(rng->Bernoulli(0.5) ? " " : "\t ");
  };
  space();
  out->push_back('[');
  space();
  out->append(node.peer);
  if (node.super) out->push_back('*');
  if (!node.service.empty()) {
    out->append(":" + node.service);
  } else if (rng->Bernoulli(0.2)) {
    out->push_back(':');
  }
  for (size_t i = 0; i < node.children.size(); ++i) {
    space();
    out->append(i == 0 ? "->" : "||");
    SpellLoosely(node.children[i], rng, out);
  }
  space();
  out->push_back(']');
}

void CollectIds(const ChainNode& node, std::vector<overlay::PeerId>* out) {
  out->push_back(node.peer);
  for (const ChainNode& c : node.children) CollectIds(c, out);
}

void ExpectSameQueries(const ActivePeerChain& lazy,
                       const ActivePeerChain& built,
                       const std::vector<overlay::PeerId>& ids,
                       const std::string& where) {
  EXPECT_EQ(lazy.empty(), built.empty()) << where;
  EXPECT_EQ(lazy.AllPeers(), built.AllPeers()) << where;
  EXPECT_EQ(lazy.AtomicityGuaranteed(), built.AtomicityGuaranteed()) << where;
  for (const overlay::PeerId& id : ids) {
    EXPECT_EQ(lazy.Contains(id), built.Contains(id)) << where << " " << id;
    EXPECT_EQ(lazy.ParentOf(id), built.ParentOf(id)) << where << " " << id;
    EXPECT_EQ(lazy.ChildrenOf(id), built.ChildrenOf(id)) << where << " " << id;
    EXPECT_EQ(lazy.SiblingsOf(id), built.SiblingsOf(id)) << where << " " << id;
    EXPECT_EQ(lazy.AncestorsOf(id), built.AncestorsOf(id))
        << where << " " << id;
    EXPECT_EQ(lazy.NearestSuperPeer(id), built.NearestSuperPeer(id))
        << where << " " << id;
    EXPECT_EQ(lazy.SubtreeOf(id), built.SubtreeOf(id)) << where << " " << id;
    EXPECT_EQ(lazy.RelativesByDistance(id), built.RelativesByDistance(id))
        << where << " " << id;
  }
}

// Differential: a chain read from the wire builds its tree lazily, on the
// first query; every query must answer as on the chain built from the tree
// itself, whether the wire text was canonical or had to be rewritten.
TEST(ActivePeerChain, LazyQueriesMatchTreeBuiltChainOverRandomTrees) {
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(seed);
    int budget = static_cast<int>(rng.UniformRange(1, 30));
    const ChainNode tree = RandomTree(&rng, 0, &budget);
    const ActivePeerChain built(tree);
    std::vector<overlay::PeerId> ids;
    CollectIds(tree, &ids);
    ids.push_back("absent");
    const std::string where = "seed " + std::to_string(seed);

    auto canonical = ActivePeerChain::Parse(built.Serialize());
    ASSERT_TRUE(canonical.ok()) << where << ": " << canonical.status();
    EXPECT_EQ(canonical->Serialize(), built.Serialize()) << where;
    // A copy taken before any query builds its own tree.
    const ActivePeerChain copy = *canonical;
    ExpectSameQueries(*canonical, built, ids, where);
    ExpectSameQueries(copy, built, ids, where + " (copy)");

    std::string loose;
    SpellLoosely(tree, &rng, &loose);
    auto rewritten = ActivePeerChain::Parse(loose);
    ASSERT_TRUE(rewritten.ok()) << where << ": " << loose;
    EXPECT_EQ(rewritten->Serialize(), built.Serialize()) << where << ": "
                                                         << loose;
    ExpectSameQueries(*rewritten, built, ids, where + " (rewritten)");
  }
}

}  // namespace
}  // namespace axmlx::chain
