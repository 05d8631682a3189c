#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "common/rng.h"
#include "tests/test_data.h"
#include "xml/builder.h"
#include "xml/document.h"
#include "xml/edit.h"
#include "xml/parser.h"

namespace axmlx::xml {
namespace {

TEST(Document, RootIsCreated) {
  Document doc("ATPList");
  const Node* root = doc.Find(doc.root());
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->name, "ATPList");
  EXPECT_TRUE(root->is_element());
  EXPECT_EQ(doc.size(), 1u);
}

TEST(Document, AppendAndFind) {
  Document doc("r");
  NodeId a = AddElement(&doc, doc.root(), "a");
  NodeId b = AddTextElement(&doc, doc.root(), "b", "hello");
  EXPECT_EQ(doc.Find(a)->parent, doc.root());
  EXPECT_EQ(doc.Find(doc.root())->children.size(), 2u);
  EXPECT_EQ(doc.TextContent(b), "hello");
  EXPECT_EQ(doc.IndexInParent(b), 1u);
}

TEST(Document, InsertAtPosition) {
  Document doc("r");
  AddElement(&doc, doc.root(), "a");
  AddElement(&doc, doc.root(), "c");
  NodeId b = doc.CreateElement("b");
  ASSERT_TRUE(doc.InsertAt(doc.root(), 1, b).ok());
  const Node* root = doc.Find(doc.root());
  EXPECT_EQ(doc.Find(root->children[1])->name, "b");
}

TEST(Document, InsertAtRejectsOutOfRange) {
  Document doc("r");
  NodeId b = doc.CreateElement("b");
  Status s = doc.InsertAt(doc.root(), 5, b);
  EXPECT_EQ(s.code(), StatusCode::kOutOfRange);
}

TEST(Document, InsertRejectsAttachedChild) {
  Document doc("r");
  NodeId a = AddElement(&doc, doc.root(), "a");
  Status s = doc.AppendChild(doc.root(), a);
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
}

TEST(Document, InsertRejectsCycle) {
  Document doc("r");
  NodeId a = AddElement(&doc, doc.root(), "a");
  // Detach root under a would be a cycle; simulate by detaching a first.
  auto detached = DetachSubtree(&doc, a);
  ASSERT_TRUE(detached.ok());
  // Re-attach and then try to append an ancestor beneath its descendant.
  ASSERT_TRUE(Reattach(&doc, detached->subtree, doc.root(), 0).ok());
  NodeId inner = AddElement(&doc, a, "inner");
  (void)inner;
  // Root is attached (parent kNull) — appending it under `a` must fail the
  // cycle check rather than corrupt the tree.
  Status s = doc.AppendChild(a, doc.root());
  EXPECT_FALSE(s.ok());
}

TEST(Document, RemoveSubtreeDestroysDescendants) {
  Document doc("r");
  NodeId a = AddElement(&doc, doc.root(), "a");
  NodeId b = AddElement(&doc, a, "b");
  NodeId t = AddText(&doc, b, "x");
  EXPECT_EQ(doc.size(), 4u);
  auto removed = doc.RemoveSubtree(a);
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(removed->parent, doc.root());
  EXPECT_EQ(removed->index, 0u);
  EXPECT_EQ(doc.size(), 1u);
  EXPECT_FALSE(doc.Contains(a));
  EXPECT_FALSE(doc.Contains(b));
  EXPECT_FALSE(doc.Contains(t));
}

TEST(Document, CannotRemoveRoot) {
  Document doc("r");
  EXPECT_EQ(doc.RemoveSubtree(doc.root()).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(Document, SetAttributeOverwrites) {
  Document doc("r");
  ASSERT_TRUE(doc.SetAttribute(doc.root(), "k", "1").ok());
  ASSERT_TRUE(doc.SetAttribute(doc.root(), "k", "2").ok());
  EXPECT_EQ(*doc.Find(doc.root())->FindAttribute("k"), "2");
  EXPECT_EQ(doc.Find(doc.root())->attributes.size(), 1u);
}

TEST(Document, SubtreeSizeAndTextContent) {
  auto doc = testing::MakeAtpList();
  EXPECT_GT(doc->size(), 20u);
  NodeId player = FirstDescendantElement(*doc, doc->root(), "player");
  ASSERT_NE(player, kNullNode);
  NodeId lastname = FirstDescendantElement(*doc, player, "lastname");
  EXPECT_EQ(doc->TextContent(lastname), "Federer");
}

TEST(Document, ImportSubtreeCopiesDeeply) {
  auto src = testing::MakeAtpList();
  Document dst("copy");
  NodeId player = FirstDescendantElement(*src, src->root(), "player");
  auto imported = dst.ImportSubtree(*src, player);
  ASSERT_TRUE(imported.ok());
  ASSERT_TRUE(dst.AppendChild(dst.root(), *imported).ok());
  EXPECT_EQ(dst.SubtreeSize(*imported), src->SubtreeSize(player));
  EXPECT_TRUE(Document::SubtreeEquals(*src, player, dst, *imported));
}

TEST(Document, CloneIsStructurallyEqualAndIndependent) {
  auto doc = testing::MakeAtpList();
  auto copy = doc->Clone();
  EXPECT_TRUE(Document::Equals(*doc, *copy));
  NodeId player = FirstDescendantElement(*doc, doc->root(), "player");
  ASSERT_TRUE(doc->RemoveSubtree(player).ok());
  EXPECT_FALSE(Document::Equals(*doc, *copy));
}

TEST(Document, PathOfIsInformative) {
  auto doc = testing::MakeAtpList();
  NodeId lastname = FirstDescendantElement(*doc, doc->root(), "lastname");
  std::string path = doc->PathOf(lastname);
  EXPECT_NE(path.find("/ATPList"), std::string::npos);
  EXPECT_NE(path.find("lastname"), std::string::npos);
}

// --- Parser ---------------------------------------------------------------

TEST(Parser, ParsesPaperDocument) {
  auto doc = xml::Parse(testing::kAtpListXml);
  ASSERT_TRUE(doc.ok()) << doc.status();
  const Node* root = (*doc)->Find((*doc)->root());
  EXPECT_EQ(root->name, "ATPList");
  EXPECT_EQ(*root->FindAttribute("date"), "18042005");
  EXPECT_EQ(root->children.size(), 2u);  // two players
}

TEST(Parser, SelfClosingAndAttributes) {
  auto doc = xml::Parse("<a x=\"1\" y='2'><b/><c z=\"3\"/></a>");
  ASSERT_TRUE(doc.ok());
  const Node* root = (*doc)->Find((*doc)->root());
  EXPECT_EQ(root->children.size(), 2u);
  EXPECT_EQ(*root->FindAttribute("y"), "2");
}

TEST(Parser, EntityRoundTrip) {
  auto doc = xml::Parse("<a k=\"&lt;&amp;&gt;\">x &amp; y &#65;</a>");
  ASSERT_TRUE(doc.ok());
  const Node* root = (*doc)->Find((*doc)->root());
  EXPECT_EQ(*root->FindAttribute("k"), "<&>");
  EXPECT_EQ((*doc)->TextContent((*doc)->root()), "x & y A");
}

TEST(Parser, RejectsMismatchedTags) {
  EXPECT_FALSE(xml::Parse("<a><b></a></b>").ok());
}

TEST(Parser, RejectsTrailingContent) {
  EXPECT_FALSE(xml::Parse("<a/><b/>").ok());
}

TEST(Parser, RejectsUnterminated) {
  EXPECT_FALSE(xml::Parse("<a><b>").ok());
  EXPECT_FALSE(xml::Parse("<a attr=>").ok());
  EXPECT_FALSE(xml::Parse("<a attr=\"x>").ok());
}

TEST(Parser, CommentsArePreserved) {
  auto doc = xml::Parse("<a><!-- note --><b/></a>");
  ASSERT_TRUE(doc.ok());
  const Node* root = (*doc)->Find((*doc)->root());
  ASSERT_EQ(root->children.size(), 2u);
  EXPECT_EQ((*doc)->Find(root->children[0])->type, NodeType::kComment);
}

TEST(Parser, WhitespaceTextDroppedByDefault) {
  auto doc = xml::Parse("<a>\n  <b>x</b>\n</a>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ((*doc)->Find((*doc)->root())->children.size(), 1u);
}

TEST(Parser, WhitespaceKeptWhenRequested) {
  ParseOptions opts;
  opts.keep_whitespace_text = true;
  auto doc = xml::Parse("<a>\n  <b>x</b>\n</a>", opts);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ((*doc)->Find((*doc)->root())->children.size(), 3u);
}

TEST(Parser, SerializeParseRoundTripOnPaperDoc) {
  auto doc = testing::MakeAtpList();
  std::string serialized = doc->Serialize();
  auto reparsed = xml::Parse(serialized);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  EXPECT_TRUE(Document::Equals(*doc, **reparsed));
}

// --- Detach / reattach and edit rollback -----------------------------------

TEST(Edit, DetachReattachPreservesIdsAndOrder) {
  auto doc = testing::MakeAtpList();
  NodeId player = FirstDescendantElement(*doc, doc->root(), "player");
  size_t before_size = doc->size();
  auto snapshot = doc->Clone();

  auto detached = DetachSubtree(doc.get(), player);
  ASSERT_TRUE(detached.ok());
  EXPECT_FALSE(doc->Contains(player));
  EXPECT_EQ(detached->index, 0u);

  ASSERT_TRUE(
      Reattach(doc.get(), detached->subtree, detached->parent, detached->index)
          .ok());
  EXPECT_TRUE(doc->Contains(player));  // identical id restored
  EXPECT_EQ(doc->size(), before_size);
  EXPECT_TRUE(Document::Equals(*doc, *snapshot));
}

TEST(Edit, ReattachRefusesLiveIds) {
  auto doc = testing::MakeAtpList();
  NodeId player = FirstDescendantElement(*doc, doc->root(), "player");
  auto detached = DetachSubtree(doc.get(), player);
  ASSERT_TRUE(detached.ok());
  ASSERT_TRUE(
      Reattach(doc.get(), detached->subtree, detached->parent, 0).ok());
  Status again = Reattach(doc.get(), detached->subtree, detached->parent, 0);
  EXPECT_EQ(again.code(), StatusCode::kAlreadyExists);
}

TEST(Edit, RollbackRestoresInterleavedEdits) {
  auto doc = testing::MakeAtpList();
  auto snapshot = doc->Clone();
  EditLog log;

  // Insert a node, then delete a subtree that is unrelated, then delete the
  // inserted node's parent — exercising id-chaining across edits.
  NodeId root = doc->root();
  NodeId player2 = doc->Find(root)->children[1];
  NodeId fresh = AddTextElement(doc.get(), player2, "coach", "Toni");
  {
    Edit e;
    e.kind = Edit::Kind::kInsertSubtree;
    e.node = fresh;
    e.parent = player2;
    e.index = doc->IndexInParent(fresh);
    e.nodes_affected = doc->SubtreeSize(fresh);
    log.Append(std::move(e));
  }
  {
    auto detached = DetachSubtree(doc.get(), player2);
    ASSERT_TRUE(detached.ok());
    Edit e;
    e.kind = Edit::Kind::kRemoveSubtree;
    e.node = detached->subtree.root;
    e.parent = detached->parent;
    e.index = detached->index;
    e.nodes_affected = detached->subtree.size();
    e.removed = std::move(detached->subtree);
    log.Append(std::move(e));
  }
  EXPECT_FALSE(Document::Equals(*doc, *snapshot));
  ASSERT_TRUE(RollbackAll(doc.get(), log).ok());
  EXPECT_TRUE(Document::Equals(*doc, *snapshot));
}

TEST(Edit, TotalNodesAffectedSums) {
  EditLog log;
  Edit a;
  a.nodes_affected = 3;
  Edit b;
  b.nodes_affected = 5;
  log.Append(std::move(a));
  log.Append(std::move(b));
  EXPECT_EQ(log.TotalNodesAffected(), 8u);
}

// --- Property test: random documents survive serialize->parse -------------

class RandomTreeTest : public ::testing::TestWithParam<uint64_t> {};

void BuildRandomTree(Document* doc, NodeId parent, Rng* rng, int depth,
                     int* budget) {
  int children = static_cast<int>(rng->Uniform(4));
  bool last_was_text = false;
  for (int i = 0; i < children && *budget > 0; ++i) {
    --*budget;
    // Adjacent text siblings are inherently merged by any XML round-trip
    // (DOM normalization); generate element-separated text only.
    if ((depth > 0 && rng->Bernoulli(0.6)) || last_was_text) {
      last_was_text = false;
      NodeId e = AddElement(doc, parent,
                            "el" + std::to_string(rng->Uniform(7)));
      if (rng->Bernoulli(0.5)) {
        Status s = doc->SetAttribute(e, "a" + std::to_string(rng->Uniform(3)),
                                     "v" + std::to_string(rng->Uniform(100)));
        ASSERT_TRUE(s.ok());
      }
      BuildRandomTree(doc, e, rng, depth - 1, budget);
    } else {
      AddText(doc, parent, "text-" + std::to_string(rng->Uniform(1000)));
      last_was_text = true;
    }
  }
}

TEST_P(RandomTreeTest, SerializeParseIsIdentity) {
  Rng rng(GetParam());
  Document doc("root");
  int budget = 200;
  BuildRandomTree(&doc, doc.root(), &rng, 6, &budget);
  auto reparsed = xml::Parse(doc.Serialize());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  EXPECT_TRUE(Document::Equals(doc, **reparsed));
  // Pretty-printing must also round-trip structurally.
  auto pretty = xml::Parse(doc.Serialize(kNullNode, /*pretty=*/true));
  ASSERT_TRUE(pretty.ok()) << pretty.status();
  EXPECT_TRUE(Document::Equals(doc, **pretty));
}

TEST_P(RandomTreeTest, RandomDetachReattachRoundTrips) {
  Rng rng(GetParam() ^ 0xABCDEF);
  Document doc("root");
  int budget = 150;
  BuildRandomTree(&doc, doc.root(), &rng, 5, &budget);
  auto snapshot = doc.Clone();
  // Detach up to 5 random removable nodes, then reattach in reverse order.
  std::vector<DetachResult> detached;
  for (int i = 0; i < 5; ++i) {
    std::vector<NodeId> candidates;
    doc.Walk(doc.root(), [&](const Node& n) {
      if (n.id != doc.root()) candidates.push_back(n.id);
      return true;
    });
    if (candidates.empty()) break;
    NodeId victim = candidates[rng.Uniform(candidates.size())];
    auto d = DetachSubtree(&doc, victim);
    ASSERT_TRUE(d.ok());
    detached.push_back(std::move(d).value());
  }
  for (size_t i = detached.size(); i > 0; --i) {
    const DetachResult& d = detached[i - 1];
    ASSERT_TRUE(Reattach(&doc, d.subtree, d.parent, d.index).ok());
  }
  EXPECT_TRUE(Document::Equals(doc, *snapshot));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomTreeTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

TEST(SlabStorage, StaleIdsResolveToNullAfterSlotReuse) {
  Document doc("r");
  NodeId a = AddElement(&doc, doc.root(), "a");
  NodeId a_child = AddTextElement(&doc, a, "x", "1");
  ASSERT_TRUE(doc.RemoveSubtree(a).ok());
  EXPECT_EQ(doc.Find(a), nullptr);
  EXPECT_EQ(doc.Find(a_child), nullptr);
  // New nodes recycle the freed slots but get fresh ids; the stale ids must
  // keep resolving to nullptr (generation check), never to the new tenants.
  NodeId b = AddElement(&doc, doc.root(), "b");
  NodeId c = AddElement(&doc, doc.root(), "c");
  EXPECT_GT(b, a_child);  // ids are never reused (§3.1 compensation contract)
  EXPECT_GT(c, a_child);
  EXPECT_EQ(doc.Find(a), nullptr);
  EXPECT_EQ(doc.Find(a_child), nullptr);
  EXPECT_NE(doc.Find(b), nullptr);
  EXPECT_GE(doc.storage_stats().slots_reused, 2);
}

TEST(SlabStorage, PointersStayValidAcrossGrowth) {
  Document doc("r");
  NodeId first = AddElement(&doc, doc.root(), "first");
  const Node* p = doc.Find(first);
  // Allocate well past one slab page (512 slots); pages must not move.
  for (int i = 0; i < 2000; ++i) AddTextElement(&doc, doc.root(), "n", "v");
  EXPECT_EQ(doc.Find(first), p);
  EXPECT_EQ(p->name, "first");
  EXPECT_GE(doc.storage_stats().pages_allocated, 4);
}

TEST(SlabStorage, SmallFirstPagesKeepPointersAcrossGrowth) {
  // Pages grow 8, 8, 16, ..., 256, then 512 slots. Hold a pointer into
  // every page as it appears; none may move while the slab grows to 5k.
  Document doc("r");
  std::vector<std::pair<NodeId, const Node*>> held = {
      {doc.root(), doc.Find(doc.root())}};
  int64_t pages = doc.storage_stats().pages_allocated;
  EXPECT_EQ(pages, 1);
  for (int i = 1; i < 5000; ++i) {
    NodeId id = doc.CreateElement("n" + std::to_string(i));
    ASSERT_TRUE(doc.AppendChild(doc.root(), id).ok());
    if (doc.storage_stats().pages_allocated != pages) {
      pages = doc.storage_stats().pages_allocated;
      held.emplace_back(id, doc.Find(id));
    }
  }
  // 7 pages below slot 512, then one per 512 slots: 5000 slots -> 16.
  EXPECT_EQ(pages, 16);
  EXPECT_EQ(held.size(), 16u);
  for (const auto& [id, ptr] : held) {
    EXPECT_EQ(doc.Find(id), ptr) << id;
    EXPECT_EQ(ptr->id, id);
  }
}

TEST(SlabStorage, CloneMatchesAtEveryPageBoundary) {
  // Page boundaries fall at slot counts 8, 16, 32, ..., 512, then every
  // 512: clone just below, at and just above each one.
  std::vector<size_t> sizes;
  for (size_t b = 8; b <= 2048; b = b < 512 ? b * 2 : b + 512) {
    sizes.insert(sizes.end(), {b - 1, b, b + 1});
  }
  Document doc("r");
  for (size_t size : sizes) {
    // One node per slot (nothing freed), so size() is the slot count.
    while (doc.size() < size) {
      if (doc.size() % 2 == 0) {
        AddElement(&doc, doc.root(), "n");
      } else {
        AddText(&doc, doc.root(), std::to_string(doc.size()));
      }
    }
    std::unique_ptr<Document> copy = doc.Clone();
    ASSERT_EQ(copy->size(), doc.size());
    ASSERT_EQ(copy->next_id(), doc.next_id());
    for (NodeId id = 1; id < doc.next_id(); ++id) {
      const Node* a = doc.Find(id);
      const Node* b = copy->Find(id);
      ASSERT_EQ(a == nullptr, b == nullptr) << id;
      if (a == nullptr) continue;
      ASSERT_EQ(a->name, b->name);
      ASSERT_EQ(a->text, b->text);
      ASSERT_EQ(a->children, b->children);
      ASSERT_NE(a, b);
    }
    ASSERT_EQ(copy->Serialize(), doc.Serialize()) << size;
    // The copy keeps allocating correctly past the copied high-water mark.
    AddTextElement(copy.get(), copy->root(), "more", "x");
    ASSERT_EQ(copy->size(), doc.size() + 2);
  }
}

TEST(SlabStorage, FreeListReusesSlotsAcrossSmallPages) {
  Document doc("r");
  std::vector<NodeId> ids;
  for (int i = 0; i < 40; ++i) ids.push_back(AddElement(&doc, doc.root(), "n"));
  const int64_t pages = doc.storage_stats().pages_allocated;
  EXPECT_EQ(pages, 4);  // 41 slots: pages of 8, 8, 16, 32
  // Free slots spread over pages 0-3, then allocate the same number again.
  std::vector<NodeId> freed;
  for (size_t i = 1; i < ids.size(); i += 4) {
    ASSERT_TRUE(doc.RemoveSubtree(ids[i]).ok());
    freed.push_back(ids[i]);
  }
  const int64_t reused = doc.storage_stats().slots_reused;
  std::vector<NodeId> fresh;
  for (size_t i = 0; i < freed.size(); ++i) {
    fresh.push_back(AddTextElement(&doc, doc.root(), "m", std::to_string(i)));
  }
  // 10 slots come from the free list, 10 more fit in the 32-slot page.
  EXPECT_EQ(doc.storage_stats().pages_allocated, pages);
  EXPECT_GE(doc.storage_stats().slots_reused - reused,
            static_cast<int64_t>(freed.size()));
  for (NodeId id : freed) EXPECT_EQ(doc.Find(id), nullptr);
  for (size_t i = 0; i < fresh.size(); ++i) {
    EXPECT_EQ(doc.TextContent(fresh[i]), std::to_string(i));
  }
  EXPECT_EQ(doc.size(), 1 + ids.size() - freed.size() + 2 * fresh.size());
}

TEST(SlabStorage, InternedNamesAndTagIndexSurviveRename) {
  Document doc("r");
  NodeId a = AddElement(&doc, doc.root(), "alpha");
  AddElement(&doc, doc.root(), "alpha");
  ASSERT_NE(doc.FindNameId("alpha"), kNoName);
  std::vector<NodeId> found;
  doc.CollectElementsNamed(doc.FindNameId("alpha"), &found);
  EXPECT_EQ(found.size(), 2u);
  ASSERT_TRUE(doc.RenameElement(a, "beta").ok());
  found.clear();
  doc.CollectElementsNamed(doc.FindNameId("alpha"), &found);
  EXPECT_EQ(found.size(), 1u);  // stale entry swept on lookup
  found.clear();
  doc.CollectElementsNamed(doc.FindNameId("beta"), &found);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0], a);
  EXPECT_EQ(doc.Find(a)->name, "beta");
}

TEST(SlabStorage, ImportSubtreeReinternsForeignNames) {
  // A subtree copied from another document carries spellings that are not
  // in the target's string table yet; the copy must re-intern them so the
  // tag index and NameId comparisons keep working.
  auto src = Parse("<root><team><player>x</player></team></root>");
  ASSERT_TRUE(src.ok());
  NodeId team = (*src)->Find((*src)->root())->children[0];
  auto frag = (*src)->ExtractFragment(team);
  ASSERT_TRUE(frag.ok());
  Document dst("Empty");
  auto imported = dst.ImportSubtree(**frag, (*frag)->root());
  ASSERT_TRUE(imported.ok());
  ASSERT_TRUE(dst.AppendChild(dst.root(), *imported).ok());
  ASSERT_NE(dst.FindNameId("player"), kNoName);
  std::vector<NodeId> players;
  dst.CollectElementsNamed(dst.FindNameId("player"), &players);
  EXPECT_EQ(players.size(), 1u);
}

}  // namespace
}  // namespace axmlx::xml
