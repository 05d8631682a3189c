// Differential test for indexed service-call discovery: axml::
// FindServiceCalls (tag-index candidates + path-tree ordering) must return
// exactly what a plain pre-order walk of the scope returns — same calls,
// same document order — over randomized documents under remove and rename
// churn, across several RNG seeds. Materialization order assigns node ids,
// so any ordering difference would change WAL bytes.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "axml/service_call.h"
#include "common/rng.h"
#include "query/eval.h"
#include "xml/builder.h"
#include "xml/document.h"

namespace axmlx {
namespace {

using xml::Document;
using xml::NodeId;

/// The reference: the tree walk FindServiceCalls used before the tag index
/// took over. Bookkeeping elements prune their whole subtree (the scope
/// root included); calls nested in results are found.
std::vector<NodeId> WalkServiceCalls(const Document& doc, NodeId from) {
  std::vector<NodeId> out;
  doc.Walk(from, [&out](const xml::Node& n) {
    if (query::IsBookkeepingElement(n)) return false;
    if (n.is_element() && n.name == "axml:sc") out.push_back(n.id);
    return true;
  });
  return out;
}

// "axml:sc" twice so calls are common; the four bookkeeping names prune.
const char* const kNames[] = {"a",          "b",           "entry",
                              "axml:sc",    "axml:sc",     "axml:params",
                              "axml:param", "axml:catch",  "axml:catchAll",
                              "axml:retry"};
constexpr size_t kNumNames = sizeof(kNames) / sizeof(kNames[0]);

/// Random subtree under `parent`: plain elements, calls (whose children are
/// results or bookkeeping), bookkeeping elements holding calls, text and
/// comments.
void Grow(Document* doc, NodeId parent, int depth, Rng* rng) {
  const int children = static_cast<int>(rng->UniformRange(1, 4));
  for (int i = 0; i < children; ++i) {
    const uint64_t kind = rng->Uniform(10);
    if (kind < 7) {
      NodeId e = xml::AddElement(doc, parent, kNames[rng->Uniform(kNumNames)]);
      if (depth > 0) Grow(doc, e, depth - 1, rng);
    } else if (kind < 9) {
      xml::AddText(doc, parent, "t");
    } else {
      (void)doc->AppendChild(parent, doc->CreateComment("c"));
    }
  }
}

/// Every live element id, in document order (walk order).
std::vector<NodeId> Elements(const Document& doc) {
  std::vector<NodeId> out;
  doc.Walk(doc.root(), [&out](const xml::Node& n) {
    if (n.is_element()) out.push_back(n.id);
    return true;
  });
  return out;
}

/// Compares indexed and walked discovery from every interesting scope: the
/// root, every call, every bookkeeping element, every detached root, and a
/// sample of the other elements.
void ExpectAgreement(const Document& doc, const std::vector<NodeId>& detached,
                     Rng* rng, const std::string& where) {
  std::vector<NodeId> scopes = {doc.root()};
  for (NodeId id : Elements(doc)) {
    const xml::Node* n = doc.Find(id);
    if (n->name_id < xml::kNumReservedNames || rng->Bernoulli(0.05)) {
      scopes.push_back(id);
    }
  }
  for (NodeId id : detached) {
    if (doc.Contains(id)) scopes.push_back(id);
  }
  for (NodeId from : scopes) {
    ASSERT_EQ(axml::FindServiceCalls(doc, from), WalkServiceCalls(doc, from))
        << where << " from=" << doc.PathOf(from);
  }
}

class DiscoveryDiffTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DiscoveryDiffTest, IndexedMatchesWalkUnderChurn) {
  Rng rng(GetParam());
  Document doc("Root");
  for (int i = 0; i < 6; ++i) Grow(&doc, doc.root(), 4, &rng);
  // A wide parent: thousands of siblings with calls scattered among them,
  // some holding results that embed further calls.
  NodeId wide = xml::AddElement(&doc, doc.root(), "wide");
  for (int i = 0; i < 3000; ++i) {
    if (rng.Bernoulli(0.01)) {
      NodeId sc = xml::AddElement(&doc, wide, "axml:sc");
      if (rng.Bernoulli(0.5)) Grow(&doc, sc, 2, &rng);
    } else {
      xml::AddTextElement(&doc, wide, "entry", std::to_string(i));
    }
  }
  // Detached calls: a lone one, and one inside a detached subtree.
  std::vector<NodeId> detached = {doc.CreateElement("axml:sc")};
  NodeId loose = doc.CreateElement("a");
  (void)doc.AppendChild(loose, doc.CreateElement("axml:sc"));
  Grow(&doc, loose, 2, &rng);
  detached.push_back(loose);
  ExpectAgreement(doc, detached, &rng, "initial");

  for (int round = 0; round < 12; ++round) {
    std::vector<NodeId> elems = Elements(doc);
    for (int k = 0; k < 8; ++k) {
      const NodeId id = elems[rng.Uniform(elems.size())];
      if (!doc.Contains(id) || id == doc.root() || id == wide) continue;
      switch (rng.Uniform(4)) {
        case 0:  // remove churn
          ASSERT_TRUE(doc.RemoveSubtree(id).ok());
          break;
        case 1:  // a call stops being one, or something becomes one
          ASSERT_TRUE(doc.RenameElement(
                             id, doc.Find(id)->name == "axml:sc" ? "b"
                                                                 : "axml:sc")
                          .ok());
          break;
        case 2:  // rename away and back: the index may hold the id twice
          ASSERT_TRUE(doc.RenameElement(id, "b").ok());
          ASSERT_TRUE(doc.RenameElement(id, "axml:sc").ok());
          break;
        default:  // new material, calls included
          Grow(&doc, id, 2, &rng);
      }
    }
    ExpectAgreement(doc, detached, &rng, "round " + std::to_string(round));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DiscoveryDiffTest,
                         ::testing::Values(uint64_t{1}, uint64_t{7},
                                           uint64_t{2007}));

TEST(DiscoveryTest, ScopeEqualToCallOrBookkeepingElement) {
  Document doc("Root");
  NodeId sc = xml::AddElement(&doc, doc.root(), "axml:sc");
  NodeId params = xml::AddElement(&doc, sc, "axml:params");
  xml::AddElement(&doc, params, "axml:sc");  // parameter call: hidden
  NodeId result = xml::AddElement(&doc, sc, "r");
  NodeId inner = xml::AddElement(&doc, result, "axml:sc");
  EXPECT_EQ(axml::FindServiceCalls(doc, sc), (std::vector<NodeId>{sc, inner}));
  EXPECT_TRUE(axml::FindServiceCalls(doc, params).empty());
  EXPECT_EQ(axml::FindServiceCalls(doc, inner), std::vector<NodeId>{inner});
  EXPECT_TRUE(axml::FindServiceCalls(doc, xml::NodeId{999999}).empty());
}

}  // namespace
}  // namespace axmlx
