// Differential tests for service-call discovery and selection.
//
// Discovery: axml::FindServiceCalls (tag-index candidates + path-tree
// ordering) must return exactly what a plain pre-order walk of the scope
// returns — same calls, same document order — over randomized documents
// under remove and rename churn, across several RNG seeds. Materialization
// order assigns node ids, so any ordering difference would change WAL
// bytes.
//
// Selection: lazy evaluation (Materializer::MaterializeForQuery) decides
// which calls a query needs by reading names in place. Its oracle is the
// old decision — ParseServiceCall + ServiceCallInfo::OutputNames on every
// call in scope — over random documents (declared, missing and renamed
// outputs, calls nested in results and in bookkeeping, malformed calls) and
// random queries: the same calls, Status, stats and resulting document.

#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "axml/materializer.h"
#include "axml/service_call.h"
#include "common/rng.h"
#include "query/eval.h"
#include "query/parser.h"
#include "xml/builder.h"
#include "xml/document.h"
#include "xml/edit.h"
#include "xml/parser.h"

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

// --- Call selection against the parse-everything oracle -------------------

// Output, method and result names share one small pool, so queries hit some
// calls by declared name, some by method name, some only by a renamed
// result child, and miss others.
const char* const kOutNames[] = {"price", "points", "rank", "slams", "key"};
constexpr size_t kNumOutNames = sizeof(kOutNames) / sizeof(kOutNames[0]);

const char* PickName(Rng* rng) { return kOutNames[rng->Uniform(kNumOutNames)]; }

/// Appends a random well-formed call under `parent`. `depth` bounds calls
/// nested in parameters, handlers (bookkeeping: hidden from discovery) and
/// results (visible).
NodeId AddCall(Document* doc, NodeId parent, int depth, Rng* rng,
               std::vector<NodeId>* calls) {
  NodeId sc = xml::AddElement(doc, parent, "axml:sc");
  calls->push_back(sc);
  const uint64_t mode = rng->Uniform(3);
  if (mode > 0) {
    (void)doc->SetAttribute(sc, "mode", mode == 1 ? "replace" : "merge");
  }
  (void)doc->SetAttribute(sc, "serviceURL", "s");
  if (rng->Bernoulli(0.6)) (void)doc->SetAttribute(sc, "outputName", PickName(rng));
  if (rng->Bernoulli(0.6)) (void)doc->SetAttribute(sc, "methodName", PickName(rng));
  if (rng->Bernoulli(0.5)) {
    NodeId params = xml::AddElement(doc, sc, "axml:params");
    NodeId param = xml::AddElement(doc, params, "axml:param");
    (void)doc->SetAttribute(param, "name", "a");
    if (depth > 0 && rng->Bernoulli(0.3)) {
      AddCall(doc, param, depth - 1, rng, calls);  // parameter call
    } else {
      xml::AddTextElement(doc, param, "axml:value", "1");
    }
  }
  if (rng->Bernoulli(0.3)) {
    NodeId handler = xml::AddElement(doc, sc, "axml:catch");
    (void)doc->SetAttribute(handler, "faultName", "F");
    if (depth > 0 && rng->Bernoulli(0.5)) {
      AddCall(doc, handler, depth - 1, rng, calls);  // inside a handler
    }
  }
  if (rng->Bernoulli(0.2)) (void)xml::AddElement(doc, sc, "axml:catchAll");
  if (rng->Bernoulli(0.2)) (void)doc->AppendChild(sc, doc->CreateComment("c"));
  const int results = static_cast<int>(rng->Uniform(3));
  for (int i = 0; i < results; ++i) {
    NodeId r = xml::AddTextElement(doc, sc, PickName(rng), "r");
    if (depth > 0 && rng->Bernoulli(0.2)) {
      AddCall(doc, r, depth - 1, rng, calls);  // result embeds a call
    }
  }
  if (rng->Bernoulli(0.2)) xml::AddText(doc, sc, "t");
  return sc;
}

/// The three malformed forms ParseServiceCall rejects.
void Corrupt(Document* doc, NodeId sc, Rng* rng) {
  switch (rng->Uniform(3)) {
    case 0:
      (void)doc->SetAttribute(sc, "mode", "bogus");
      break;
    case 1: {
      NodeId params = xml::AddElement(doc, sc, "axml:params");
      (void)xml::AddElement(doc, params, "axml:param");  // no name
      break;
    }
    default:
      (void)xml::AddElement(doc, sc, "axml:catch");  // no faultName
  }
}

/// Root with `item` bindings, each with a `key` and a few calls, some under
/// an inner element; with probability one half one call anywhere (hidden
/// ones included) is malformed.
std::unique_ptr<Document> RandomCallDocument(Rng* rng) {
  auto doc = std::make_unique<Document>("Root");
  std::vector<NodeId> calls;
  const int items = static_cast<int>(rng->UniformRange(2, 6));
  for (int i = 0; i < items; ++i) {
    NodeId item = xml::AddElement(doc.get(), doc->root(), "item");
    xml::AddTextElement(doc.get(), item, "key",
                        "v" + std::to_string(rng->Uniform(3)));
    const int n = static_cast<int>(rng->UniformRange(1, 4));
    for (int k = 0; k < n; ++k) {
      NodeId parent = item;
      if (rng->Bernoulli(0.3)) parent = xml::AddElement(doc.get(), item, "grp");
      AddCall(doc.get(), parent, 2, rng, &calls);
    }
  }
  if (rng->Bernoulli(0.5)) {
    Corrupt(doc.get(), calls[rng->Uniform(calls.size())], rng);
  }
  return doc;
}

/// `Select p/<a>[, p/<b>/<c>] from p in Root//item [where ...]` over the
/// name pool plus `key`.
std::string RandomQuery(Rng* rng) {
  std::string q = "Select p/" + std::string(PickName(rng));
  if (rng->Bernoulli(0.5)) {
    q += ", p/grp/" + std::string(PickName(rng));
  }
  if (rng->Bernoulli(0.15)) {
    // A call's own bookkeeping children are not outputs of it.
    const char* const kBookkeeping[] = {"axml:params", "axml:catch",
                                        "axml:catchAll"};
    q += ", p//" + std::string(kBookkeeping[rng->Uniform(3)]);
  }
  q += " from p in Root//item";
  auto compare = [rng] {
    return "p/" + std::string(PickName(rng)) + " = \"" +
           (rng->Bernoulli(0.5) ? "r" : "v" + std::to_string(rng->Uniform(3))) +
           "\"";
  };
  switch (rng->Uniform(4)) {
    case 0:
      break;
    case 1:
      q += " where " + compare();
      break;
    case 2:
      q += " where " + compare() + " and " + compare();
      break;
    default:
      q += " where " + compare() + " or p/key = \"v1\"";
  }
  return q;
}

/// Fixed per request: the call's method name (or `out`) with text `q`.
Result<axml::ServiceResponse> NamedResult(const axml::ServiceRequest& req) {
  const std::string name = req.method_name.empty() ? "out" : req.method_name;
  AXMLX_ASSIGN_OR_RETURN(auto fragment,
                         xml::Parse("<r><" + name + ">q</" + name + "></r>"));
  axml::ServiceResponse response;
  response.fragment = std::move(fragment);
  return response;
}

void StepNames(const query::PathExpr& path,
               std::unordered_set<std::string>* out) {
  for (const query::Step& s : path.steps) {
    if (s.axis != query::Step::Axis::kParent &&
        s.axis != query::Step::Axis::kAttribute && s.name != "*") {
      out->insert(s.name);
    }
  }
}

/// The old selection rule: parse the call, then intersect its OutputNames.
Result<bool> OracleNeeded(const Document& doc, NodeId sc,
                          const std::unordered_set<std::string>& wanted) {
  AXMLX_ASSIGN_OR_RETURN(axml::ServiceCallInfo info,
                         axml::ParseServiceCall(doc, sc));
  for (const std::string& name : info.OutputNames(doc)) {
    if (wanted.count(name) > 0) return true;
  }
  return false;
}

/// MaterializeForQuery's two passes with the oracle's selection rule;
/// counts skipped calls in `*skipped`.
Result<std::vector<NodeId>> OracleMaterializeForQuery(
    Document* doc, axml::Materializer* m, const query::Query& q,
    NodeId scope, int* skipped) {
  std::unordered_set<std::string> where_set, select_set;
  std::vector<const query::Predicate*> stack = {q.where.get()};
  while (!stack.empty()) {
    const query::Predicate* p = stack.back();
    stack.pop_back();
    if (p == nullptr) continue;
    if (p->kind == query::Predicate::Kind::kCompare) {
      StepNames(p->path, &where_set);
    } else {
      stack.push_back(p->left.get());
      stack.push_back(p->right.get());
    }
  }
  for (const query::PathExpr& sel : q.selects) StepNames(sel, &select_set);
  std::vector<NodeId> materialized;
  std::unordered_set<NodeId> done;
  const std::vector<NodeId> sources =
      query::EvaluatePathFrom(*doc, scope, q.source);
  if (!where_set.empty()) {
    for (NodeId src : sources) {
      for (NodeId sc : axml::FindServiceCalls(*doc, src)) {
        if (done.count(sc) > 0) continue;
        AXMLX_ASSIGN_OR_RETURN(bool needed, OracleNeeded(*doc, sc, where_set));
        if (!needed) continue;
        AXMLX_RETURN_IF_ERROR(m->MaterializeCall(sc).status());
        done.insert(sc);
        materialized.push_back(sc);
      }
    }
  }
  for (NodeId src : sources) {
    if (q.where != nullptr && !query::EvaluatePredicate(*doc, src, *q.where)) {
      continue;
    }
    for (NodeId sc : axml::FindServiceCalls(*doc, src)) {
      if (done.count(sc) > 0) continue;
      AXMLX_ASSIGN_OR_RETURN(bool needed, OracleNeeded(*doc, sc, select_set));
      if (!needed) {
        ++*skipped;
        continue;
      }
      AXMLX_RETURN_IF_ERROR(m->MaterializeCall(sc).status());
      done.insert(sc);
      materialized.push_back(sc);
    }
  }
  return materialized;
}

class CallSelectionDiffTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CallSelectionDiffTest, InPlaceSelectionMatchesParseOracle) {
  Rng rng(GetParam());
  int failed = 0, materialized = 0, skipped = 0;
  for (int round = 0; round < 40; ++round) {
    std::unique_ptr<Document> base = RandomCallDocument(&rng);
    for (int k = 0; k < 4; ++k) {
      const std::string text = RandomQuery(&rng);
      auto q = query::ParseQuery(text);
      ASSERT_TRUE(q.ok()) << text << ": " << q.status();
      const std::string where =
          "round " + std::to_string(round) + " " + text + "\n" +
          base->Serialize();

      std::unique_ptr<Document> doc = base->Clone();
      xml::EditLog log;
      axml::Materializer m(doc.get(), NamedResult, &log);
      auto got = m.MaterializeForQuery(*q, doc->root());

      std::unique_ptr<Document> oracle_doc = base->Clone();
      xml::EditLog oracle_log;
      axml::Materializer oracle(oracle_doc.get(), NamedResult, &oracle_log);
      int oracle_skipped = 0;
      auto want = OracleMaterializeForQuery(oracle_doc.get(), &oracle, *q,
                                            oracle_doc->root(),
                                            &oracle_skipped);

      ASSERT_EQ(got.status().ToString(), want.status().ToString()) << where;
      if (got.ok()) {
        ASSERT_EQ(*got, *want) << where;
        materialized += static_cast<int>(got->size());
      } else {
        ++failed;
      }
      const axml::MaterializeStats& a = m.stats();
      const axml::MaterializeStats& b = oracle.stats();
      EXPECT_EQ(a.calls_invoked, b.calls_invoked) << where;
      EXPECT_EQ(a.calls_skipped, oracle_skipped) << where;
      EXPECT_EQ(a.retries, b.retries) << where;
      EXPECT_EQ(a.faults_handled, b.faults_handled) << where;
      EXPECT_EQ(a.nodes_inserted, b.nodes_inserted) << where;
      EXPECT_EQ(a.nodes_removed, b.nodes_removed) << where;
      EXPECT_EQ(log.size(), oracle_log.size()) << where;
      ASSERT_EQ(doc->Serialize(), oracle_doc->Serialize()) << where;
      skipped += oracle_skipped;
    }
  }
  // The random inputs exercise every outcome.
  EXPECT_GT(failed, 0);
  EXPECT_GT(materialized, 0);
  EXPECT_GT(skipped, 0);
}

TEST(CallSelectionTest, MalformedCallFailsQueryThatDoesNotNeedIt) {
  // Pins the three malformed forms and their messages: the oracle above
  // shares ParseServiceCall's checks, so it cannot catch a check lost from
  // both.
  const std::pair<const char*, const char*> kCases[] = {
      {"<axml:sc mode=\"bogus\" methodName=\"rank\"/>",
       "axml:sc has unknown mode 'bogus'"},
      {"<axml:sc methodName=\"rank\"><axml:params><axml:param/>"
       "</axml:params></axml:sc>",
       "axml:param is missing the 'name' attribute"},
      {"<axml:sc methodName=\"rank\"><axml:catch/></axml:sc>",
       "axml:catch is missing the 'faultName' attribute"}};
  for (const auto& [call, message] : kCases) {
    auto doc = xml::Parse(std::string("<Root><item><key>v0</key>") + call +
                          "</item></Root>");
    ASSERT_TRUE(doc.ok()) << doc.status();
    const NodeId sc = axml::FindServiceCalls(**doc, (*doc)->root()).at(0);
    const Status parsed = axml::ParseServiceCall(**doc, sc).status();
    EXPECT_EQ(parsed.code(), StatusCode::kParseError) << call;
    EXPECT_EQ(parsed.message(), message) << call;
    auto q = query::ParseQuery("Select p/key from p in Root//item");
    ASSERT_TRUE(q.ok());
    xml::EditLog log;
    axml::Materializer m(doc->get(), NamedResult, &log);
    auto got = m.MaterializeForQuery(*q, (*doc)->root());
    EXPECT_EQ(got.status().ToString(), parsed.ToString()) << call;
    EXPECT_EQ(m.stats().calls_invoked, 0) << call;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CallSelectionDiffTest,
                         ::testing::Values(uint64_t{3}, uint64_t{17},
                                           uint64_t{2007}));

}  // namespace
}  // namespace axmlx
