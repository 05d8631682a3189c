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
//
// Catalog: one axml::CallCatalog per document answers selection across
// queries until the document's call-shape generation moves (DESIGN.md §8).
// Rounds keep one document and one catalog through seeded edits made by
// the public mutators and compare every query with uncached selection on a
// clone; the hosts (service::Repository, storage::DurableStore) must build
// each document's catalog once across the commit and abort paths.

#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "axml/call_catalog.h"
#include "axml/materializer.h"
#include "axml/service_call.h"
#include "common/rng.h"
#include "compensation/compensation.h"
#include "ops/executor.h"
#include "ops/operation.h"
#include "query/eval.h"
#include "query/parser.h"
#include "service/repository.h"
#include "storage/durable_store.h"
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

/// What one query did, for the round totals.
struct SelectionRun {
  xml::EditLog log;  ///< The catalog side's edits.
  bool ok = false;
  size_t materialized = 0;
  int skipped = 0;
};

/// Runs `text` on `doc` through `catalog` (null: the materializer's own)
/// and on a clone of `doc` through the oracle, and expects the same calls,
/// Status, stats, edits and resulting document.
SelectionRun ExpectSameSelection(Document* doc, axml::CallCatalog* catalog,
                                 const std::string& text,
                                 const std::string& where) {
  SelectionRun run;
  auto q = query::ParseQuery(text);
  EXPECT_TRUE(q.ok()) << text << ": " << q.status();
  if (!q.ok()) return run;
  std::unique_ptr<Document> oracle_doc = doc->Clone();
  const std::string context = where + " " + text + "\n" + doc->Serialize();

  axml::Materializer m(doc, NamedResult, &run.log, catalog);
  auto got = m.MaterializeForQuery(*q, doc->root());
  xml::EditLog oracle_log;
  axml::Materializer oracle(oracle_doc.get(), NamedResult, &oracle_log);
  int oracle_skipped = 0;
  auto want = OracleMaterializeForQuery(oracle_doc.get(), &oracle, *q,
                                        oracle_doc->root(), &oracle_skipped);
  EXPECT_EQ(got.status().ToString(), want.status().ToString()) << context;
  run.ok = got.ok();
  if (got.ok() && want.ok()) {
    EXPECT_EQ(*got, *want) << context;
    run.materialized = got->size();
  }
  const axml::MaterializeStats& a = m.stats();
  const axml::MaterializeStats& b = oracle.stats();
  EXPECT_EQ(a.calls_invoked, b.calls_invoked) << context;
  EXPECT_EQ(a.calls_skipped, oracle_skipped) << context;
  EXPECT_EQ(a.retries, b.retries) << context;
  EXPECT_EQ(a.faults_handled, b.faults_handled) << context;
  EXPECT_EQ(a.nodes_inserted, b.nodes_inserted) << context;
  EXPECT_EQ(a.nodes_removed, b.nodes_removed) << context;
  EXPECT_EQ(run.log.size(), oracle_log.size()) << context;
  EXPECT_EQ(doc->Serialize(), oracle_doc->Serialize()) << context;
  run.skipped = oracle_skipped;
  return run;
}

TEST_P(CallSelectionDiffTest, InPlaceSelectionMatchesParseOracle) {
  Rng rng(GetParam());
  int failed = 0, materialized = 0, skipped = 0;
  for (int round = 0; round < 40; ++round) {
    std::unique_ptr<Document> base = RandomCallDocument(&rng);
    for (int k = 0; k < 4; ++k) {
      std::unique_ptr<Document> doc = base->Clone();
      const SelectionRun run = ExpectSameSelection(
          doc.get(), /*catalog=*/nullptr, RandomQuery(&rng),
          "round " + std::to_string(round));
      if (!run.ok) ++failed;
      materialized += static_cast<int>(run.materialized);
      skipped += run.skipped;
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

/// Elements of `doc` named `name`, in document order.
std::vector<NodeId> Named(const Document& doc, const std::string& name) {
  std::vector<NodeId> out;
  for (NodeId id : Elements(doc)) {
    if (doc.Find(id)->name == name) out.push_back(id);
  }
  return out;
}

// Call-carrying fragments: a bare call, one under a wrapper element, and
// one with a parameter.
constexpr const char* kCallFragments[] = {
    "<axml:sc mode=\"replace\" serviceURL=\"s\" outputName=\"price\"/>",
    "<grp><axml:sc serviceURL=\"s\" methodName=\"rank\"><slams>r</slams>"
    "</axml:sc></grp>",
    "<axml:sc mode=\"merge\" serviceURL=\"s\" methodName=\"key\">"
    "<axml:params><axml:param name=\"a\"><axml:value>1</axml:value>"
    "</axml:param></axml:params></axml:sc>"};

TEST_P(CallSelectionDiffTest, CatalogTracksEditsBetweenQueries) {
  Rng rng(GetParam());
  int rebuilds = 0, queries = 0, failed = 0;
  for (int round = 0; round < 20; ++round) {
    std::unique_ptr<Document> doc = RandomCallDocument(&rng);
    axml::CallCatalog catalog;
    xml::EditLog last;
    std::vector<NodeId> renamed;  // elements now named axml:params
    for (int step = 0; step < 10; ++step) {
      const std::string where =
          "round " + std::to_string(round) + " step " + std::to_string(step);
      std::vector<NodeId> calls = Named(*doc, "axml:sc");
      std::vector<NodeId> elems = Elements(*doc);
      const NodeId any = elems[rng.Uniform(elems.size())];
      const NodeId call =
          calls.empty() ? xml::kNullNode : calls[rng.Uniform(calls.size())];
      switch (rng.Uniform(9)) {
        case 0: {  // a fragment carrying calls, anywhere
          auto fragment = xml::Parse(
              kCallFragments[rng.Uniform(std::size(kCallFragments))]);
          ASSERT_TRUE(fragment.ok());
          auto copy = doc->ImportSubtree(**fragment, (*fragment)->root());
          ASSERT_TRUE(copy.ok());
          // The catalog looks while the new calls are still detached.
          (void)catalog.VisibleFrom(doc.get(), doc->root());
          ASSERT_TRUE(doc->AppendChild(any, *copy).ok());
          break;
        }
        case 1:  // hide what lies below, or show it again
          if (!renamed.empty() && rng.Bernoulli(0.5)) {
            ASSERT_TRUE(doc->RenameElement(renamed.back(), "grp").ok());
            renamed.pop_back();
          } else if (any != doc->root()) {
            ASSERT_TRUE(doc->RenameElement(any, "axml:params").ok());
            renamed.push_back(any);
          }
          break;
        case 2:  // a call turns malformed, or well-formed again
          if (call != xml::kNullNode) {
            const std::string* mode = doc->Find(call)->FindAttribute("mode");
            const bool bogus = mode != nullptr && *mode == "bogus";
            ASSERT_TRUE(
                doc->SetAttribute(call, "mode", bogus ? "replace" : "bogus")
                    .ok());
          }
          break;
        case 3: {  // a parameter loses its name
          std::vector<NodeId> params = Named(*doc, "axml:param");
          if (!params.empty()) {
            ASSERT_TRUE(
                doc->SetAttributes(params[rng.Uniform(params.size())], {})
                    .ok());
          }
          break;
        }
        case 4:  // a handler without faultName
          if (call != xml::kNullNode) xml::AddElement(doc.get(), call, "axml:catch");
          break;
        case 5:  // a call goes away
          if (call != xml::kNullNode) {
            ASSERT_TRUE(doc->RemoveSubtree(call).ok());
          }
          break;
        case 6:  // the last materialization is rolled back
          ASSERT_TRUE(xml::RollbackAll(doc.get(), last).ok()) << where;
          break;
        case 7:  // an output name changes
          if (call != xml::kNullNode) {
            ASSERT_TRUE(doc->SetAttribute(call, "outputName", PickName(&rng))
                            .ok());
          }
          break;
        default:  // no edit: the catalog must stay as it is
          break;
      }
      last.Clear();
      // The catalog's list and verdicts against the oracle, from the root.
      const int64_t builds = catalog.builds();
      const axml::CallView view = catalog.VisibleFrom(doc.get(), doc->root());
      rebuilds += static_cast<int>(catalog.builds() - builds);
      // The root sees every call the index holds.
      ASSERT_EQ(view.begin, 0u);
      const std::vector<NodeId> listed =
          view.index == nullptr ? std::vector<NodeId>{} : view.index->calls();
      ASSERT_EQ(view.end, listed.size());
      ASSERT_EQ(listed, axml::FindServiceCalls(*doc, doc->root())) << where;
      size_t bad = 0;
      for (uint32_t pos = 0; pos < listed.size(); ++pos) {
        const Status status = axml::ValidateServiceCall(*doc, listed[pos]);
        const auto& malformed = view.index->malformed();
        const bool listed_bad =
            bad < malformed.size() && malformed[bad].first == pos;
        ASSERT_EQ(!status.ok(), listed_bad) << where << " pos " << pos;
        if (listed_bad) {
          ASSERT_EQ(malformed[bad].second.ToString(), status.ToString());
          ++bad;
        }
      }
      SelectionRun run =
          ExpectSameSelection(doc.get(), &catalog, RandomQuery(&rng), where);
      last = std::move(run.log);
      if (!run.ok) ++failed;
      ++queries;
    }
  }
  // Edits between queries rebuild the catalog; most queries reuse it.
  EXPECT_GT(rebuilds, 0);
  EXPECT_LT(rebuilds, queries);
  EXPECT_GT(failed, 0);
}

TEST(CallSelectionTest, StrayRetryIsNotAResult) {
  // An `axml:retry` directly under a call is bookkeeping, not a result:
  // selection must not match it, and replace mode must not remove it.
  auto doc = xml::Parse(
      "<Root><item><axml:sc mode=\"replace\" methodName=\"rank\">"
      "<axml:retry times=\"1\" wait=\"0\"/><rank>old</rank></axml:sc>"
      "</item></Root>");
  ASSERT_TRUE(doc.ok()) << doc.status();
  const NodeId sc = axml::FindServiceCalls(**doc, (*doc)->root()).at(0);
  const NodeId retry = (*doc)->Find(sc)->children.at(0);
  auto info = axml::ParseServiceCall(**doc, sc);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->results, axml::ResultChildren(**doc, sc));
  EXPECT_EQ(info->results.size(), 1u);
  EXPECT_FALSE(axml::ProducesAnyOf(**doc, sc, {"axml:retry"}));

  auto q = query::ParseQuery("Select p//axml:retry from p in Root//item");
  ASSERT_TRUE(q.ok());
  xml::EditLog log;
  axml::Materializer m(doc->get(), NamedResult, &log);
  auto got = m.MaterializeForQuery(*q, (*doc)->root());
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_TRUE(got->empty());
  EXPECT_EQ(m.stats().calls_skipped, 1);

  // Materialized for its own name, the call replaces <rank> and keeps the
  // retry element.
  q = query::ParseQuery("Select p/rank from p in Root//item");
  ASSERT_TRUE(q.ok());
  got = m.MaterializeForQuery(*q, (*doc)->root());
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(*got, std::vector<NodeId>{sc});
  EXPECT_TRUE((*doc)->Contains(retry));
  EXPECT_EQ((*doc)->Serialize(),
            "<Root><item><axml:sc mode=\"replace\" methodName=\"rank\">"
            "<axml:retry times=\"1\" wait=\"0\"/><rank>q</rank></axml:sc>"
            "</item></Root>");
}

TEST(CallSelectionTest, ResultThatEmbedsACallIsSeenByTheNextSource) {
  // Both items are sources of pass 2; the outer one comes first. Its call
  // `emb` returns a result that embeds a new call. The current source's
  // list was fixed before, so only the inner source, whose catalog view is
  // rebuilt once, materializes the new call — as the oracle does.
  const std::string text =
      "<Root><item><key>o</key><item><key>i</key>"
      "<axml:sc mode=\"replace\" methodName=\"emb\" outputName=\"out\"/>"
      "<axml:sc mode=\"replace\" methodName=\"other\" outputName=\"zzz\"/>"
      "</item></item></Root>";
  axml::ServiceInvoker invoker =
      [](const axml::ServiceRequest& req) -> Result<axml::ServiceResponse> {
    std::string body = "<out>" + req.method_name + "</out>";
    if (req.method_name == "emb") {
      body += "<axml:sc mode=\"replace\" methodName=\"plain\" "
              "outputName=\"out\"/>";
    }
    AXMLX_ASSIGN_OR_RETURN(auto fragment, xml::Parse("<r>" + body + "</r>"));
    axml::ServiceResponse response;
    response.fragment = std::move(fragment);
    return response;
  };
  auto q = query::ParseQuery("Select p/out from p in Root//item");
  ASSERT_TRUE(q.ok());

  auto doc = xml::Parse(text);
  ASSERT_TRUE(doc.ok());
  axml::CallCatalog catalog;
  (void)catalog.VisibleFrom(doc->get(), (*doc)->root());
  ASSERT_EQ(catalog.builds(), 1);
  xml::EditLog log;
  axml::Materializer m(doc->get(), invoker, &log, &catalog);
  auto got = m.MaterializeForQuery(*q, (*doc)->root());
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(catalog.builds(), 2);

  auto oracle_doc = xml::Parse(text);
  ASSERT_TRUE(oracle_doc.ok());
  xml::EditLog oracle_log;
  axml::Materializer oracle(oracle_doc->get(), invoker, &oracle_log);
  int oracle_skipped = 0;
  auto want = OracleMaterializeForQuery(oracle_doc->get(), &oracle, *q,
                                        (*oracle_doc)->root(),
                                        &oracle_skipped);
  ASSERT_TRUE(want.ok()) << want.status();
  EXPECT_EQ(*got, *want);
  ASSERT_EQ(got->size(), 2u);  // `emb`, then the call it returned
  EXPECT_EQ(*(*doc)->Find(got->at(1))->FindAttribute("methodName"), "plain");
  EXPECT_EQ(m.stats().calls_skipped, oracle_skipped);
  EXPECT_EQ(m.stats().calls_skipped, 2);  // `other`, once per source
  EXPECT_EQ((*doc)->Serialize(), (*oracle_doc)->Serialize());
}

TEST(CallSelectionTest, ServiceThatWritesTheDocumentIsJudgedLive) {
  // A service may write to the document whose call it serves (a local
  // service on the same peer). Here `a` gives the later call `b` a result
  // named `x` while being invoked: a child-list change on a call, which
  // leaves the generation alone. The rest of the list is then judged
  // against the live document, so `b` is materialized as the oracle does.
  const std::string text =
      "<Root><item>"
      "<axml:sc mode=\"merge\" methodName=\"a\" outputName=\"x\"/>"
      "<axml:sc mode=\"merge\" methodName=\"b\" outputName=\"y\"/>"
      "</item></Root>";
  auto invoker_for = [](Document* doc) -> axml::ServiceInvoker {
    return [doc](const axml::ServiceRequest& req)
               -> Result<axml::ServiceResponse> {
      if (req.method_name == "a") {
        const NodeId b = axml::FindServiceCalls(*doc, doc->root()).at(1);
        xml::AddTextElement(doc, b, "x", "side");
      }
      return NamedResult(req);
    };
  };
  auto q = query::ParseQuery("Select p/x from p in Root//item");
  ASSERT_TRUE(q.ok());

  auto doc = xml::Parse(text);
  ASSERT_TRUE(doc.ok());
  axml::CallCatalog catalog;
  xml::EditLog log;
  axml::Materializer m(doc->get(), invoker_for(doc->get()), &log, &catalog);
  auto got = m.MaterializeForQuery(*q, (*doc)->root());
  ASSERT_TRUE(got.ok()) << got.status();

  auto oracle_doc = xml::Parse(text);
  ASSERT_TRUE(oracle_doc.ok());
  xml::EditLog oracle_log;
  axml::Materializer oracle(oracle_doc->get(), invoker_for(oracle_doc->get()),
                            &oracle_log);
  int oracle_skipped = 0;
  auto want = OracleMaterializeForQuery(oracle_doc->get(), &oracle, *q,
                                        (*oracle_doc)->root(),
                                        &oracle_skipped);
  ASSERT_TRUE(want.ok()) << want.status();
  EXPECT_EQ(*got, *want);
  EXPECT_EQ(got->size(), 2u);
  EXPECT_EQ(m.stats().calls_skipped, oracle_skipped);
  EXPECT_EQ((*doc)->Serialize(), (*oracle_doc)->Serialize());
}

// --- One catalog per hosted document ---------------------------------------

/// A document shaped like the end-to-end benchmark's commit-large one: 40
/// replace-mode calls, each holding its previous result, and a <log>.
std::string CommitLargeDocument() {
  std::string doc = "<D><calls>";
  for (int c = 0; c < 40; ++c) {
    const std::string key = (c < 10 ? "00" : "0") + std::to_string(c);
    doc += "<axml:sc mode=\"replace\" serviceURL=\"P\" methodName=\"Quote\" "
           "outputName=\"q" + key + "\"><axml:params><axml:param name=\"k\">"
           "<axml:value>" + key + "</axml:value></axml:param></axml:params>"
           "<q" + key + ">old</q" + key + "></axml:sc>";
  }
  doc += "</calls><log>";
  for (int i = 0; i < 20; ++i) doc += "<entry n=\"" + std::to_string(i) + "\">w</entry>";
  return doc + "</log></D>";
}

Result<axml::ServiceResponse> Quote(const axml::ServiceRequest& req) {
  std::string key;
  for (const auto& [name, value] : req.params) {
    if (name == "k") key = value;
  }
  AXMLX_ASSIGN_OR_RETURN(
      auto fragment, xml::Parse("<r><q" + key + ">new</q" + key + "></r>"));
  axml::ServiceResponse response;
  response.fragment = std::move(fragment);
  return response;
}

/// The benchmark's per-key service: one lazy query, two inserts.
std::vector<ops::Operation> KeyServiceOps() {
  return {ops::MakeQuery("Select d//q007 from d in D"),
          ops::MakeInsert("Select l from l in D/log", "<entry s=\"a\"/>"),
          ops::MakeInsert("Select l from l in D/log", "<entry s=\"b\"/>")};
}

TEST(CallCatalogHostTest, ServiceHostBuildsOneCatalogAcrossCommitAndAbort) {
  service::Repository repo;
  auto doc = xml::Parse(CommitLargeDocument());
  ASSERT_TRUE(doc.ok());
  const std::string before = (*doc)->Serialize();
  ASSERT_TRUE(repo.AddDocument(std::move(doc).value()).ok());
  service::ServiceDefinition def;
  def.name = "S007";
  def.document = "D";
  def.ops = KeyServiceOps();
  ASSERT_TRUE(repo.AddService(std::move(def)).ok());
  service::ServiceHost host(&repo, Quote, /*rng=*/nullptr);

  auto first = host.Invoke("S007", {});
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_EQ(first->effects.effects().front().materialize_stats.calls_invoked,
            1);
  EXPECT_EQ(first->effects.effects().front().materialize_stats.calls_skipped,
            39);
  // Abort: the compensating service runs on the same document.
  ops::Executor executor(repo.GetDocument("D"), Quote);
  executor.SetCallCatalog(repo.Catalog("D"));
  ASSERT_TRUE(comp::ApplyPlan(&executor, first->compensation).ok());
  EXPECT_EQ(repo.GetDocument("D")->Serialize(), before);
  auto second = host.Invoke("S007", {});
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(repo.Catalog("D")->builds(), 1);
}

TEST(CallCatalogHostTest, DurableStoreBuildsOneCatalogAcrossCommitAndAbort) {
  const std::string dir = ::testing::TempDir() + "axmlx_catalog_store";
  std::remove((dir + "/wal.log").c_str());
  std::remove((dir + "/manifest.txt").c_str());
  std::remove((dir + "/snap_D.xml").c_str());
  storage::DurableStore store(dir, Quote);
  ASSERT_TRUE(store.Open().ok());
  ASSERT_TRUE(store.CreateDocument(CommitLargeDocument()).ok());
  const std::string before = store.Get("D")->Serialize();
  ASSERT_TRUE(store.Begin("T1").ok());
  for (const ops::Operation& op : KeyServiceOps()) {
    auto effect = store.Execute("T1", "D", op);
    ASSERT_TRUE(effect.ok()) << effect.status();
  }
  ASSERT_TRUE(store.Abort("T1").ok());
  EXPECT_EQ(store.Get("D")->Serialize(), before);
  ASSERT_TRUE(store.Begin("T2").ok());
  for (const ops::Operation& op : KeyServiceOps()) {
    ASSERT_TRUE(store.Execute("T2", "D", op).ok());
  }
  ASSERT_TRUE(store.Commit("T2").ok());
  EXPECT_EQ(store.Catalog("D")->builds(), 1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CallSelectionDiffTest,
                         ::testing::Values(uint64_t{3}, uint64_t{17},
                                           uint64_t{2007}));

}  // namespace
}  // namespace axmlx
