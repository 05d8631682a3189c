// Differential tests for the one-pass XML parser (xml::Parse, xml::ParseInto,
// DESIGN.md §8) against the recursive-descent parser it replaced, kept in
// tests/recursive_parser.h as the oracle. The one-pass parser builds the
// root in place instead of splicing it out of a placeholder document, so a
// parsed document must match the oracle's in every id, in next_id and size,
// in every record (name, name id, attributes, text, links), in its tag
// index, its serialization and its call-shape generation; only the oracle's
// placeholder leaves traces (its interned name, one allocated and freed
// slot). Malformed input must fail with the same Status, and the dry run
// (ParseInto with no target) must agree with the build on every input.
//
// scripts/check.sh runs this suite (ctest label `payload`) under ASan.

#include <gtest/gtest.h>
#include <pthread.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "tests/recursive_parser.h"
#include "tests/test_data.h"
#include "xml/document.h"
#include "xml/parser.h"

namespace axmlx {
namespace {

using xml::Document;
using xml::Node;
using xml::NodeId;
using xml::ParseOptions;

/// Runs `fn` on a thread with a 256 MB stack: the oracle recurses once per
/// nesting level, and under ASan its frames are large enough for the
/// over-deep corpus to overflow a default 8 MB stack.
void OnLargeStack(const std::function<void()>& fn) {
  pthread_attr_t attr;
  ASSERT_EQ(pthread_attr_init(&attr), 0);
  ASSERT_EQ(pthread_attr_setstacksize(&attr, size_t{256} << 20), 0);
  pthread_t thread;
  auto run = [](void* arg) -> void* {
    (*static_cast<const std::function<void()>*>(arg))();
    return nullptr;
  };
  ASSERT_EQ(pthread_create(&thread, &attr, run,
                           const_cast<std::function<void()>*>(&fn)),
            0);
  ASSERT_EQ(pthread_join(thread, nullptr), 0);
  pthread_attr_destroy(&attr);
}

Result<std::unique_ptr<Document>> OracleParse(const std::string& input,
                                              const ParseOptions& options) {
  Result<std::unique_ptr<Document>> out = InvalidArgument("not run");
  OnLargeStack([&] { out = oracle::Parse(input, options); });
  return out;
}

Result<std::vector<NodeId>> OracleParseInto(Document* target,
                                            const std::string& wrapped,
                                            const ParseOptions& options) {
  Result<std::vector<NodeId>> out = InvalidArgument("not run");
  OnLargeStack([&] { out = oracle::ParseInto(target, wrapped, options); });
  return out;
}

// --- Comparisons ------------------------------------------------------------

/// Every record, in pre-order from each root: ids, links, names, text and
/// attributes. The name id must be the one the document interned for the
/// spelling.
void ExpectSameRecords(const Document& got, NodeId got_root,
                       const Document& want, NodeId want_root,
                       const std::string& where) {
  std::vector<std::pair<NodeId, NodeId>> stack = {{got_root, want_root}};
  while (!stack.empty()) {
    const auto [g, w] = stack.back();
    stack.pop_back();
    const Node* a = got.Find(g);
    const Node* b = want.Find(w);
    ASSERT_NE(a, nullptr) << where << " id " << g;
    ASSERT_NE(b, nullptr) << where << " id " << w;
    EXPECT_EQ(a->id, b->id) << where;
    EXPECT_EQ(a->type, b->type) << where << " id " << a->id;
    EXPECT_EQ(a->parent, b->parent) << where << " id " << a->id;
    EXPECT_EQ(a->name, b->name) << where << " id " << a->id;
    EXPECT_EQ(a->text, b->text) << where << " id " << a->id;
    EXPECT_EQ(a->attributes, b->attributes) << where << " id " << a->id;
    ASSERT_EQ(a->children, b->children) << where << " id " << a->id;
    if (a->is_element()) {
      EXPECT_EQ(a->name_id, got.FindNameId(a->name)) << where;
      EXPECT_EQ(got.NameOf(a->name_id), a->name) << where;
    } else {
      EXPECT_EQ(a->name_id, xml::kNoName) << where;
    }
    for (size_t i = 0; i < a->children.size(); ++i) {
      stack.emplace_back(a->children[i], b->children[i]);
    }
  }
}

/// Live tag-index entries per name. The oracle renamed its root after
/// building everything else, so its root sits last in its bucket; the
/// index promises allocation order only, so buckets compare sorted.
void ExpectSameTagIndex(const Document& got, const Document& want,
                        const std::string& where) {
  for (xml::NameId id = 0; id < got.interned_names(); ++id) {
    const std::string& name = got.NameOf(id);
    std::vector<NodeId> a, b;
    got.CollectElementsNamed(id, &a);
    want.CollectElementsNamed(want.FindNameId(name), &b);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b) << where << " bucket " << name;
  }
}

/// A whole parsed document against the oracle's.
void ExpectSameDocument(Document& got, Document& want,
                        const std::string& where) {
  EXPECT_EQ(got.root(), want.root()) << where;
  EXPECT_EQ(got.root(), NodeId{1}) << where;
  EXPECT_EQ(got.next_id(), want.next_id()) << where;
  EXPECT_EQ(got.size(), want.size()) << where;
  ExpectSameRecords(got, got.root(), want, want.root(), where);
  if (const Node* root = got.Find(got.root()); !root->children.empty()) {
    EXPECT_EQ(root->children.front(), NodeId{3}) << where;
  }
  // The oracle interned "placeholder" first and then the document's names;
  // the one-pass parser interns the document's names alone, in the same
  // order.
  ASSERT_EQ(got.interned_names() + 1, want.interned_names()) << where;
  EXPECT_EQ(want.NameOf(xml::kNumReservedNames), "placeholder") << where;
  for (xml::NameId id = 0; id < got.interned_names(); ++id) {
    const xml::NameId want_id = id < xml::kNumReservedNames ? id : id + 1;
    EXPECT_EQ(got.NameOf(id), want.NameOf(want_id)) << where;
  }
  ExpectSameTagIndex(got, want, where);
  EXPECT_EQ(got.Serialize(), want.Serialize()) << where;
  EXPECT_EQ(got.Serialize(xml::kNullNode, /*pretty=*/true),
            want.Serialize(xml::kNullNode, /*pretty=*/true))
      << where;
  EXPECT_TRUE(Document::Equals(got, want)) << where;
  // The placeholder root was allocated and freed; its slot served nothing.
  const Document::StorageStats& a = got.storage_stats();
  const Document::StorageStats& b = want.storage_stats();
  EXPECT_EQ(a.nodes_allocated + 1, b.nodes_allocated) << where;
  EXPECT_EQ(a.nodes_freed, 0) << where;
  EXPECT_EQ(b.nodes_freed, 1) << where;
  EXPECT_EQ(a.slots_reused, b.slots_reused) << where;
  // Call-shape generation: equal after the parse, and moved alike by the
  // same call-shape edit once watched.
  EXPECT_EQ(got.call_shape_generation(), want.call_shape_generation())
      << where;
  const uint64_t watched = got.WatchCallShape();
  want.WatchCallShape();
  const NodeId call_a = got.CreateElement("axml:sc");
  const NodeId call_b = want.CreateElement("axml:sc");
  ASSERT_TRUE(got.AppendChild(got.root(), call_a).ok());
  ASSERT_TRUE(want.AppendChild(want.root(), call_b).ok());
  EXPECT_EQ(call_a, call_b) << where;
  EXPECT_NE(got.call_shape_generation(), watched) << where;
  EXPECT_EQ(got.call_shape_generation(), want.call_shape_generation())
      << where;
  // The oracle's next node reuses the placeholder's slot.
  EXPECT_EQ(got.storage_stats().slots_reused + 1,
            want.storage_stats().slots_reused)
      << where;
}

// --- Corpus -----------------------------------------------------------------

std::string GenText(Rng* rng) {
  static const char* const kTexts[] = {
      "w",     "  padded  ", "   ",       "a &amp; b", "&lt;tag&gt;",
      "x\ny",  "&#65;&#x42;", "&bogus; &", "\n  \n",    "&quot;q&apos;",
      "tail\t", "12345"};
  return kTexts[rng->Uniform(std::size(kTexts))];
}

std::string GenAttrs(Rng* rng) {
  static const char* const kValues[] = {"1",  "x &amp; y", "&lt;&quot;&gt;",
                                        "  sp  ", "", "&apos;s", "&#x41;",
                                        "multi\nline"};
  static const char* const kKeys[] = {"k", "id", "n", "axml:x"};
  std::string out;
  const uint64_t count = rng->Uniform(5);
  for (uint64_t i = 0; i < count; ++i) {
    // Keys repeat now and then: the last value wins, in the first position.
    const char quote = rng->Bernoulli(0.5) ? '"' : '\'';
    out += std::string(rng->Bernoulli(0.7) ? " " : "\n  ") +
           kKeys[rng->Uniform(std::size(kKeys))] +
           (rng->Bernoulli(0.8) ? "=" : " = ") + quote +
           kValues[rng->Uniform(std::size(kValues))] + quote;
  }
  return out;
}

std::string GenNode(Rng* rng, int depth) {
  static const char* const kTags[] = {"a",       "b",          "item",
                                      "e-1",     "x.y",        "axml:sc",
                                      "axml:params", "_u",     "q007"};
  const std::string tag = kTags[rng->Uniform(std::size(kTags))];
  switch (rng->Uniform(depth >= 6 ? 3 : 7)) {
    case 0:
      return GenText(rng);
    case 1:
      return "<!-- c" + std::to_string(rng->Uniform(100)) + " -->";
    case 2:
      return "<" + tag + GenAttrs(rng) + (rng->Bernoulli(0.5) ? "/>" : " />");
    default: {
      std::string out = "<" + tag + GenAttrs(rng) + ">";
      const uint64_t children = rng->Uniform(5);
      for (uint64_t i = 0; i < children; ++i) out += GenNode(rng, depth + 1);
      return out + "</" + tag + (rng->Bernoulli(0.8) ? ">" : " \n>");
    }
  }
}

/// A whole document: an optional declaration and comments around a root.
std::string GenDocument(Rng* rng) {
  std::string out;
  if (rng->Bernoulli(0.3)) out += "<?xml version=\"1.0\"?>\n";
  if (rng->Bernoulli(0.2)) out += "<!-- before -->\n";
  const std::string root = rng->Bernoulli(0.5) ? "root" : "a";
  out += "<" + root + GenAttrs(rng) + ">";
  const uint64_t children = rng->Uniform(6);
  for (uint64_t i = 0; i < children; ++i) out += GenNode(rng, 1);
  out += "</" + root + ">";
  if (rng->Bernoulli(0.2)) out += "\n<!-- after -->\n";
  return out;
}

std::string Nested(size_t levels, const std::string& inner) {
  std::string out;
  for (size_t i = 0; i < levels; ++i) out += "<a>";
  out += inner;
  for (size_t i = 0; i < levels; ++i) out += "</a>";
  return out;
}

/// Malformed (or borderline) input for every error the parser reports.
std::vector<std::string> MalformedCorpus() {
  return {
      "",
      "   ",
      "text only",
      "<",
      "<a",
      "<a ",
      "<a b",
      "<a b=",
      "<a b=c>",
      "<a b=\"c>",
      "<a b='c\">",
      "<a b=\"1\" b>",
      "<a b=\"1\"c=\"2\"></a>",
      "<a>",
      "<a>text",
      "<a></b>",
      "<a><b></a></b>",
      "<a></a",
      "<a></ a>",
      "<a></>",
      "<a><!-- open</a>",
      "<a><![CDATA[x]]></a>",
      "<!DOCTYPE a><a/>",
      "<a><!DOCTYPE b></a>",
      "<a><?pi x?></a>",
      "<a/><b/>",
      "<a/>trailing",
      "<a></a>\n\n<",
      "<1a/>",
      "<a><1b/></a>",
      "<a\n\nb='x\n'\n>\n<c\n",
      "<a>\n<b>\n</c>\n</a>",
      "<?xml version=\"1.0\"?><a/>",
      "<!-- only a comment -->",
      "<a/><!-- after -->",
      "<a>x</a>   ",
      "<data><b/></data>",
      "<data>t<b k='1'/>u<!--c--></data>",
      Nested(xml::kMaxParseDepth, "x"),
      Nested(xml::kMaxParseDepth - 1, "<b/>"),
      Nested(xml::kMaxParseDepth, "<b/>"),
      Nested(xml::kMaxParseDepth + 1, ""),
      "<r>\n" + Nested(xml::kMaxParseDepth + 5, "") + "\n</r>",
  };
}

/// Random damage: deleted, flipped and duplicated spans.
std::string Mutate(const std::string& input, Rng* rng) {
  std::string out = input;
  const int mutations = 1 + static_cast<int>(rng->Uniform(3));
  for (int i = 0; i < mutations && !out.empty(); ++i) {
    const size_t pos = rng->Uniform(out.size());
    switch (rng->Uniform(3)) {
      case 0:
        out.erase(pos, rng->Uniform(4) + 1);
        break;
      case 1:
        out[pos] = "<>/=\"'&!?- \nab"[rng->Uniform(14)];
        break;
      default:
        out.insert(pos, out.substr(pos, rng->Uniform(6) + 1));
        break;
    }
  }
  return out;
}

/// Parse and the dry run against the oracle on one input, well formed or
/// not; also builds it into a target when it is well formed.
void ExpectSameOutcome(const std::string& input, const ParseOptions& options,
                       const std::string& where) {
  auto got = xml::Parse(input, options);
  auto want = OracleParse(input, options);
  ASSERT_EQ(got.ok(), want.ok()) << where << "\n" << want.status();
  EXPECT_EQ(got.status(), want.status()) << where;
  if (got.ok()) ExpectSameDocument(**got, **want, where);
  // The same text as a payload: the dry run against the build and against
  // the oracle's dry run.
  auto dry = xml::ParseInto(nullptr, input, options);
  auto want_dry = OracleParseInto(nullptr, input, options);
  EXPECT_EQ(dry.status(), want_dry.status()) << where;
  if (dry.ok()) {
    EXPECT_TRUE(dry->empty()) << where;
  }
  auto target = xml::Parse(testing::kAtpListXml);
  ASSERT_TRUE(target.ok());
  const NodeId next = (*target)->next_id();
  auto built = xml::ParseInto(target->get(), input, options);
  EXPECT_EQ(built.status(), dry.status()) << where;
  if (!built.ok()) {
    EXPECT_EQ((*target)->next_id(), next) << where;
  }
}

// --- Tests ------------------------------------------------------------------

TEST(ParseDiffTest, RandomDocumentsMatchTheRecursiveParser) {
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    Rng rng(seed);
    const std::string input = GenDocument(&rng);
    for (const bool keep : {false, true}) {
      ParseOptions options;
      options.keep_whitespace_text = keep;
      const std::string where = "seed " + std::to_string(seed) +
                                (keep ? " keep" : " trim") + ": " + input;
      auto got = xml::Parse(input, options);
      auto want = OracleParse(input, options);
      ASSERT_TRUE(got.ok()) << got.status() << " " << where;
      ASSERT_TRUE(want.ok()) << want.status() << " " << where;
      ExpectSameDocument(**got, **want, where);
    }
  }
}

TEST(ParseDiffTest, TheWorkedExamplesMatchTheRecursiveParser) {
  for (const char* input :
       {testing::kAtpListXml, "<a/>", "<a k='1'/>", "<r><q007>1</q007></r>"}) {
    auto got = xml::Parse(input);
    auto want = OracleParse(input, {});
    ASSERT_TRUE(got.ok() && want.ok()) << input;
    ExpectSameDocument(**got, **want, input);
  }
}

TEST(ParseDiffTest, MalformedInputFailsWithTheSameStatus) {
  for (const std::string& input : MalformedCorpus()) {
    for (const bool keep : {false, true}) {
      ParseOptions options;
      options.keep_whitespace_text = keep;
      ExpectSameOutcome(input, options, input.substr(0, 80));
    }
  }
}

TEST(ParseDiffTest, DamagedDocumentsFailOrParseAsTheRecursiveParserDoes) {
  for (uint64_t seed = 1; seed <= 600; ++seed) {
    Rng rng(seed * 7919);
    const std::string input = Mutate(GenDocument(&rng), &rng);
    ExpectSameOutcome(input, {}, "seed " + std::to_string(seed) + ": " + input);
  }
}

TEST(ParseDiffTest, OverDeepNestingIsAParseErrorAtTheLimit) {
  auto at_limit = xml::Parse(Nested(xml::kMaxParseDepth, "x"));
  ASSERT_TRUE(at_limit.ok()) << at_limit.status();
  auto too_deep = xml::Parse(Nested(xml::kMaxParseDepth + 1, "x"));
  ASSERT_FALSE(too_deep.ok());
  EXPECT_EQ(too_deep.status().code(), StatusCode::kParseError);
  EXPECT_EQ(too_deep.status().message(),
            "line 1: elements nested deeper than " +
                std::to_string(xml::kMaxParseDepth) + " levels");
  // A payload's wrapper counts as level 1.
  EXPECT_TRUE(xml::ParseInto(nullptr, Nested(xml::kMaxParseDepth, "")).ok());
  EXPECT_FALSE(
      xml::ParseInto(nullptr, Nested(xml::kMaxParseDepth + 1, "")).ok());
}

TEST(ParseDiffTest, PayloadsBuildLikeTheRecursiveParser) {
  // Into live documents that watch their call shape and track a replica:
  // every record the build makes must match the oracle's.
  for (uint64_t seed = 1; seed <= 120; ++seed) {
    Rng rng(seed * 31);
    auto a = xml::Parse(testing::kAtpListXml);
    auto b = xml::Parse(testing::kAtpListXml);
    ASSERT_TRUE(a.ok() && b.ok());
    std::unique_ptr<Document> replica_a = (*a)->CloneForReplica();
    std::unique_ptr<Document> replica_b = (*b)->CloneForReplica();
    for (int round = 0; round < 4; ++round) {
      std::string wrapped = "<data k='1'>";
      const uint64_t top = 1 + rng.Uniform(3);
      for (uint64_t i = 0; i < top; ++i) wrapped += GenNode(&rng, 1);
      wrapped += "</data>";
      const std::string where = "seed " + std::to_string(seed) + ": " + wrapped;
      (*a)->WatchCallShape();
      (*b)->WatchCallShape();
      auto got = xml::ParseInto(a->get(), wrapped);
      auto want = OracleParseInto(b->get(), wrapped, {});
      ASSERT_TRUE(got.ok()) << got.status() << " " << where;
      ASSERT_TRUE(want.ok()) << want.status() << " " << where;
      ASSERT_EQ(*got, *want) << where;
      for (size_t i = 0; i < got->size(); ++i) {
        ExpectSameRecords(**a, (*got)[i], **b, (*want)[i], where);
      }
      EXPECT_EQ((*a)->next_id(), (*b)->next_id()) << where;
      EXPECT_EQ((*a)->size(), (*b)->size()) << where;
      EXPECT_EQ((*a)->mutation_count(), (*b)->mutation_count()) << where;
      EXPECT_EQ((*a)->call_shape_generation(), (*b)->call_shape_generation())
          << where;
      const Document::StorageStats& sa = (*a)->storage_stats();
      const Document::StorageStats& sb = (*b)->storage_stats();
      EXPECT_EQ(sa.nodes_allocated, sb.nodes_allocated) << where;
      EXPECT_EQ(sa.slots_reused, sb.slots_reused) << where;
      for (size_t i = 0; i < got->size(); ++i) {
        ASSERT_TRUE((*a)->AppendChild((*a)->root(), (*got)[i]).ok());
        ASSERT_TRUE((*b)->AppendChild((*b)->root(), (*want)[i]).ok());
      }
      // The delta push carries every record the build wrote.
      ASSERT_TRUE((*a)->SyncReplica(replica_a.get())) << where;
      ASSERT_TRUE((*b)->SyncReplica(replica_b.get())) << where;
      EXPECT_EQ(replica_a->Serialize(), (*a)->Serialize()) << where;
      EXPECT_EQ(replica_a->Serialize(), replica_b->Serialize()) << where;
      ExpectSameRecords(*replica_a, replica_a->root(), **a, (*a)->root(),
                        where);
    }
  }
}

}  // namespace
}  // namespace axmlx
