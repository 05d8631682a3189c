// Robustness suite: the three parsers (XML, query language, active-peer
// chain) must never crash, hang, or corrupt state on malformed input —
// they either parse or return a kParseError status. Inputs are random
// mutations of valid documents plus pure garbage.

#include <gtest/gtest.h>

#include <string>

#include "chain/active_chain.h"
#include "common/rng.h"
#include "ops/operation.h"
#include "query/parser.h"
#include "tests/test_data.h"
#include "xml/parser.h"

namespace axmlx {
namespace {

std::string RandomGarbage(Rng* rng, size_t max_len) {
  static const char kAlphabet[] =
      "<>=/\\\"'&;![]()|*$ \t\nabcdefgSELECTfromwherep:-.0123456789";
  size_t len = rng->Uniform(max_len) + 1;
  std::string out;
  out.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    out += kAlphabet[rng->Uniform(sizeof(kAlphabet) - 1)];
  }
  return out;
}

std::string Mutate(const std::string& input, Rng* rng) {
  std::string out = input;
  int mutations = 1 + static_cast<int>(rng->Uniform(4));
  for (int i = 0; i < mutations && !out.empty(); ++i) {
    size_t pos = rng->Uniform(out.size());
    switch (rng->Uniform(3)) {
      case 0:  // delete a span
        out.erase(pos, rng->Uniform(5) + 1);
        break;
      case 1:  // flip a character
        out[pos] = static_cast<char>('!' + rng->Uniform(90));
        break;
      default:  // duplicate a span
        out.insert(pos, out.substr(pos, rng->Uniform(8) + 1));
        break;
    }
  }
  return out;
}

class FuzzSeeds : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzSeeds, XmlParserNeverCrashes) {
  Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    std::string input = rng.Bernoulli(0.5)
                            ? Mutate(testing::kAtpListXml, &rng)
                            : RandomGarbage(&rng, 300);
    auto doc = xml::Parse(input);
    if (doc.ok()) {
      // Whatever parsed must serialize and re-parse.
      auto again = xml::Parse((*doc)->Serialize());
      EXPECT_TRUE(again.ok()) << input;
    } else {
      EXPECT_EQ(doc.status().code(), StatusCode::kParseError);
    }
  }
}

TEST_P(FuzzSeeds, QueryParserNeverCrashes) {
  Rng rng(GetParam() ^ 0x1111);
  const std::string base =
      "Select p/citizenship, p/points from p in ATPList//player "
      "where p/name/lastname = Federer and p/points >= 100";
  for (int i = 0; i < 300; ++i) {
    std::string input =
        rng.Bernoulli(0.5) ? Mutate(base, &rng) : RandomGarbage(&rng, 120);
    auto q = query::ParseQuery(input);
    if (q.ok()) {
      // A successfully parsed query must round-trip through ToString.
      auto again = query::ParseQuery(q->ToString());
      EXPECT_TRUE(again.ok()) << "from: " << input << "\nvia: "
                              << q->ToString();
    }
  }
}

TEST_P(FuzzSeeds, ChainParserNeverCrashes) {
  Rng rng(GetParam() ^ 0x2222);
  const std::string base =
      "[AP1*:S1 -> [AP2:S2 -> [AP3:S3 -> [AP6:S6]] || [AP4:S4 -> [AP5:S5]]]]";
  for (int i = 0; i < 300; ++i) {
    std::string input =
        rng.Bernoulli(0.5) ? Mutate(base, &rng) : RandomGarbage(&rng, 120);
    auto chain = chain::ActivePeerChain::Parse(input);
    if (chain.ok()) {
      auto again = chain::ActivePeerChain::Parse(chain->Serialize());
      EXPECT_TRUE(again.ok()) << input;
    }
  }
}

TEST_P(FuzzSeeds, OperationFromXmlNeverCrashes) {
  Rng rng(GetParam() ^ 0x3333);
  const std::string base = ops::MakeReplace(
      "Select p/citizenship from p in ATPList//player "
      "where p/name/lastname = Nadal",
      "<citizenship>USA</citizenship>").ToXml();
  for (int i = 0; i < 200; ++i) {
    std::string input =
        rng.Bernoulli(0.5) ? Mutate(base, &rng) : RandomGarbage(&rng, 200);
    auto op = ops::Operation::FromXml(input);
    if (op.ok()) {
      auto again = ops::Operation::FromXml(op->ToXml());
      EXPECT_TRUE(again.ok()) << input;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeeds,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

// Hand-picked adversarial inputs.
TEST(Adversarial, DeeplyNestedXml) {
  std::string deep;
  for (int i = 0; i < 2000; ++i) deep += "<a>";
  deep += "x";
  for (int i = 0; i < 2000; ++i) deep += "</a>";
  auto doc = xml::Parse(deep);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ((*doc)->size(), 2001u);  // 2000 <a> elements + 1 text node
}

std::string NestedXml(size_t levels) {
  std::string deep;
  deep.reserve(levels * 7 + 1);
  for (size_t i = 0; i < levels; ++i) deep += "<a>";
  deep += "x";
  for (size_t i = 0; i < levels; ++i) deep += "</a>";
  return deep;
}

TEST(Adversarial, HostileXmlNestingIsAStatusNotACrash) {
  const std::string deep = NestedXml(200000);
  auto doc = xml::Parse(deep);
  ASSERT_FALSE(doc.ok());
  EXPECT_EQ(doc.status().code(), StatusCode::kParseError);
  // The payload dry run and build refuse it alike.
  EXPECT_EQ(xml::ParseInto(nullptr, deep).status(), doc.status());
  auto target = xml::Parse("<t/>");
  ASSERT_TRUE(target.ok());
  EXPECT_EQ(xml::ParseInto(target->get(), deep).status(), doc.status());
  EXPECT_EQ((*target)->size(), 1u);
}

TEST(Adversarial, XmlAtTheDepthLimitParsesSerializesAndWalks) {
  const std::string deep = NestedXml(xml::kMaxParseDepth);
  auto doc = xml::Parse(deep);
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ((*doc)->size(), xml::kMaxParseDepth + 1);
  EXPECT_EQ((*doc)->Serialize(), deep);
  size_t walked = 0;
  (*doc)->Walk((*doc)->root(), [&](const xml::Node&) {
    ++walked;
    return true;
  });
  EXPECT_EQ(walked, xml::kMaxParseDepth + 1);
  EXPECT_EQ((*doc)->TextContent((*doc)->root()), "x");
  auto copy = (*doc)->Clone();
  EXPECT_TRUE(xml::Document::Equals(**doc, *copy));
  EXPECT_FALSE(xml::Parse(NestedXml(xml::kMaxParseDepth + 1)).ok());
}

TEST(Adversarial, DocumentGrownFarPastTheParseDepthLimitReadsIteratively) {
  // Payloads nest at most kMaxParseDepth levels each, but appending each one
  // under the previous one's deepest node grows a hosted document without
  // bound. Every reader of the tree must keep its depth off the call stack.
  constexpr size_t kPayloadLevels = 4000;
  constexpr size_t kPayloads = 60;
  constexpr size_t kLevels = kPayloadLevels * kPayloads;
  std::string payload = "<data>";
  for (size_t i = 0; i < kPayloadLevels; ++i) payload += "<a>";
  for (size_t i = 0; i < kPayloadLevels; ++i) payload += "</a>";
  payload += "</data>";
  auto doc_or = xml::Parse("<t/>");
  ASSERT_TRUE(doc_or.ok());
  xml::Document& doc = **doc_or;
  xml::NodeId deepest = doc.root();
  for (size_t p = 0; p < kPayloads; ++p) {
    auto built = xml::ParseInto(&doc, payload);
    ASSERT_TRUE(built.ok()) << built.status();
    ASSERT_EQ(built->size(), 1u);
    ASSERT_TRUE(doc.AppendChild(deepest, built->front()).ok());
    deepest = built->front();
    while (!doc.Find(deepest)->children.empty()) {
      deepest = doc.Find(deepest)->children.front();
    }
  }
  ASSERT_EQ(doc.size(), kLevels + 1);

  std::string want = "<t>";
  for (size_t i = 1; i < kLevels; ++i) want += "<a>";
  want += "<a/>";
  for (size_t i = 1; i < kLevels; ++i) want += "</a>";
  want += "</t>";
  EXPECT_EQ(doc.Serialize(), want);

  size_t walked = 0;
  doc.Walk(doc.root(), [&walked](const xml::Node&) {
    ++walked;
    return true;
  });
  EXPECT_EQ(walked, kLevels + 1);

  std::string path = "/t";
  for (size_t i = 0; i < kLevels; ++i) path += "/a[0]";
  EXPECT_EQ(doc.PathOf(deepest), path);

  auto copy = doc.Clone();
  EXPECT_TRUE(xml::Document::Equals(doc, *copy));
  ASSERT_TRUE(copy->SetAttribute(copy->Find(deepest)->parent, "k", "v").ok());
  EXPECT_FALSE(xml::Document::Equals(doc, *copy));

  xml::Document other("host");
  auto imported = other.ImportSubtree(doc, doc.root());
  ASSERT_TRUE(imported.ok()) << imported.status();
  EXPECT_EQ(other.Serialize(*imported), want);
  EXPECT_TRUE(xml::Document::SubtreeEquals(doc, doc.root(), other, *imported));
}

std::string NestedChain(size_t levels) {
  std::string chain;
  chain.reserve(levels * 7);
  for (size_t i = 1; i < levels; ++i) chain += "[A -> ";
  chain += "[A]";
  chain.append(levels - 1, ']');
  return chain;
}

TEST(Adversarial, HostileChainNestingIsAStatusNotACrash) {
  auto chain = chain::ActivePeerChain::Parse(NestedChain(200000));
  ASSERT_FALSE(chain.ok());
  EXPECT_EQ(chain.status().code(), StatusCode::kParseError);
}

TEST(Adversarial, ChainAtTheDepthLimitParsesAndAnswers) {
  const std::string text = NestedChain(chain::kMaxChainDepth);
  auto chain = chain::ActivePeerChain::Parse(text);
  ASSERT_TRUE(chain.ok()) << chain.status();
  EXPECT_EQ(chain->Serialize(), text);
  EXPECT_EQ(chain->AllPeers().size(), chain::kMaxChainDepth);
  EXPECT_FALSE(
      chain::ActivePeerChain::Parse(NestedChain(chain::kMaxChainDepth + 1))
          .ok());
}

TEST(Adversarial, HugeAttributeAndEntities) {
  std::string input = "<a k=\"" + std::string(100000, 'x') + "\">&amp;&#65;&bogus;&#xFFFF;</a>";
  auto doc = xml::Parse(input);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ((*doc)->Find((*doc)->root())->FindAttribute("k")->size(), 100000u);
}

TEST(Adversarial, QueryWithManyPredicates) {
  std::string q = "Select p/a from p in D//x where p/a = 1";
  for (int i = 0; i < 500; ++i) q += " and p/b" + std::to_string(i) + " = 2";
  auto parsed = query::ParseQuery(q);
  ASSERT_TRUE(parsed.ok());
}

TEST(Adversarial, ChainWithManyParallelBranches) {
  std::string c = "[R -> ";
  for (int i = 0; i < 300; ++i) {
    if (i > 0) c += " || ";
    c += "[N" + std::to_string(i) + "]";
  }
  c += "]";
  auto chain = chain::ActivePeerChain::Parse(c);
  ASSERT_TRUE(chain.ok());
  EXPECT_EQ(chain->ChildrenOf("R").size(), 300u);
}

}  // namespace
}  // namespace axmlx
