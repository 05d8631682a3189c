// Differential tests for operation payloads parsed straight into their
// target document (xml::ParseInto, DESIGN.md §8) against the path they
// replaced, kept here as the oracle: parse the `<data>` wrapper into a
// fragment Document, then copy each top-level node into the target with
// Document::ImportSubtree. Also checks that a malformed payload consumes
// nothing, and that compensation's direct SerializeDetached writes the same
// bytes as serializing a scratch-document restore.
//
// The payloads land in live, watched documents with delta-synced replicas,
// where a stale or double-allocated id would hide; scripts/check.sh runs
// this suite (ctest label `payload`) under ASan as well.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "axml/call_catalog.h"
#include "common/rng.h"
#include "compensation/compensation.h"
#include "ops/executor.h"
#include "ops/operation.h"
#include "service/repository.h"
#include "storage/durable_store.h"
#include "xml/builder.h"
#include "xml/edit.h"
#include "xml/parser.h"

namespace axmlx {
namespace {

using xml::Document;
using xml::NodeId;

// --- Oracles ----------------------------------------------------------------

/// The payload path before ParseInto: a fragment Document, copied into
/// `target` node by node.
Result<std::vector<NodeId>> OracleParseInto(Document* target,
                                            const std::string& wrapped) {
  AXMLX_ASSIGN_OR_RETURN(std::unique_ptr<Document> fragment,
                         xml::Parse(wrapped));
  std::vector<NodeId> top;
  for (NodeId c : fragment->Find(fragment->root())->children) {
    AXMLX_ASSIGN_OR_RETURN(NodeId copy, target->ImportSubtree(*fragment, c));
    top.push_back(copy);
  }
  return top;
}

/// Executor's insert, replace and delete as they ran before ParseInto. The
/// location resolves through `exec` exactly as Executor resolves it (lazy
/// materialization through the executor's catalog, then evaluation) by
/// running it as a query; the payload is parsed once into a fragment, and
/// every target gets ImportSubtree copies of its top-level nodes.
Result<ops::OpEffect> OracleExecute(ops::Executor* exec,
                                    const ops::Operation& op) {
  Document* doc = exec->doc();
  AXMLX_ASSIGN_OR_RETURN(ops::OpEffect effect,
                         exec->Execute(ops::MakeQuery(op.location)));
  effect.op = op;
  effect.query_result = {};
  auto detach = [&](NodeId target) -> Result<xml::DetachResult> {
    AXMLX_ASSIGN_OR_RETURN(xml::DetachResult detached,
                           xml::DetachSubtree(doc, target));
    xml::Edit edit;
    edit.kind = xml::Edit::Kind::kRemoveSubtree;
    edit.node = detached.subtree.root;
    edit.parent = detached.parent;
    edit.index = detached.index;
    edit.nodes_affected = detached.subtree.size();
    edit.removed = detached.subtree;
    effect.edits.Append(std::move(edit));
    return detached;
  };
  if (op.type == ops::ActionType::kDelete) {
    for (NodeId target : effect.targets) {
      if (doc->Contains(target)) AXMLX_RETURN_IF_ERROR(detach(target).status());
    }
    return effect;
  }
  AXMLX_ASSIGN_OR_RETURN(std::unique_ptr<Document> fragment,
                         xml::Parse("<data>" + op.data_xml + "</data>"));
  auto insert = [&](NodeId parent, bool has_index, size_t index) -> Status {
    size_t offset = 0;
    for (NodeId child : fragment->Find(fragment->root())->children) {
      AXMLX_ASSIGN_OR_RETURN(NodeId copy, doc->ImportSubtree(*fragment, child));
      if (has_index) {
        AXMLX_RETURN_IF_ERROR(doc->InsertAt(parent, index + offset++, copy));
      } else {
        AXMLX_RETURN_IF_ERROR(doc->AppendChild(parent, copy));
      }
      xml::Edit edit;
      edit.kind = xml::Edit::Kind::kInsertSubtree;
      edit.node = copy;
      edit.parent = parent;
      edit.index = has_index ? doc->IndexInParent(copy)
                             : doc->Find(parent)->children.size() - 1;
      edit.nodes_affected = doc->SubtreeSize(copy);
      effect.edits.Append(std::move(edit));
      effect.inserted.push_back(copy);
    }
    return Status::Ok();
  };
  for (NodeId target : effect.targets) {
    if (!doc->Contains(target)) continue;
    if (op.type == ops::ActionType::kReplace) {
      AXMLX_ASSIGN_OR_RETURN(xml::DetachResult detached, detach(target));
      AXMLX_RETURN_IF_ERROR(insert(detached.parent, true, detached.index));
    } else if (op.anchor == ops::Operation::Anchor::kInto) {
      AXMLX_RETURN_IF_ERROR(insert(target, op.has_position, op.position));
    } else {
      size_t index = doc->IndexInParent(target);
      if (op.anchor == ops::Operation::Anchor::kAfter) ++index;
      AXMLX_RETURN_IF_ERROR(insert(doc->Find(target)->parent, true, index));
    }
  }
  return effect;
}

/// The serializer compensation used before SerializeDetached wrote the
/// records directly: restore them into a scratch document and serialize.
std::string OracleSerializeDetached(const xml::DetachedSubtree& subtree) {
  Document scratch("scratch");
  Status s = scratch.RestoreSubtree(subtree.nodes, subtree.root,
                                    scratch.root(), 0);
  EXPECT_TRUE(s.ok()) << s;
  return scratch.Serialize(subtree.root);
}

// --- Comparison helpers -----------------------------------------------------

std::vector<NodeId> PreOrderIds(const Document& doc) {
  std::vector<NodeId> ids;
  doc.Walk(doc.root(), [&ids](const xml::Node& n) {
    ids.push_back(n.id);
    return true;
  });
  return ids;
}

/// Every element name the corpus below uses, reserved ones included.
const std::vector<std::string> kNames = {
    "lib", "log",   "entry", "shelf",       "book",        "t",
    "a",   "b",     "c",     "item",        "note",        "e",
    "x",   "axml:sc", "axml:params", "axml:param", "axml:value"};

void ExpectSameDocument(const Document& a, const Document& b,
                        const std::string& where) {
  EXPECT_EQ(a.Serialize(), b.Serialize()) << where;
  EXPECT_EQ(PreOrderIds(a), PreOrderIds(b)) << where;
  EXPECT_EQ(a.next_id(), b.next_id()) << where;
  EXPECT_EQ(a.size(), b.size()) << where;
}

void ExpectSameTagIndex(const Document& a, const Document& b,
                        const std::string& where) {
  for (const std::string& name : kNames) {
    std::vector<NodeId> in_a;
    std::vector<NodeId> in_b;
    a.CollectElementsNamed(a.FindNameId(name), &in_a);
    b.CollectElementsNamed(b.FindNameId(name), &in_b);
    EXPECT_EQ(in_a, in_b) << where << " tag " << name;
  }
}

void ExpectSameEffect(const ops::OpEffect& a, const ops::OpEffect& b,
                      const std::string& where) {
  EXPECT_EQ(a.targets, b.targets) << where;
  EXPECT_EQ(a.inserted, b.inserted) << where;
  ASSERT_EQ(a.edits.size(), b.edits.size()) << where;
  for (size_t i = 0; i < a.edits.size(); ++i) {
    const xml::Edit& ea = a.edits.edits()[i];
    const xml::Edit& eb = b.edits.edits()[i];
    EXPECT_EQ(ea.kind, eb.kind) << where << " edit " << i;
    EXPECT_EQ(ea.node, eb.node) << where << " edit " << i;
    EXPECT_EQ(ea.parent, eb.parent) << where << " edit " << i;
    EXPECT_EQ(ea.index, eb.index) << where << " edit " << i;
    EXPECT_EQ(ea.nodes_affected, eb.nodes_affected) << where << " edit " << i;
  }
  EXPECT_EQ(a.NodesAffected(), b.NodesAffected()) << where;
}

/// The slab counters an operation moves.
struct SlabDelta {
  int64_t allocated = 0;
  int64_t freed = 0;
  int64_t reused = 0;
  int64_t swept = 0;

  static SlabDelta Of(const Document& doc) {
    const Document::StorageStats& s = doc.storage_stats();
    return {s.nodes_allocated, s.nodes_freed, s.slots_reused,
            s.index_entries_swept};
  }
  SlabDelta Minus(const SlabDelta& before) const {
    return {allocated - before.allocated, freed - before.freed,
            reused - before.reused, swept - before.swept};
  }
  bool operator==(const SlabDelta& o) const {
    return allocated == o.allocated && freed == o.freed &&
           reused == o.reused && swept == o.swept;
  }
};

// --- Corpus -----------------------------------------------------------------

const char kBaseDoc[] =
    "<lib><log><entry n=\"0\">a</entry></log>"
    "<shelf><book id=\"1\"><t>one</t></book><book id=\"2\"><t>two</t></book>"
    "</shelf><shelf><book id=\"3\"><t>three</t></book></shelf>"
    "<axml:sc mode=\"merge\" serviceNameSpace=\"q\" serviceURL=\"p0\" "
    "methodName=\"quote\" outputName=\"quote\"><axml:params/></axml:sc>"
    "</lib>";

/// A call nobody's location asks for, so no lazy evaluation invokes it.
const char kCallPayload[] =
    "<axml:sc mode=\"merge\" serviceNameSpace=\"s\" serviceURL=\"p1\" "
    "methodName=\"zz\" outputName=\"zz\"><axml:params><axml:param name=\"k\">"
    "<axml:value>v &amp; w</axml:value></axml:param></axml:params></axml:sc>";

std::string GenText(Rng* rng) {
  static const char* const kTexts[] = {
      "w",          "  padded  ",    "   ",          "a &amp; b",
      "&lt;tag&gt;", "line\nbreak",  "&#65;&#x42;!", "&quot;q&apos; ",
      "\n  \n",     "x"};
  return kTexts[rng->Uniform(std::size(kTexts))];
}

std::string GenAttrs(Rng* rng) {
  static const char* const kValues[] = {"1",      "x &amp; y", "&lt;&quot;&gt;",
                                        "  sp  ", "",          "&apos;s"};
  static const char* const kKeys[] = {"k", "id", "n"};
  std::string out;
  const uint64_t count = rng->Uniform(4);
  for (uint64_t i = 0; i < count; ++i) {
    // Keys repeat now and then: the last value wins, in the first position.
    const char quote = rng->Bernoulli(0.5) ? '"' : '\'';
    out += std::string(rng->Bernoulli(0.5) ? " " : "\n  ") +
           kKeys[rng->Uniform(std::size(kKeys))] + "=" + quote +
           kValues[rng->Uniform(std::size(kValues))] + quote;
  }
  return out;
}

std::string GenNode(Rng* rng, int depth) {
  static const char* const kTags[] = {"a", "b", "c", "item", "note", "e"};
  const std::string tag = kTags[rng->Uniform(std::size(kTags))];
  switch (rng->Uniform(depth >= 3 ? 3 : 6)) {
    case 0:
      return GenText(rng);
    case 1:
      return "<!-- c" + std::to_string(rng->Uniform(100)) + " -->";
    case 2:
      return "<" + tag + GenAttrs(rng) + (rng->Bernoulli(0.5) ? "/>" : " />");
    default: {
      std::string out = "<" + tag + GenAttrs(rng) + ">";
      const uint64_t children = rng->Uniform(4);
      for (uint64_t i = 0; i < children; ++i) out += GenNode(rng, depth + 1);
      return out + "</" + tag + ">";
    }
  }
}

std::string GenPayload(Rng* rng) {
  if (rng->Uniform(8) == 0) return kCallPayload;
  std::string out;
  const uint64_t top = 1 + rng->Uniform(3);
  for (uint64_t i = 0; i < top; ++i) {
    if (rng->Bernoulli(0.3)) out += "\n ";
    out += GenNode(rng, 0);
  }
  return out;
}

/// A random insert (into, before, after, by position), replace or delete.
ops::Operation GenOp(Rng* rng, const Document& doc) {
  const std::string payload = GenPayload(rng);
  switch (rng->Uniform(9)) {
    case 0:
      return ops::MakeInsert("Select s from s in lib/shelf", payload);
    case 1:
      return ops::MakeInsert("Select l from l in lib/log", payload);
    case 2:
      return ops::MakeInsertBefore("Select b from b in lib//book", payload);
    case 3:
      return ops::MakeInsertAfter("Select b from b in lib//book", payload);
    case 4:
      return ops::MakeReplace("Select t from t in lib//t", payload);
    case 5:
      return ops::MakeReplace("Select e from e in lib/log/entry", payload);
    case 6:
      return ops::MakeDelete("Select i from i in lib//item");
    case 7: {
      // Into a random element by position (the first shelf's first slot
      // when nothing better turns up).
      std::vector<NodeId> books;
      doc.CollectElementsNamed(doc.FindNameId("book"), &books);
      if (books.empty()) return ops::MakeInsert("Select l from l in lib/log",
                                                payload);
      std::sort(books.begin(), books.end());
      const NodeId book = books[rng->Uniform(books.size())];
      const size_t children = doc.Find(book)->children.size();
      ops::Operation op = ops::MakeInsertAt(book, 0, payload);
      op.position = rng->Uniform(children + 1);
      op.target_node = xml::kNullNode;  // resolve by location instead
      op.location = "Select b from b in lib//book where b/@id = \"" +
                    *doc.Find(book)->FindAttribute("id") + "\"";
      return op;
    }
    default:
      return ops::MakeInsert("Select b from b in lib/shelf/book", payload);
  }
}

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "axmlx_payload_" + name;
  std::remove((dir + "/wal.log").c_str());
  std::remove((dir + "/manifest.txt").c_str());
  std::remove((dir + "/snap_lib.xml").c_str());
  return dir;
}

// --- ParseInto against the oracle, document level ---------------------------

TEST(PayloadDiffTest, ParseIntoMatchesFragmentImportNodeForNode) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    auto a = xml::Parse(kBaseDoc);
    auto b = xml::Parse(kBaseDoc);
    ASSERT_TRUE(a.ok() && b.ok());
    for (int round = 0; round < 6; ++round) {
      const std::string wrapped = "<data>" + GenPayload(&rng) + "</data>";
      const std::string where = "seed " + std::to_string(seed) + ": " + wrapped;
      (*a)->WatchCallShape();
      (*b)->WatchCallShape();
      const SlabDelta before_a = SlabDelta::Of(**a);
      const SlabDelta before_b = SlabDelta::Of(**b);
      auto got = xml::ParseInto(a->get(), wrapped);
      auto want = OracleParseInto(b->get(), wrapped);
      ASSERT_TRUE(got.ok()) << got.status() << " " << where;
      ASSERT_TRUE(want.ok()) << want.status() << " " << where;
      EXPECT_EQ(*got, *want) << where;
      for (size_t i = 0; i < got->size(); ++i) {
        EXPECT_EQ((*a)->Serialize((*got)[i]), (*b)->Serialize((*want)[i]))
            << where;
        EXPECT_EQ((*a)->Find((*got)[i])->parent, xml::kNullNode) << where;
      }
      EXPECT_EQ((*a)->next_id(), (*b)->next_id()) << where;
      EXPECT_EQ((*a)->call_shape_generation(), (*b)->call_shape_generation())
          << where;
      EXPECT_TRUE(SlabDelta::Of(**a).Minus(before_a) ==
                  SlabDelta::Of(**b).Minus(before_b))
          << where;
      ExpectSameTagIndex(**a, **b, where);
      // Attach them as the executor would, so later rounds see them live.
      for (size_t i = 0; i < got->size(); ++i) {
        ASSERT_TRUE((*a)->AppendChild((*a)->root(), (*got)[i]).ok());
        ASSERT_TRUE((*b)->AppendChild((*b)->root(), (*want)[i]).ok());
      }
      ExpectSameDocument(**a, **b, where);
    }
  }
}

// --- Executor (store) against the oracle executor ---------------------------

TEST(PayloadDiffTest, StoreOperationsMatchTheFragmentPathAndReplay) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::string dir = FreshDir("store_" + std::to_string(seed));
    Rng rng(seed * 7919);
    auto b_or = xml::Parse(kBaseDoc);
    ASSERT_TRUE(b_or.ok());
    std::unique_ptr<Document> b = std::move(b_or).value();
    axml::CallCatalog b_catalog;
    ops::Executor b_exec(b.get(), nullptr);
    b_exec.SetCallCatalog(&b_catalog);
    {
      storage::DurableStore store(dir, nullptr);
      ASSERT_TRUE(store.Open().ok());
      ASSERT_TRUE(store.CreateDocument(kBaseDoc).ok());
      Document* a = store.Get("lib");
      ASSERT_NE(a, nullptr);
      ExpectSameDocument(*a, *b, "created");
      // Both primaries feed a delta-synced replica that is itself watched.
      std::unique_ptr<Document> a_replica = a->CloneForReplica();
      std::unique_ptr<Document> b_replica = b->CloneForReplica();
      for (int i = 0; i < 40; ++i) {
        const ops::Operation op = GenOp(&rng, *b);
        const std::string where = "op " + std::to_string(i) + ": " + op.ToXml();
        const std::string txn = "T" + std::to_string(i);
        a->WatchCallShape();
        b->WatchCallShape();
        a_replica->WatchCallShape();
        b_replica->WatchCallShape();
        const SlabDelta before_a = SlabDelta::Of(*a);
        const SlabDelta before_b = SlabDelta::Of(*b);
        const int64_t builds_a = store.Catalog("lib")->builds();
        const int64_t builds_b = b_catalog.builds();
        ASSERT_TRUE(store.Begin(txn).ok());
        auto got = store.Execute(txn, "lib", op);
        auto want = OracleExecute(&b_exec, op);
        ASSERT_TRUE(got.ok()) << got.status() << " " << where;
        ASSERT_TRUE(want.ok()) << want.status() << " " << where;
        ExpectSameEffect(**got, *want, where);  // before Commit drops it
        ASSERT_TRUE(store.Commit(txn).ok());
        ExpectSameDocument(*a, *b, where);
        ExpectSameTagIndex(*a, *b, where);
        EXPECT_TRUE(SlabDelta::Of(*a).Minus(before_a) ==
                    SlabDelta::Of(*b).Minus(before_b))
            << where;
        EXPECT_EQ(a->call_shape_generation(), b->call_shape_generation())
            << where;
        EXPECT_EQ(store.Catalog("lib")->builds() - builds_a,
                  b_catalog.builds() - builds_b)
            << where;
        ASSERT_TRUE(a->SyncReplica(a_replica.get())) << where;
        ASSERT_TRUE(b->SyncReplica(b_replica.get())) << where;
        ExpectSameDocument(*a_replica, *a, where + " (replica)");
        ExpectSameDocument(*a_replica, *b_replica, where + " (replicas)");
        EXPECT_EQ(a_replica->call_shape_generation(),
                  b_replica->call_shape_generation())
            << where;
      }
    }
    // Recovery replays every OP record through the same payload path.
    storage::DurableStore reopened(dir, nullptr);
    ASSERT_TRUE(reopened.Open().ok());
    Document* replayed = reopened.Get("lib");
    ASSERT_NE(replayed, nullptr);
    ExpectSameDocument(*replayed, *b, "after replay");
  }
}

// --- Malformed payloads ----------------------------------------------------

const char* const kMalformed[] = {
    "<a>",
    "<a></b>",
    "<a x=1/>",
    "<a x=\"unterminated/>",
    "<a><![CDATA[x]]></a>",
    "<!DOCTYPE a>",
    "</data><x/>",
    "ok</data>",
    "<a>\n<b>\n</a>",
    "<a><!-- never closed </a>",
    "<a><?pi?></a>",
    "<1/>",
};

/// What HEAD's executor reported: Parse's Status for the wrapped text.
std::string ExpectedError(const std::string& payload) {
  auto parsed = xml::Parse("<data>" + payload + "</data>");
  EXPECT_FALSE(parsed.ok()) << payload;
  return parsed.status().ToString();
}

TEST(PayloadDiffTest, MalformedPayloadFailsAsParseDoesAndBuildsNothing) {
  // Spelled out for a few, so a change to Parse's messages shows here too.
  EXPECT_EQ(ExpectedError("<a>"),
            "PARSE_ERROR: line 1: mismatched close tag </data> for <a>");
  EXPECT_EQ(ExpectedError("</data><x/>"),
            "PARSE_ERROR: line 1: trailing content after the root element");
  EXPECT_EQ(ExpectedError("<a>\n<b>\n</a>"),
            "PARSE_ERROR: line 3: mismatched close tag </a> for <b>");
  auto doc = xml::Parse(kBaseDoc);
  ASSERT_TRUE(doc.ok());
  const std::string text = (*doc)->Serialize();
  const NodeId next = (*doc)->next_id();
  const size_t size = (*doc)->size();
  const uint64_t mutations = (*doc)->mutation_count();
  for (const char* payload : kMalformed) {
    const std::string wrapped = "<data>" + std::string(payload) + "</data>";
    auto checked = xml::ParseInto(nullptr, wrapped);
    ASSERT_FALSE(checked.ok()) << payload;
    EXPECT_EQ(checked.status().ToString(), ExpectedError(payload)) << payload;
    auto built = xml::ParseInto(doc->get(), wrapped);
    ASSERT_FALSE(built.ok()) << payload;
    EXPECT_EQ(built.status().ToString(), ExpectedError(payload)) << payload;
    EXPECT_EQ((*doc)->next_id(), next) << payload;
    EXPECT_EQ((*doc)->size(), size) << payload;
    EXPECT_EQ((*doc)->mutation_count(), mutations) << payload;
    EXPECT_EQ((*doc)->Serialize(), text) << payload;
  }
}

TEST(PayloadDiffTest, MalformedPayloadConsumesNoIdsAndLeavesTheDeltaEmpty) {
  const std::vector<std::string> locations = {
      "into", "before", "after", "replace", "position"};
  for (const char* payload : kMalformed) {
    for (const std::string& how : locations) {
      const std::string where = how + ": " + payload;
      auto doc_or = xml::Parse(kBaseDoc);
      ASSERT_TRUE(doc_or.ok());
      std::unique_ptr<Document> doc = std::move(doc_or).value();
      std::unique_ptr<Document> replica = doc->CloneForReplica();
      doc->WatchCallShape();
      axml::CallCatalog catalog;
      query::EvalContext ctx;
      ops::Executor exec(doc.get(), nullptr);
      exec.SetCallCatalog(&catalog);
      exec.SetEvalContext(&ctx);
      ops::Operation op;
      if (how == "into") {
        op = ops::MakeInsert("Select s from s in lib/shelf", payload);
      } else if (how == "before") {
        op = ops::MakeInsertBefore("Select b from b in lib//book", payload);
      } else if (how == "after") {
        op = ops::MakeInsertAfter("Select b from b in lib//book", payload);
      } else if (how == "replace") {
        op = ops::MakeReplace("Select t from t in lib//t", payload);
      } else {
        op = ops::MakeInsertAt(doc->root(), 1, payload);
      }
      const std::string text = doc->Serialize();
      const NodeId next = doc->next_id();
      const Document::StorageStats stats = doc->storage_stats();
      const uint64_t mutations = doc->mutation_count();
      const uint64_t generation = doc->call_shape_generation();
      auto effect = exec.Execute(op);
      ASSERT_FALSE(effect.ok()) << where;
      EXPECT_EQ(effect.status().ToString(), ExpectedError(payload)) << where;
      EXPECT_EQ(doc->Serialize(), text) << where;
      EXPECT_EQ(doc->next_id(), next) << where;
      const Document::StorageStats& after = doc->storage_stats();
      EXPECT_EQ(after.nodes_allocated, stats.nodes_allocated) << where;
      EXPECT_EQ(after.nodes_freed, stats.nodes_freed) << where;
      EXPECT_EQ(after.slots_reused, stats.slots_reused) << where;
      EXPECT_EQ(after.pages_allocated, stats.pages_allocated) << where;
      // Nothing was recorded, so the replica's pending delta is still empty:
      // the next push is a delta push that changes nothing.
      EXPECT_EQ(doc->mutation_count(), mutations) << where;
      EXPECT_EQ(doc->call_shape_generation(), generation) << where;
      ASSERT_TRUE(doc->SyncReplica(replica.get())) << where;
      ExpectSameDocument(*replica, *doc, where);
    }
  }
}

TEST(PayloadDiffTest, PeerAndStoreAgreeOnIdsAfterARejectedPayload) {
  const std::string dir = FreshDir("pair");
  const ops::Operation insert =
      ops::MakeInsert("Select l from l in lib/log", "${p}");
  // The peer side: a service host executing the templated insert.
  service::Repository repo;
  auto doc_or = xml::Parse(kBaseDoc);
  ASSERT_TRUE(doc_or.ok());
  ASSERT_TRUE(repo.AddDocument(std::move(doc_or).value()).ok());
  service::ServiceDefinition def;
  def.name = "Add";
  def.document = "lib";
  def.ops.push_back(insert);
  ASSERT_TRUE(repo.AddService(std::move(def)).ok());
  service::ServiceHost host(&repo, nullptr, nullptr);
  // The store side, journaling the same operations.
  storage::DurableStore store(dir, nullptr);
  ASSERT_TRUE(store.Open().ok());
  ASSERT_TRUE(store.CreateDocument(kBaseDoc).ok());
  Document* peer_doc = repo.GetDocument("lib");
  Document* store_doc = store.Get("lib");
  auto store_insert = [&](const std::string& txn, const std::string& payload) {
    ops::Operation op = insert;
    op.data_xml = payload;
    EXPECT_TRUE(store.Begin(txn).ok());
    auto effect = store.Execute(txn, "lib", op);
    std::vector<NodeId> inserted;
    if (effect.ok()) inserted = (*effect)->inserted;
    EXPECT_TRUE(effect.ok() ? store.Commit(txn).ok() : store.Abort(txn).ok());
    return effect.ok() ? Result<std::vector<NodeId>>(inserted)
                       : Result<std::vector<NodeId>>(effect.status());
  };

  const std::string bad = "<entry><oops></entry>";
  auto peer_bad = host.Invoke("Add", {{"p", bad}});
  auto store_bad = store_insert("T1", bad);
  ASSERT_FALSE(peer_bad.ok());
  ASSERT_FALSE(store_bad.ok());
  EXPECT_EQ(peer_bad.status().ToString(), ExpectedError(bad));
  EXPECT_EQ(store_bad.status().ToString(), ExpectedError(bad));
  EXPECT_EQ(peer_doc->next_id(), store_doc->next_id());

  const std::string good = "<entry n=\"1\">b<!-- c --></entry><entry/>";
  auto peer_good = host.Invoke("Add", {{"p", good}});
  auto store_good = store_insert("T2", good);
  ASSERT_TRUE(peer_good.ok()) << peer_good.status();
  ASSERT_TRUE(store_good.ok()) << store_good.status();
  ASSERT_EQ(peer_good->effects.effects().size(), 1u);
  EXPECT_EQ(peer_good->effects.effects()[0].inserted, *store_good);
  EXPECT_EQ(store_good->size(), 2u);
  ExpectSameDocument(*peer_doc, *store_doc, "after the good insert");
}

// --- SerializeDetached ------------------------------------------------------

/// Grows a random subtree under `parent`: elements with attributes whose
/// values need escaping, text that needs escaping, and comments.
void GrowRandom(Rng* rng, Document* doc, NodeId parent, int depth) {
  static const char* const kTags[] = {"a", "b", "item", "axml:sc", "c"};
  static const char* const kTexts[] = {
      "plain", "a & b", "<lt>", "\"quoted\" 'single'", "  spaced  ",
      "line\nbreak", "]]>", "&amp;"};
  const uint64_t children = depth >= 4 ? 0 : rng->Uniform(4);
  for (uint64_t i = 0; i < children; ++i) {
    switch (rng->Uniform(5)) {
      case 0:
        xml::AddText(doc, parent, kTexts[rng->Uniform(std::size(kTexts))]);
        break;
      case 1:
        ASSERT_TRUE(doc->AppendChild(parent, doc->CreateComment(
                                                 " note " + std::to_string(i)))
                        .ok());
        break;
      default: {
        NodeId e = xml::AddElement(doc, parent,
                                   kTags[rng->Uniform(std::size(kTags))]);
        const uint64_t attrs = rng->Uniform(3);
        for (uint64_t k = 0; k < attrs; ++k) {
          ASSERT_TRUE(doc->SetAttribute(e, "k" + std::to_string(k),
                                        kTexts[rng->Uniform(std::size(kTexts))])
                          .ok());
        }
        GrowRandom(rng, doc, e, depth + 1);
      }
    }
  }
}

TEST(PayloadDiffTest, SerializeDetachedIsByteIdenticalToAScratchRestore) {
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    Rng rng(seed);
    Document doc("root");
    NodeId top = xml::AddElement(&doc, doc.root(), "top");
    GrowRandom(&rng, &doc, top, 0);
    // Detach a random non-root node, as a delete's edit log would.
    std::vector<NodeId> ids = PreOrderIds(doc);
    ids.erase(ids.begin());  // the root cannot be detached
    const NodeId victim = ids[rng.Uniform(ids.size())];
    auto detached = xml::DetachSubtree(&doc, victim);
    ASSERT_TRUE(detached.ok()) << detached.status();
    const xml::DetachedSubtree& subtree = detached->subtree;
    const std::string want = OracleSerializeDetached(subtree);
    EXPECT_EQ(comp::SerializeDetached(subtree), want) << "seed " << seed;
    // Records in any other order serialize the same.
    xml::DetachedSubtree shuffled = subtree;
    for (size_t i = shuffled.nodes.size(); i > 1; --i) {
      std::swap(shuffled.nodes[i - 1], shuffled.nodes[rng.Uniform(i)]);
    }
    EXPECT_EQ(comp::SerializeDetached(shuffled), want) << "seed " << seed;
  }
}

}  // namespace
}  // namespace axmlx
