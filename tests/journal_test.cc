// Effect journaling: a peer journals what each operation did, as records
// addressed by element path, and a DurableStore applies them to its own
// copy of the document without running a query or invoking a service.

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "ops/executor.h"
#include "ops/operation.h"
#include "repo/axml_repository.h"
#include "storage/durable_store.h"
#include "txn/peer.h"
#include "xml/element_path.h"
#include "xml/parser.h"

namespace axmlx {
namespace {

using repo::AxmlRepository;

constexpr char kDocXml[] =
    "<Doc><calls>"
    "<axml:sc mode=\"replace\" serviceURL=\"P1\" methodName=\"Quote\" "
    "outputName=\"q\"><axml:params><axml:param name=\"k\"><axml:value>1"
    "</axml:value></axml:param></axml:params><q>0</q></axml:sc>"
    "</calls><log><entry n=\"0\"/></log></Doc>";

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "axmlx_journal_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

/// A service that answers differently on every call, as a real external
/// service may: `<q>` carries `base` plus the number of earlier calls.
axml::ServiceInvoker ImpureQuote(int base, int* calls) {
  return [base, calls](const axml::ServiceRequest&)
             -> Result<axml::ServiceResponse> {
    const int answer = base + (*calls)++;
    AXMLX_ASSIGN_OR_RETURN(
        auto fragment,
        xml::Parse("<r><q>" + std::to_string(answer) + "</q></r>"));
    axml::ServiceResponse response;
    response.fragment = std::move(fragment);
    return response;
  };
}

/// Mirrors a peer's journal into a DurableStore, keeping every record it
/// was handed; a store call that fails is a test failure.
class StoreJournal : public txn::WriteJournal {
 public:
  explicit StoreJournal(storage::DurableStore* store) : store_(store) {}

  void OnApply(const std::string& txn, const std::string& document,
               const std::vector<ops::Operation>& ops) override {
    if (!store_->Begin(txn).ok()) ADD_FAILURE() << "Begin " << txn;
    for (const ops::Operation& op : ops) {
      records.push_back(op);
      auto applied = store_->Execute(txn, document, op);
      EXPECT_TRUE(applied.ok()) << applied.status() << " " << op.ToXml();
    }
  }

  void OnResolved(const std::string& txn, bool committed) override {
    Status s = committed ? store_->Commit(txn) : store_->Abort(txn);
    EXPECT_TRUE(s.ok()) << s;
  }

  std::vector<ops::Operation> records;

 private:
  storage::DurableStore* store_;
};

/// One peer P1 hosting kDocXml, the impure native Quote its embedded call
/// names, and services:
///   S: a lazy query materializing the call, then an insert into <log>;
///   A: an insert into <log>, then an injected fault (the abort probe).
class JournalWorld {
 public:
  JournalWorld() {
    AxmlRepository::PeerConfig config;
    config.id = "P1";
    peer_ = repo_.AddPeer(config).value();
    EXPECT_TRUE(repo_.HostDocument("P1", kDocXml).ok());
    service::ServiceDefinition quote;
    quote.name = "Quote";
    quote.native = ImpureQuote(100, &peer_calls);
    EXPECT_TRUE(repo_.HostService("P1", std::move(quote)).ok());
    service::ServiceDefinition s;
    s.name = "S";
    s.document = "Doc";
    s.ops.push_back(ops::MakeQuery("Select d//q from d in Doc"));
    s.ops.push_back(ops::MakeInsert("Select l from l in Doc/log",
                                    "<entry n=\"s\">w</entry>"));
    EXPECT_TRUE(repo_.HostService("P1", std::move(s)).ok());
    service::ServiceDefinition a;
    a.name = "A";
    a.document = "Doc";
    a.ops.push_back(ops::MakeInsert("Select l from l in Doc/log",
                                    "<entry n=\"a\"/>"));
    a.fault_probability = 1.0;
    a.fault_name = "ProbeFault";
    EXPECT_TRUE(repo_.HostService("P1", std::move(a)).ok());
  }

  /// Seeds a store in `dir` from the peer's document text, as the
  /// benchmark and the fault drill do, and journals the peer into it.
  void AttachStore(const std::string& dir, axml::ServiceInvoker invoker) {
    store_ = std::make_unique<storage::DurableStore>(dir, std::move(invoker));
    ASSERT_TRUE(store_->Open().ok());
    ASSERT_TRUE(store_->CreateDocument(doc()->Serialize()).ok());
    journal_ = std::make_unique<StoreJournal>(store_.get());
    peer_->AttachJournal(journal_.get());
  }

  Status Run(const std::string& txn, const std::string& service) {
    AXMLX_ASSIGN_OR_RETURN(repo::TxnOutcome outcome,
                           repo_.RunTransaction("P1", txn, service));
    if (!outcome.decided) return Internal("undecided " + txn);
    return outcome.status;
  }

  xml::Document* doc() { return peer_->repository().GetDocument("Doc"); }
  storage::DurableStore* store() { return store_.get(); }
  StoreJournal* journal() { return journal_.get(); }

  /// Drops the store object (its WAL stays on disk).
  void CloseStore() {
    peer_->AttachJournal(nullptr);
    journal_.reset();
    store_.reset();
  }

  int peer_calls = 0;

 private:
  AxmlRepository repo_;
  txn::AxmlPeer* peer_ = nullptr;
  std::unique_ptr<storage::DurableStore> store_;
  std::unique_ptr<StoreJournal> journal_;
};

TEST(JournalTest, ReopenedStoreMatchesLiveAfterImpureService) {
  const std::string dir = FreshDir("impure");
  JournalWorld world;
  // The store's own invoker answers differently from the peer's service:
  // a store that re-ran the query would materialize another value.
  int store_calls = 0;
  world.AttachStore(dir, ImpureQuote(900, &store_calls));
  ASSERT_TRUE(world.Run("T1", "S").ok());
  ASSERT_TRUE(world.Run("T2", "S").ok());
  EXPECT_EQ(world.peer_calls, 2);
  // Per service: the materialized call as one record, then the insert.
  const std::vector<ops::Operation>& records = world.journal()->records;
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records[0].type, ops::ActionType::kQuery);
  EXPECT_EQ(records[0].path, "/Doc/calls[0]/axml:sc[0]");
  EXPECT_EQ(records[0].data_xml, "<q>100</q>");
  EXPECT_EQ(records[1].type, ops::ActionType::kInsert);
  EXPECT_EQ(records[1].path, "/Doc/log[0]");
  EXPECT_FALSE(records[1].has_position);
  EXPECT_EQ(records[2].data_xml, "<q>101</q>");
  const std::string live = world.store()->Get("Doc")->Serialize();
  EXPECT_EQ(live, world.doc()->Serialize());
  EXPECT_NE(live.find("<q>101</q>"), std::string::npos) << live;
  world.CloseStore();

  storage::DurableStore reopened(dir, ImpureQuote(5000, &store_calls));
  ASSERT_TRUE(reopened.Open().ok());
  EXPECT_EQ(reopened.stats().replayed_ops, 4);
  EXPECT_EQ(reopened.Get("Doc")->Serialize(), live);
  EXPECT_EQ(store_calls, 0);
}

TEST(JournalTest, MaterializationRecordNeverInvokes) {
  const std::string dir = FreshDir("no_invoke");
  int calls = 0;
  ops::Operation record;
  record.type = ops::ActionType::kQuery;
  record.path = "/Doc/calls[0]/axml:sc[0]";
  record.data_xml = "<q>7</q><q>8</q>";
  std::string live;
  {
    storage::DurableStore store(dir, ImpureQuote(0, &calls));
    ASSERT_TRUE(store.Open().ok());
    ASSERT_TRUE(store.CreateDocument(kDocXml).ok());
    ASSERT_TRUE(store.Begin("T1").ok());
    auto effect = store.Execute("T1", "Doc", record);
    ASSERT_TRUE(effect.ok()) << effect.status();
    EXPECT_EQ((*effect)->materialize_stats.calls_invoked, 0);
    ASSERT_TRUE(store.Commit("T1").ok());
    live = store.Get("Doc")->Serialize();
  }
  // Replace mode: the old result went, both new ones are in.
  EXPECT_EQ(live.find("<q>0</q>"), std::string::npos) << live;
  EXPECT_NE(live.find("<q>7</q><q>8</q></axml:sc>"), std::string::npos)
      << live;
  storage::DurableStore reopened(dir, ImpureQuote(0, &calls));
  ASSERT_TRUE(reopened.Open().ok());
  EXPECT_EQ(reopened.Get("Doc")->Serialize(), live);
  EXPECT_EQ(calls, 0);
}

TEST(JournalTest, MergeModeRecordAppendsAndAbortRestores) {
  std::string doc_xml = kDocXml;
  doc_xml.replace(doc_xml.find("replace"), 7, "merge");
  auto doc = xml::Parse(doc_xml).value();
  const std::string before = doc->Serialize();
  ops::Executor executor(doc.get(), nullptr);
  ops::Operation record;
  record.type = ops::ActionType::kQuery;
  record.path = "/Doc/calls[0]/axml:sc[0]";
  record.data_xml = "<q>9</q>";
  auto effect = executor.Execute(record);
  ASSERT_TRUE(effect.ok()) << effect.status();
  EXPECT_NE(doc->Serialize().find("<q>0</q><q>9</q>"), std::string::npos);
  ASSERT_TRUE(xml::RollbackAll(doc.get(), effect->edits).ok());
  EXPECT_EQ(doc->Serialize(), before);
}

TEST(JournalTest, ReseededStoreWithOtherIdsAppliesPeerRecords) {
  const std::string dir = FreshDir("reseeded");
  JournalWorld world;
  // Move the peer's ids away from a fresh parse's pre-order ids: the
  // inserted entry takes an id past the whole document, and the deleted
  // one leaves a gap.
  ASSERT_TRUE(world.Run("T0", "S").ok());
  xml::Document* doc = world.doc();
  const xml::NodeId log = xml::ResolveElementPath(*doc, "/Doc/log[0]").value();
  ASSERT_TRUE(doc->RemoveSubtree(doc->Find(log)->children.front()).ok());
  int store_calls = 0;
  world.AttachStore(dir, ImpureQuote(900, &store_calls));
  const xml::Document* seeded = world.store()->Get("Doc");
  const xml::NodeId peer_entry =
      xml::ResolveElementPath(*doc, "/Doc/log[0]/entry[0]").value();
  const xml::NodeId store_entry =
      xml::ResolveElementPath(*seeded, "/Doc/log[0]/entry[0]").value();
  ASSERT_NE(peer_entry, store_entry);

  ASSERT_TRUE(world.Run("T1", "S").ok());
  EXPECT_EQ(seeded->Serialize(), doc->Serialize());
  // The abort probe: the service's work reaches the store, then the peer
  // aborts and the store compensates its own copy.
  const std::string committed = doc->Serialize();
  EXPECT_FALSE(world.Run("T2", "A").ok());
  EXPECT_EQ(doc->Serialize(), committed);
  EXPECT_EQ(seeded->Serialize(), committed);
  ASSERT_TRUE(world.Run("T3", "S").ok());
  EXPECT_EQ(seeded->Serialize(), doc->Serialize());
  EXPECT_EQ(store_calls, 0);
}

TEST(JournalTest, UnresolvedPathIsAnErrorAndLeavesDocumentUntouched) {
  auto doc = xml::Parse(kDocXml).value();
  const std::string before = doc->Serialize();
  const uint64_t mutations = doc->mutation_count();
  ops::Executor executor(doc.get(), nullptr);
  struct Case {
    ops::ActionType type;
    const char* path;
    StatusCode code;
  };
  const Case cases[] = {
      {ops::ActionType::kInsert, "/Doc/log[1]", StatusCode::kNotFound},
      {ops::ActionType::kInsert, "/Other/log[0]", StatusCode::kNotFound},
      {ops::ActionType::kDelete, "/Doc/calls[0]/entry[0]",
       StatusCode::kNotFound},
      {ops::ActionType::kReplace, "/Doc/nothing[0]", StatusCode::kNotFound},
      {ops::ActionType::kDelete, "/Doc/log", StatusCode::kInvalidArgument},
      {ops::ActionType::kDelete, "Doc/log[0]", StatusCode::kInvalidArgument},
      {ops::ActionType::kDelete, "/Doc/log[x]", StatusCode::kInvalidArgument},
      // A materialization record must name a call: <log> resolves, but is
      // not an axml:sc element.
      {ops::ActionType::kQuery, "/Doc/log[0]", StatusCode::kInvalidArgument},
  };
  for (const Case& c : cases) {
    ops::Operation record;
    record.type = c.type;
    record.path = c.path;
    if (c.type != ops::ActionType::kDelete) record.data_xml = "<entry/>";
    auto effect = executor.Execute(record);
    ASSERT_FALSE(effect.ok()) << c.path;
    EXPECT_EQ(effect.status().code(), c.code) << c.path << " "
                                              << effect.status();
    EXPECT_EQ(doc->Serialize(), before) << c.path;
    EXPECT_EQ(doc->mutation_count(), mutations) << c.path;
  }
}

TEST(JournalTest, UnresolvedRecordIsNotJournaled) {
  const std::string dir = FreshDir("unresolved");
  std::string before;
  {
    storage::DurableStore store(dir, nullptr);
    ASSERT_TRUE(store.Open().ok());
    ASSERT_TRUE(store.CreateDocument(kDocXml).ok());
    before = store.Get("Doc")->Serialize();
    ASSERT_TRUE(store.Begin("T1").ok());
    ops::Operation record = ops::MakeInsert("", "<entry/>");
    record.path = "/Doc/log[3]";
    EXPECT_FALSE(store.Execute("T1", "Doc", record).ok());
    ASSERT_TRUE(store.Abort("T1").ok());
  }
  storage::DurableStore reopened(dir, nullptr);
  ASSERT_TRUE(reopened.Open().ok());
  EXPECT_EQ(reopened.stats().replayed_ops, 0);
  EXPECT_EQ(reopened.Get("Doc")->Serialize(), before);
}

TEST(JournalTest, PathRecordsRoundTripThroughXml) {
  ops::Operation record;
  record.type = ops::ActionType::kQuery;
  record.path = "/Doc/calls[0]/axml:sc[12]/axml:params[0]/axml:param[1]"
                "/axml:sc[0]";
  record.data_xml = "<q a=\"1\">x &amp; y</q>";
  const std::string text = record.ToXml();
  EXPECT_NE(text.find("path=\"" + record.path + "\""), std::string::npos);
  auto parsed = ops::Operation::FromXml(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->type, record.type);
  EXPECT_EQ(parsed->path, record.path);
  EXPECT_EQ(parsed->data_xml, record.data_xml);
  EXPECT_TRUE(parsed->location.empty());
  EXPECT_EQ(parsed->ToXml(), text);

  // Another spelling of the same record goes through the XML parser.
  auto spelled = ops::Operation::FromXml(
      "<action path=\"/Doc/calls[0]/axml:sc[3]\" type=\"insert\" "
      "anchor=\"before\">\n  <data><entry/></data>\n</action>");
  ASSERT_TRUE(spelled.ok()) << spelled.status();
  EXPECT_EQ(spelled->type, ops::ActionType::kInsert);
  EXPECT_EQ(spelled->path, "/Doc/calls[0]/axml:sc[3]");
  EXPECT_EQ(spelled->anchor, ops::Operation::Anchor::kBefore);
  EXPECT_EQ(spelled->data_xml, "<entry/>");
}

TEST(JournalTest, ElementPathsSurviveTextRoundTrip) {
  // Same-name siblings, mixed text and a reserved name at depth: every
  // element's path resolves back to it, and to the matching element of a
  // copy re-read from text (fresh ids, adjacent text merged).
  auto doc = xml::Parse(
                 "<R>a<x/>b<y><x/><x><axml:sc/></x></y><x/>c</R>")
                 .value();
  const xml::NodeId r = doc->root();
  ASSERT_TRUE(doc->AppendChild(r, doc->CreateText("more")).ok());
  ASSERT_TRUE(doc->AppendChild(r, doc->CreateElement("x")).ok());
  auto copy = xml::Parse(doc->Serialize()).value();
  ASSERT_LT(copy->Find(copy->root())->children.size(),
            doc->Find(r)->children.size());
  std::vector<xml::NodeId> elements;
  doc->Walk(r, [&elements](const xml::Node& n) {
    if (n.is_element()) elements.push_back(n.id);
    return true;
  });
  std::vector<xml::NodeId> copies;
  copy->Walk(copy->root(), [&copies](const xml::Node& n) {
    if (n.is_element()) copies.push_back(n.id);
    return true;
  });
  ASSERT_EQ(elements.size(), copies.size());
  for (size_t i = 0; i < elements.size(); ++i) {
    std::string path;
    ASSERT_TRUE(xml::AppendElementPath(*doc, elements[i], &path).ok());
    EXPECT_EQ(xml::ResolveElementPath(*doc, path).value(), elements[i])
        << path;
    EXPECT_EQ(xml::ResolveElementPath(*copy, path).value(), copies[i])
        << path;
  }
  std::string last;
  ASSERT_TRUE(xml::AppendElementPath(*doc, elements.back(), &last).ok());
  EXPECT_EQ(last, "/R/x[2]");
  std::string text_path;
  EXPECT_FALSE(xml::AppendElementPath(*doc, doc->Find(r)->children.front(),
                                      &text_path)
                   .ok());
}

}  // namespace
}  // namespace axmlx
