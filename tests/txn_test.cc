#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "repo/axml_repository.h"
#include "repo/scenarios.h"
#include "service/repository.h"
#include "txn/payload.h"
#include "xml/parser.h"

namespace axmlx::repo {
namespace {

const std::vector<overlay::PeerId> kFig1Peers = {"AP1", "AP2", "AP3",
                                                 "AP4", "AP5", "AP6"};

std::map<overlay::PeerId, std::string> SnapshotDocs(
    AxmlRepository* repo, const std::vector<overlay::PeerId>& peers) {
  std::map<overlay::PeerId, std::string> out;
  for (const overlay::PeerId& id : peers) {
    const xml::Document* doc =
        repo->FindPeer(id)->repository().GetDocument(ScenarioDocName(id));
    out[id] = doc->Serialize();
  }
  return out;
}

size_t LogEntries(AxmlRepository* repo, const overlay::PeerId& id) {
  xml::Document* doc =
      repo->FindPeer(id)->repository().GetDocument(ScenarioDocName(id));
  size_t count = 0;
  doc->Walk(doc->root(), [&count](const xml::Node& n) {
    if (n.is_element() && n.name == "entry") ++count;
    return true;
  });
  return count;
}

TEST(Payload, ParamsRoundTrip) {
  txn::Params params = {{"name", "Roger Federer"}, {"year", "2005"}};
  auto decoded = txn::DecodeParams(txn::EncodeParams(params));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(*decoded, params);
  auto empty = txn::DecodeParams("");
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
}

TEST(Payload, ParamsRoundTripKeepsExactText) {
  const std::vector<txn::Params> cases = {
      {{"a", "  padded  "}, {"b", "   "}},
      {{"entities", "<a href=\"x\">&amp; 'q'</a>"}, {"amp", "&&;"}},
      {{"lines", "one\ntwo\r\n\tthree\n"}},
      {{"empty", ""}, {"", "nameless"}},
      {{"k y", "v"}, {"k y", "repeated"}},
  };
  for (const txn::Params& params : cases) {
    auto decoded = txn::DecodeParams(txn::EncodeParams(params));
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    EXPECT_EQ(*decoded, params);
  }
}

TEST(Payload, DecodeParamsAcceptsLayoutAndRejectsMalformedBodies) {
  auto spaced = txn::DecodeParams(
      "\n<params>\n  <param name='a'> x </param>\n  <param name=\"b\"/>\n"
      "</params>\n");
  ASSERT_TRUE(spaced.ok()) << spaced.status();
  EXPECT_EQ(*spaced, (txn::Params{{"a", " x "}, {"b", ""}}));
  auto none = txn::DecodeParams("<params/>");
  ASSERT_TRUE(none.ok()) << none.status();
  EXPECT_TRUE(none->empty());

  auto wrong_root =
      txn::DecodeParams("<args><param name=\"a\">x</param></args>");
  ASSERT_FALSE(wrong_root.ok());
  EXPECT_EQ(wrong_root.status().message(),
            "DecodeParams: expected a <params> element");
  auto nameless = txn::DecodeParams("<params><param>x</param></params>");
  ASSERT_FALSE(nameless.ok());
  EXPECT_EQ(nameless.status().message(),
            "DecodeParams: <param> without a name");
  for (const char* body :
       {"<params>", "<params><param name=\"a\">x</params>",
        "<params><param name=\"a\"><b/></param></params>",
        "<params><param name=a>x</param></params>",
        "<params></params>trailing", "<paramsx/>", "not xml"}) {
    auto decoded = txn::DecodeParams(body);
    ASSERT_FALSE(decoded.ok()) << body;
    EXPECT_EQ(decoded.status().code(), StatusCode::kParseError) << body;
  }
}

TEST(Directory, BuildChainMatchesFigureOne) {
  AxmlRepository repo(1);
  ScenarioOptions options;
  ASSERT_TRUE(BuildFigureOne(&repo, options).ok());
  auto chain = repo.directory().BuildChain("AP1", "S1");
  ASSERT_TRUE(chain.ok()) << chain.status();
  EXPECT_EQ(chain->ParentOf("AP6"), "AP5");
  EXPECT_EQ(chain->ParentOf("AP5"), "AP3");
  EXPECT_EQ(chain->ChildrenOf("AP1"),
            (std::vector<overlay::PeerId>{"AP2", "AP3"}));
  EXPECT_TRUE(chain->Contains("AP4"));
  // AP1 is the scenario's super peer.
  EXPECT_EQ(chain->NearestSuperPeer("AP6"), "AP1");
}

TEST(Directory, UnknownServiceFailsChainBuild) {
  AxmlRepository repo(1);
  ScenarioOptions options;
  ASSERT_TRUE(BuildFigureOne(&repo, options).ok());
  EXPECT_FALSE(repo.directory().BuildChain("AP1", "NoSuch").ok());
}

TEST(TxnProtocol, FigureOneCommitsWithoutFailure) {
  AxmlRepository repo(1);
  ScenarioOptions options;
  options.ops_per_service = 2;
  ASSERT_TRUE(BuildFigureOne(&repo, options).ok());
  auto outcome = repo.RunTransaction("AP1", kTxnName, "S1");
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  ASSERT_TRUE(outcome->decided);
  EXPECT_TRUE(outcome->status.ok()) << outcome->status;
  // Every peer performed and kept its work.
  for (const overlay::PeerId& id : kFig1Peers) {
    EXPECT_EQ(LogEntries(&repo, id), 2u) << id;
    EXPECT_FALSE(repo.FindPeer(id)->HasContext(kTxnName)) << id;
  }
  EXPECT_EQ(repo.FindPeer("AP1")->stats().txns_committed, 1);
  // Commit released 5 participants.
  EXPECT_EQ(repo.trace().CountKind("SEND"), outcome->messages);
}

TEST(TxnProtocol, FigureOneAbortRestoresEveryDocument) {
  // The paper's Figure 1 failure with no fault handlers anywhere: the abort
  // propagates to the origin and the whole transaction rolls back.
  AxmlRepository repo(1);
  ScenarioOptions options;
  options.s5_fault_probability = 1.0;
  ASSERT_TRUE(BuildFigureOne(&repo, options).ok());
  auto before = SnapshotDocs(&repo, kFig1Peers);
  auto outcome = repo.RunTransaction("AP1", kTxnName, "S1");
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  ASSERT_TRUE(outcome->decided);
  EXPECT_EQ(outcome->status.code(), StatusCode::kAborted);
  // Relaxed atomicity: every peer's document is back to its initial state.
  auto after = SnapshotDocs(&repo, kFig1Peers);
  for (const overlay::PeerId& id : kFig1Peers) {
    EXPECT_EQ(after[id], before[id]) << "peer " << id << " not restored";
    EXPECT_FALSE(repo.FindPeer(id)->HasContext(kTxnName)) << id;
  }
  EXPECT_EQ(repo.FindPeer("AP1")->stats().txns_aborted, 1);
}

TEST(TxnProtocol, FigureOneAbortMessageFlowMatchesPaper) {
  AxmlRepository repo(1);
  ScenarioOptions options;
  options.s5_fault_probability = 1.0;
  ASSERT_TRUE(BuildFigureOne(&repo, options).ok());
  auto outcome = repo.RunTransaction("AP1", kTxnName, "S1");
  ASSERT_TRUE(outcome.ok());
  // §3.2 step 1: AP5 sends "Abort TA" to AP6 (its invokee) and AP3 (its
  // invoker) — 2 aborts.
  EXPECT_EQ(repo.FindPeer("AP5")->stats().aborts_sent, 2);
  // Step 4: AP3 sends aborts to AP4 and AP1 — 2 aborts.
  EXPECT_EQ(repo.FindPeer("AP3")->stats().aborts_sent, 2);
  // Origin AP1 aborts and tells AP2.
  EXPECT_EQ(repo.FindPeer("AP1")->stats().aborts_sent, 1);
  // AP6 and AP2 abort their contexts without propagating further.
  EXPECT_EQ(repo.FindPeer("AP6")->stats().aborts_sent, 0);
  EXPECT_EQ(repo.FindPeer("AP2")->stats().aborts_sent, 0);
  EXPECT_EQ(repo.FindPeer("AP6")->stats().contexts_aborted, 1);
}

TEST(TxnProtocol, CompensationCostMatchesWorkDone) {
  AxmlRepository repo(1);
  ScenarioOptions options;
  options.s5_fault_probability = 1.0;
  options.ops_per_service = 3;
  ASSERT_TRUE(BuildFigureOne(&repo, options).ok());
  auto outcome = repo.RunTransaction("AP1", kTxnName, "S1");
  ASSERT_TRUE(outcome.ok());
  // Each service inserted 3 <entry>work</entry> pairs = 6 nodes; every peer
  // that did work compensated exactly that much.
  for (const overlay::PeerId& id : kFig1Peers) {
    EXPECT_EQ(repo.FindPeer(id)->stats().nodes_compensated, 6u) << id;
    EXPECT_EQ(repo.FindPeer(id)->stats().wasted_nodes, 6u) << id;
  }
}

TEST(TxnProtocol, EarlyFaultAbortsBeforeChildren) {
  // Fault before subcalls: AP5 rolls back its local work and AP6 is never
  // invoked.
  AxmlRepository repo(1);
  ScenarioOptions options;
  options.s5_fault_probability = 1.0;
  options.s5_fault_after_subcalls = false;
  ASSERT_TRUE(BuildFigureOne(&repo, options).ok());
  auto outcome = repo.RunTransaction("AP1", kTxnName, "S1");
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->status.code(), StatusCode::kAborted);
  EXPECT_EQ(repo.FindPeer("AP6")->stats().contexts_aborted, 0);
  EXPECT_EQ(LogEntries(&repo, "AP6"), 0u);
  // AP5 still compensated its partial local work.
  EXPECT_GT(repo.FindPeer("AP5")->stats().nodes_compensated, 0u);
}

TEST(TxnProtocol, DuplicateSubmitRejected) {
  AxmlRepository repo(1);
  ScenarioOptions options;
  options.duration = 50;
  ASSERT_TRUE(BuildFigureOne(&repo, options).ok());
  txn::AxmlPeer* origin = repo.FindPeer("AP1");
  ASSERT_TRUE(origin
                  ->Submit(&repo.network(), kTxnName, "S1", {},
                           [](const std::string&, Status) {})
                  .ok());
  Status dup = origin->Submit(&repo.network(), kTxnName, "S1", {},
                              [](const std::string&, Status) {});
  EXPECT_EQ(dup.code(), StatusCode::kAlreadyExists);
}

TEST(TxnProtocol, TwoSequentialTransactionsBothCommit) {
  AxmlRepository repo(1);
  ScenarioOptions options;
  ASSERT_TRUE(BuildFigureOne(&repo, options).ok());
  auto t1 = repo.RunTransaction("AP1", "TA", "S1");
  ASSERT_TRUE(t1.ok());
  EXPECT_TRUE(t1->status.ok());
  auto t2 = repo.RunTransaction("AP1", "TB", "S1");
  ASSERT_TRUE(t2.ok());
  EXPECT_TRUE(t2->status.ok());
  for (const overlay::PeerId& id : kFig1Peers) {
    EXPECT_EQ(LogEntries(&repo, id), 4u) << id;  // 2 ops per txn
  }
}

TEST(TxnProtocol, ConcurrentTransactionsInterleave) {
  AxmlRepository repo(1);
  ScenarioOptions options;
  options.duration = 10;
  ASSERT_TRUE(BuildFigureOne(&repo, options).ok());
  int decided = 0;
  txn::AxmlPeer* origin = repo.FindPeer("AP1");
  for (const char* name : {"T1", "T2", "T3"}) {
    ASSERT_TRUE(origin
                    ->Submit(&repo.network(), name, "S1", {},
                             [&decided](const std::string&, Status s) {
                               EXPECT_TRUE(s.ok()) << s;
                               ++decided;
                             })
                    .ok());
  }
  repo.network().RunUntilQuiescent();
  EXPECT_EQ(decided, 3);
  EXPECT_EQ(LogEntries(&repo, "AP6"), 6u);
}

TEST(TxnProtocol, ParamsReachRemoteServices) {
  AxmlRepository repo(1);
  AxmlRepository::PeerConfig a{"A", false, AxmlRepository::Protocol::kBaseline,
                               {}, 1};
  AxmlRepository::PeerConfig b{"B", false, AxmlRepository::Protocol::kBaseline,
                               {}, 2};
  ASSERT_TRUE(repo.AddPeer(a).ok());
  ASSERT_TRUE(repo.AddPeer(b).ok());
  ASSERT_TRUE(repo.HostDocument("A", "<DataA><log/></DataA>").ok());
  ASSERT_TRUE(repo.HostDocument("B", "<DataB><log/></DataB>").ok());
  service::ServiceDefinition child;
  child.name = "Record";
  child.document = "DataB";
  child.ops.push_back(ops::MakeInsert("Select d from d in DataB//log",
                                      "<entry who=\"${who}\">x</entry>"));
  ASSERT_TRUE(repo.HostService("B", std::move(child)).ok());
  service::ServiceDefinition root;
  root.name = "Root";
  root.document = "DataA";
  root.subcalls.push_back({"B", "Record", {}, {{"who", "federer"}}});
  ASSERT_TRUE(repo.HostService("A", std::move(root)).ok());
  // The same subcall with its param templated over the transaction params.
  service::ServiceDefinition templated;
  templated.name = "Templated";
  templated.document = "DataA";
  templated.subcalls.push_back({"B", "Record", {}, {{"who", "${who}"}}});
  ASSERT_TRUE(repo.HostService("A", std::move(templated)).ok());
  auto outcome = repo.RunTransaction("A", "TP", "Root");
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_TRUE(outcome->status.ok()) << outcome->status;
  outcome = repo.RunTransaction("A", "TT", "Templated", {{"who", "nadal"}});
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_TRUE(outcome->status.ok()) << outcome->status;
  xml::Document* doc = repo.FindPeer("B")->repository().GetDocument("DataB");
  std::vector<std::string> who;
  doc->Walk(doc->root(), [&who](const xml::Node& n) {
    if (n.is_element() && n.name == "entry") {
      const std::string* w = n.FindAttribute("who");
      who.push_back(w != nullptr ? *w : std::string());
    }
    return true;
  });
  EXPECT_EQ(who, (std::vector<std::string>{"federer", "nadal"}));
}

TEST(TxnProtocol, RemoteSubcallReceivesParamsVerbatim) {
  // A parameter crosses the wire in an INVOKE body; the remote service must
  // substitute the same text a local invocation would, surrounding
  // whitespace included. Attribute values keep it, so the recorded entry
  // shows what `${who}` was.
  AxmlRepository repo(1);
  AxmlRepository::PeerConfig a{"A", false, AxmlRepository::Protocol::kBaseline,
                               {}, 1};
  AxmlRepository::PeerConfig b{"B", false, AxmlRepository::Protocol::kBaseline,
                               {}, 2};
  ASSERT_TRUE(repo.AddPeer(a).ok());
  ASSERT_TRUE(repo.AddPeer(b).ok());
  ASSERT_TRUE(repo.HostDocument("A", "<DataA><log/></DataA>").ok());
  ASSERT_TRUE(repo.HostDocument("B", "<DataB><log/></DataB>").ok());
  service::ServiceDefinition record;
  record.name = "Record";
  record.document = "DataB";
  record.ops.push_back(ops::MakeInsert("Select d from d in DataB//log",
                                       "<entry who=\"${who}\">x</entry>"));
  ASSERT_TRUE(repo.HostService("B", record).ok());
  service::ServiceDefinition root;
  root.name = "Root";
  root.document = "DataA";
  root.subcalls.push_back({"B", "Record", {}, {{"who", "${who}"}}});
  ASSERT_TRUE(repo.HostService("A", std::move(root)).ok());
  const std::string padded = "  padded  ";
  // Local: B runs Record itself. Remote: A forwards the param to B.
  auto local = repo.RunTransaction("B", "TL", "Record", {{"who", padded}});
  ASSERT_TRUE(local.ok()) << local.status();
  EXPECT_TRUE(local->status.ok()) << local->status;
  auto remote = repo.RunTransaction("A", "TR", "Root", {{"who", padded}});
  ASSERT_TRUE(remote.ok()) << remote.status();
  EXPECT_TRUE(remote->status.ok()) << remote->status;
  xml::Document* doc = repo.FindPeer("B")->repository().GetDocument("DataB");
  std::vector<std::string> who;
  doc->Walk(doc->root(), [&who](const xml::Node& n) {
    if (n.is_element() && n.name == "entry") {
      const std::string* w = n.FindAttribute("who");
      who.push_back(w != nullptr ? *w : std::string());
    }
    return true;
  });
  EXPECT_EQ(who, (std::vector<std::string>{padded, padded}));
}

TEST(TxnProtocol, PeerIndependentCompensationUsesPlans) {
  AxmlRepository repo(1);
  ScenarioOptions options;
  options.s5_fault_probability = 1.0;
  options.peer_options.peer_independent = true;
  ASSERT_TRUE(BuildFigureOne(&repo, options).ok());
  auto before = SnapshotDocs(&repo, kFig1Peers);
  auto outcome = repo.RunTransaction("AP1", kTxnName, "S1");
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->status.code(), StatusCode::kAborted);
  auto after = SnapshotDocs(&repo, kFig1Peers);
  for (const overlay::PeerId& id : kFig1Peers) {
    EXPECT_EQ(after[id], before[id]) << "peer " << id << " not restored";
  }
  // AP6's rollback was driven by a shipped compensating-service definition,
  // not by its own context: "the original peers do not even need to be
  // aware that the services they are executing are, basically,
  // compensating services" (§3.2).
  EXPECT_EQ(repo.FindPeer("AP6")->stats().compensations_executed, 1);
}

TEST(TxnProtocol, StuckWithoutDetectionWhenChildDies) {
  // A child disconnects mid-transaction and nobody watches: the transaction
  // never decides (the paper's motivation for detection machinery, §3.3).
  AxmlRepository repo(1);
  ScenarioOptions options;
  options.duration = 20;
  ASSERT_TRUE(BuildFigureOne(&repo, options).ok());
  repo.network().DisconnectAt(5, "AP5");
  auto outcome = repo.RunTransaction("AP1", kTxnName, "S1");
  ASSERT_TRUE(outcome.ok());
  EXPECT_FALSE(outcome->decided);
  EXPECT_EQ(outcome->status.code(), StatusCode::kTimeout);
}

/// Keeps every record a peer journals.
class RecordingJournal : public txn::WriteJournal {
 public:
  void OnApply(const std::string&, const std::string&,
               const std::vector<ops::Operation>& ops) override {
    ++applies;
    records.insert(records.end(), ops.begin(), ops.end());
  }
  void OnResolved(const std::string&, bool) override {}
  int applies = 0;
  std::vector<ops::Operation> records;
};

TEST(TxnProtocol, PeerJournalsPathRecordsNotLocations) {
  AxmlRepository repo(1);
  AxmlRepository::PeerConfig config;
  config.id = "P1";
  txn::AxmlPeer* peer = repo.AddPeer(config).value();
  ASSERT_TRUE(repo.HostDocument(
                      "P1",
                      "<Doc><calls><axml:sc mode=\"merge\" serviceURL=\"P1\" "
                      "methodName=\"Quote\" outputName=\"q\"/></calls>"
                      "<log><entry n=\"0\"/><entry n=\"1\"/></log></Doc>")
                  .ok());
  service::ServiceDefinition quote;
  quote.name = "Quote";
  quote.native = [](const axml::ServiceRequest&)
      -> Result<axml::ServiceResponse> {
    AXMLX_ASSIGN_OR_RETURN(auto fragment, xml::Parse("<r><q>1</q></r>"));
    return axml::ServiceResponse{std::move(fragment)};
  };
  ASSERT_TRUE(repo.HostService("P1", std::move(quote)).ok());
  service::ServiceDefinition s;
  s.name = "S";
  s.document = "Doc";
  s.ops = {
      ops::MakeQuery("Select d//q from d in Doc"),
      ops::MakeInsert("Select l from l in Doc/log", "<entry n=\"2\"/>"),
      ops::MakeInsertBefore("Select e from e in Doc//entry where e/@n = 1",
                            "<entry n=\"b\"/>"),
      ops::MakeReplace("Select e from e in Doc//entry where e/@n = 0",
                       "<entry n=\"r\"/>"),
      ops::MakeDelete("Select e from e in Doc//entry where e/@n = 2"),
      // Materializes nothing: no call produces <log>.
      ops::MakeQuery("Select l from l in Doc/log"),
  };
  ASSERT_TRUE(repo.HostService("P1", std::move(s)).ok());
  RecordingJournal journal;
  peer->AttachJournal(&journal);
  auto outcome = repo.RunTransaction("P1", "T1", "S");
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  ASSERT_TRUE(outcome->status.ok()) << outcome->status;
  EXPECT_EQ(journal.applies, 1);
  // One record per edit: the materialization, the two inserts, the
  // replace and the delete. The second query changed nothing.
  ASSERT_EQ(journal.records.size(), 5u);
  for (const ops::Operation& record : journal.records) {
    EXPECT_FALSE(record.path.empty()) << record.ToXml();
    EXPECT_TRUE(record.location.empty()) << record.ToXml();
    EXPECT_EQ(record.target_node, xml::kNullNode) << record.ToXml();
  }
  EXPECT_EQ(journal.records[0].path, "/Doc/calls[0]/axml:sc[0]");
  EXPECT_EQ(journal.records[2].path, "/Doc/log[0]/entry[1]");
  EXPECT_EQ(journal.records[2].anchor, ops::Operation::Anchor::kBefore);
  EXPECT_EQ(journal.records[4].path, "/Doc/log[0]/entry[3]");
}

}  // namespace
}  // namespace axmlx::repo
