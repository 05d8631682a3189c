#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "recovery/chained_peer.h"
#include "repo/axml_repository.h"
#include "repo/scenarios.h"
#include "txn/payload.h"

namespace axmlx::repo {
namespace {

size_t LogEntries(AxmlRepository* repo, const overlay::PeerId& id,
                  const overlay::PeerId& doc_owner = "") {
  xml::Document* doc = repo->FindPeer(id)->repository().GetDocument(
      ScenarioDocName(doc_owner.empty() ? id : doc_owner));
  if (doc == nullptr) return 0;
  size_t count = 0;
  doc->Walk(doc->root(), [&count](const xml::Node& n) {
    if (n.is_element() && n.name == "entry") ++count;
    return true;
  });
  return count;
}

/// Figure 2 with the chained protocol, replicas, retry-on-replica handlers.
ScenarioOptions ChainedOptions(overlay::Tick keepalive) {
  ScenarioOptions options;
  options.protocol = AxmlRepository::Protocol::kChained;
  options.duration = 10;
  options.add_replicas = true;
  options.handlers_retry_on_replica = true;
  options.peer_options.use_chaining = true;
  options.peer_options.keepalive_interval = keepalive;
  return options;
}

TEST(Disconnection, CaseA_LeafDetectedByParent) {
  // (a) "Leaf node disconnection ... AP3 follows the nested recovery
  // protocol": AP6 dies mid-execution; AP3 detects via keep-alive and its
  // handler retries S6 on the replica AP6R.
  AxmlRepository repo(1);
  ScenarioOptions options = ChainedOptions(/*keepalive=*/4);
  ASSERT_TRUE(BuildFigureTwo(&repo, options).ok());
  // Give AP3's S6 edge a retry-on-replica handler.
  service::Repository& ap3 = repo.FindPeer("AP3")->repository();
  service::ServiceDefinition s3 = *ap3.FindService("S3");
  axml::FaultHandler handler;
  handler.has_retry = true;
  handler.retry.times = 1;
  handler.retry.replica_url = "AP6R";
  s3.subcalls[0].handlers.push_back(handler);
  ap3.PutService(s3);

  repo.network().DisconnectAt(5, "AP6");
  auto outcome = repo.RunTransaction("AP1", kTxnName, "S1");
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_TRUE(outcome->status.ok()) << outcome->status;
  EXPECT_EQ(repo.FindPeer("AP3")->stats().retries, 1);
  EXPECT_EQ(LogEntries(&repo, "AP6R", "AP6"), 2u);
}

TEST(Disconnection, CaseB_ChildReroutesResultsPastDeadParent) {
  // (b) AP3 dies after invoking S6; AP6 detects this "while trying to
  // return the results" and sends them to AP2 via the chain; AP2 re-invokes
  // S3 on the replica, passing AP6's results along (work reuse).
  AxmlRepository repo(1);
  // No keep-alive: the *only* detection path is AP6's failed result send.
  ScenarioOptions options = ChainedOptions(/*keepalive=*/0);
  ASSERT_TRUE(BuildFigureTwo(&repo, options).ok());
  repo.network().DisconnectAt(5, "AP3");
  auto outcome = repo.RunTransaction("AP1", kTxnName, "S1");
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_TRUE(outcome->status.ok()) << outcome->status;
  // AP6 rerouted its results around AP3.
  EXPECT_EQ(repo.FindPeer("AP6")->stats().results_rerouted, 1);
  // AP3R reused AP6's work instead of re-invoking S6.
  EXPECT_EQ(repo.FindPeer("AP3R")->stats().subcalls_reused, 1);
  // AP6 executed its service exactly once and kept the work.
  EXPECT_EQ(LogEntries(&repo, "AP6"), 2u);
  EXPECT_EQ(repo.FindPeer("AP6")->stats().contexts_aborted, 0);
}

TEST(Disconnection, CaseB_WithoutChainingWorkIsWastedAndTxnStuck) {
  // The paper's contrast: "Traditional recovery would lead to AP6
  // (aborting) discarding its work and actual recovery occurring only when
  // the disconnection is detected by peer AP2" — with no detection at AP2,
  // the transaction hangs.
  AxmlRepository repo(1);
  ScenarioOptions options = ChainedOptions(/*keepalive=*/0);
  options.protocol = AxmlRepository::Protocol::kRecovering;
  options.peer_options.use_chaining = false;
  ASSERT_TRUE(BuildFigureTwo(&repo, options).ok());
  repo.network().DisconnectAt(5, "AP3");
  auto outcome = repo.RunTransaction("AP1", kTxnName, "S1");
  ASSERT_TRUE(outcome.ok());
  EXPECT_FALSE(outcome->decided);
  // AP6 discarded (compensated) its finished work.
  EXPECT_EQ(LogEntries(&repo, "AP6"), 0u);
  EXPECT_GT(repo.FindPeer("AP6")->stats().wasted_nodes, 0u);
}

TEST(Disconnection, CaseC_ParentDetectsViaKeepAliveAndChildIsAdopted) {
  // (c) AP3 dies while AP6 is still working. AP2 detects via ping,
  // notifies AP3's descendants from the chain, and re-invokes S3 on AP3R.
  // AP3R re-invokes S6; AP6 adopts the new parent and serves its existing
  // work instead of redoing it.
  AxmlRepository repo(1);
  ScenarioOptions options = ChainedOptions(/*keepalive=*/4);
  options.duration = 20;  // AP6 is mid-flight when detection happens
  ASSERT_TRUE(BuildFigureTwo(&repo, options).ok());
  repo.network().DisconnectAt(5, "AP3");
  auto outcome = repo.RunTransaction("AP1", kTxnName, "S1");
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_TRUE(outcome->status.ok()) << outcome->status;
  // AP2 informed AP3's descendants (AP6).
  EXPECT_GE(repo.FindPeer("AP2")->stats().notifications_sent, 1);
  // AP6 was re-invoked by AP3R and adopted it rather than re-executing.
  EXPECT_EQ(repo.FindPeer("AP6")->stats().adoptions, 1);
  EXPECT_EQ(LogEntries(&repo, "AP6"), 2u);  // executed once
}

TEST(Disconnection, CaseD_SiblingDetectsViaMissedStream) {
  // (d) AP4 notices AP3's silence on their data stream and notifies AP3's
  // parent (AP2) and child (AP6) from the chain; they then follow cases
  // (c) and (b) respectively.
  AxmlRepository repo(1);
  ScenarioOptions options = ChainedOptions(/*keepalive=*/0);
  options.duration = 30;
  ASSERT_TRUE(BuildFigureTwo(&repo, options).ok());

  txn::AxmlPeer* origin = repo.FindPeer("AP1");
  bool decided = false;
  Status final_status;
  ASSERT_TRUE(origin
                  ->Submit(&repo.network(), kTxnName, "S1", {},
                           [&](const std::string&, Status s) {
                             decided = true;
                             final_status = std::move(s);
                           })
                  .ok());
  // Let the invocation tree deploy, then arm the sibling stream watch.
  repo.network().RunUntil(4);
  auto* ap4 = dynamic_cast<recovery::ChainedPeer*>(repo.FindPeer("AP4"));
  ASSERT_NE(ap4, nullptr);
  ap4->WatchSibling(&repo.network(), kTxnName, "AP3", /*interval=*/5);
  repo.network().DisconnectAt(8, "AP3");
  repo.network().RunUntilQuiescent();

  EXPECT_TRUE(decided);
  EXPECT_TRUE(final_status.ok()) << final_status;
  // AP4 notified AP3's parent and child.
  EXPECT_EQ(repo.FindPeer("AP4")->stats().notifications_sent, 2);
  // AP6's work survived (reused through adoption or rerouting).
  EXPECT_EQ(LogEntries(&repo, "AP6"), 2u);
}

TEST(Disconnection, ChainShipsWithInvocations) {
  AxmlRepository repo(1);
  ScenarioOptions options = ChainedOptions(/*keepalive=*/0);
  ASSERT_TRUE(BuildFigureTwo(&repo, options).ok());
  auto chain = repo.directory().BuildChain("AP1", "S1");
  ASSERT_TRUE(chain.ok());
  // The Figure 2 chain: [AP1* -> AP2 -> [AP3 -> AP6] || [AP4 -> AP5]].
  EXPECT_EQ(chain->ParentOf("AP6"), "AP3");
  EXPECT_EQ(chain->ParentOf("AP5"), "AP4");
  EXPECT_EQ(chain->SiblingsOf("AP3"),
            (std::vector<overlay::PeerId>{"AP4"}));
  EXPECT_TRUE(chain->Serialize().find("AP1*") != std::string::npos);
}

/// A peer that records the chain header of every INVOKE it receives and
/// answers nothing. It hosts the one service it is invoked for, so the
/// directory can place it in a chain.
class ChainSpy : public overlay::PeerNode {
 public:
  using Seen = std::vector<std::pair<overlay::PeerId, std::string>>;
  ChainSpy(overlay::PeerId id, const std::string& service, Seen* seen)
      : PeerNode(std::move(id), /*super_peer=*/false), seen_(seen) {
    service::ServiceDefinition def;
    def.name = service;
    (void)repo_.AddService(def);
  }
  void OnMessage(const overlay::Message& m, overlay::Network*) override {
    if (m.type != txn::kMsgInvoke) return;
    auto it = m.headers.find(txn::kHdrChain);
    seen_->emplace_back(id(), it == m.headers.end() ? "(none)" : it->second);
  }
  service::Repository* repo() { return &repo_; }

 private:
  service::Repository repo_;
  Seen* seen_;
};

/// P0 (origin) -> {P1 -> {L1, L2}, Q}: P0 and P1 run the chained protocol;
/// Q, L1 and L2 are spies, so both hops of the depth-2 tree are observed.
Status BuildSpyTree(AxmlRepository* repo, ChainSpy::Seen* seen) {
  for (const char* id : {"P0", "P1"}) {
    AxmlRepository::PeerConfig config;
    config.id = id;
    config.super_peer = std::string(id) == "P0";
    config.protocol = AxmlRepository::Protocol::kChained;
    config.options.use_chaining = true;
    AXMLX_RETURN_IF_ERROR(repo->AddPeer(config).status());
    AXMLX_RETURN_IF_ERROR(repo->HostDocument(
        id, "<Data" + std::string(id) + "><log/></Data" + id + ">"));
  }
  for (const char* id : {"Q", "L1", "L2"}) {
    auto spy = std::make_unique<ChainSpy>(id, "Leaf", seen);
    repo->directory().Register(id, spy->repo(), /*super_peer=*/false);
    repo->network().AddPeer(std::move(spy));
  }
  service::ServiceDefinition mid;
  mid.name = "Mid";
  mid.document = "DataP1";
  mid.subcalls.push_back({"L1", "Leaf", {}, {}});
  mid.subcalls.push_back({"L2", "Leaf", {}, {}});
  AXMLX_RETURN_IF_ERROR(repo->HostService("P1", mid));
  service::ServiceDefinition root;
  root.name = "Root";
  root.document = "DataP0";
  root.subcalls.push_back({"P1", "Mid", {}, {}});
  root.subcalls.push_back({"Q", "Leaf", {}, {}});
  return repo->HostService("P0", root);
}

TEST(Disconnection, ChainForwardedVerbatimAtEveryHop) {
  AxmlRepository repo(1);
  ChainSpy::Seen seen;
  ASSERT_TRUE(BuildSpyTree(&repo, &seen).ok());
  auto chain = repo.directory().BuildChain("P0", "Root");
  ASSERT_TRUE(chain.ok()) << chain.status();
  const std::string origin = chain->Serialize();
  EXPECT_EQ(origin, "[P0*:Root -> [P1:Mid -> [L1:Leaf] || [L2:Leaf]] || "
                    "[Q:Leaf]]");
  ASSERT_TRUE(repo.FindPeer("P0")
                  ->Submit(&repo.network(), "T1", "Root", {},
                           [](const std::string&, Status) {})
                  .ok());
  repo.network().RunUntilQuiescent();
  // Q hears the origin directly (hop 1); L1 and L2 hear P1, which read the
  // chain and passed it on (hop 2). Every header is the origin's text.
  ASSERT_EQ(seen.size(), 3u);
  for (const auto& [peer, header] : seen) EXPECT_EQ(header, origin) << peer;
}

TEST(Disconnection, ChainHeaderReachesChildrenCanonicalOrEmpty) {
  // An INVOKE whose chain header is spelled loosely is passed on as
  // Serialize writes it; a malformed one leaves the context with an empty
  // chain, which its children receive as "[]".
  const std::pair<std::string, std::string> cases[] = {
      {"[P0* -> [P1:Mid->[L1:Leaf]||[L2:Leaf]]]",
       "[P0* -> [P1:Mid -> [L1:Leaf] || [L2:Leaf]]]"},
      {"[P0* -> [P1:Mid -> [L1", "[]"},
  };
  for (const auto& [sent, expected] : cases) {
    AxmlRepository repo(1);
    ChainSpy::Seen seen;
    ASSERT_TRUE(BuildSpyTree(&repo, &seen).ok());
    overlay::Message m;
    m.from = "Q";
    m.to = "P1";
    m.type = txn::kMsgInvoke;
    m.headers[txn::kHdrTxn] = "T1";
    m.headers[txn::kHdrService] = "Mid";
    m.headers[txn::kHdrChain] = sent;
    m.body = txn::EncodeParams({});
    ASSERT_TRUE(repo.network().Send(std::move(m)).ok());
    repo.network().RunUntilQuiescent();
    ASSERT_EQ(seen.size(), 2u) << sent;
    for (const auto& [peer, header] : seen) {
      EXPECT_EQ(header, expected) << sent << " at " << peer;
    }
  }
}

TEST(Disconnection, SuperPeerOriginNeverDisconnects) {
  AxmlRepository repo(1);
  ScenarioOptions options = ChainedOptions(/*keepalive=*/0);
  ASSERT_TRUE(BuildFigureTwo(&repo, options).ok());
  EXPECT_EQ(repo.network().Disconnect("AP1").code(),
            StatusCode::kFailedPrecondition);
}

TEST(Disconnection, SpheresOfAtomicityOnScenarioChains) {
  // Figure 2's chain contains ordinary peers, so atomicity cannot be
  // guaranteed; an all-super-peer composition can (§3.3, Spheres of
  // Atomicity).
  AxmlRepository repo(1);
  ScenarioOptions options = ChainedOptions(0);
  ASSERT_TRUE(BuildFigureTwo(&repo, options).ok());
  auto chain = repo.directory().BuildChain("AP1", "S1");
  ASSERT_TRUE(chain.ok());
  EXPECT_FALSE(chain->AtomicityGuaranteed());

  AxmlRepository all_super(2);
  for (const char* id : {"SP1", "SP2"}) {
    AxmlRepository::PeerConfig config;
    config.id = id;
    config.super_peer = true;
    ASSERT_TRUE(all_super.AddPeer(config).ok());
    ASSERT_TRUE(all_super
                    .HostDocument(id, "<Data" + std::string(id) +
                                          "><log/></Data" + id + ">")
                    .ok());
  }
  service::ServiceDefinition leaf;
  leaf.name = "SL";
  leaf.document = "DataSP2";
  ASSERT_TRUE(all_super.HostService("SP2", leaf).ok());
  service::ServiceDefinition root;
  root.name = "SR";
  root.document = "DataSP1";
  root.subcalls.push_back({"SP2", "SL", {}, {}});
  ASSERT_TRUE(all_super.HostService("SP1", root).ok());
  auto super_chain = all_super.directory().BuildChain("SP1", "SR");
  ASSERT_TRUE(super_chain.ok());
  EXPECT_TRUE(super_chain->AtomicityGuaranteed());
}

}  // namespace
}  // namespace axmlx::repo
