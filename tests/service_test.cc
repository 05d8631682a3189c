#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baseline/locked_executor.h"
#include "service/description.h"
#include "xml/builder.h"
#include "service/repository.h"
#include "tests/test_data.h"
#include "xml/parser.h"

namespace axmlx::service {
namespace {

ServiceDefinition PointsService() {
  ServiceDefinition def;
  def.name = "getPoints";
  def.document = "ATPList";
  def.ops.push_back(ops::MakeQuery(
      "Select p/points from p in ATPList//player "
      "where p/name/lastname = \"${name}\""));
  def.duration = 3;
  return def;
}

TEST(Repository, HostsDocumentsAndServices) {
  Repository repo;
  ASSERT_TRUE(repo.AddDocument(testing::MakeAtpList()).ok());
  EXPECT_NE(repo.GetDocument("ATPList"), nullptr);
  EXPECT_EQ(repo.GetDocument("nope"), nullptr);
  EXPECT_EQ(repo.AddDocument(testing::MakeAtpList()).code(),
            StatusCode::kAlreadyExists);
  ASSERT_TRUE(repo.AddService(PointsService()).ok());
  EXPECT_NE(repo.FindService("getPoints"), nullptr);
  EXPECT_EQ(repo.AddService(PointsService()).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(repo.ServiceNames().size(), 1u);
  EXPECT_EQ(repo.DocumentNames().size(), 1u);
}

TEST(ServiceHost, QueryServiceReturnsSelectedCopies) {
  Repository repo;
  ASSERT_TRUE(repo.AddDocument(testing::MakeAtpList()).ok());
  ASSERT_TRUE(repo.AddService(PointsService()).ok());
  ServiceHost host(&repo, testing::AtpInvoker(), nullptr);
  auto outcome = host.Invoke("getPoints", {{"name", "Federer"}});
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  // The RESULT text holds a copy of the (freshly materialized) points node.
  auto frag = xml::Parse(outcome->result_xml);
  ASSERT_TRUE(frag.ok()) << frag.status();
  EXPECT_EQ((*frag)->Find((*frag)->root())->name, "result");
  EXPECT_EQ((*frag)->TextContent((*frag)->root()), "890");
  // The query's materialization produced a compensating-service definition.
  EXPECT_FALSE(outcome->compensation.empty());
  EXPECT_GT(outcome->nodes_affected, 0u);
}

/// The RESULT body as ServiceHost used to build it: a `result` Document
/// holding copies of the selected nodes, or an `<inserted id>` element per
/// inserted node, for `def` run by a plain executor over `repo`.
std::string ResultFragmentOracle(Repository* repo, const ServiceDefinition& def,
                                 const std::vector<std::pair<std::string,
                                                             std::string>>&
                                     params) {
  xml::Document result("result");
  if (def.native) {
    axml::ServiceRequest request;
    request.method_name = def.name;
    request.params = params;
    auto response = def.native(request);
    EXPECT_TRUE(response.ok()) << response.status();
    if (response->fragment == nullptr) return result.Serialize();
    const xml::Document& frag = *response->fragment;
    for (xml::NodeId c : frag.Find(frag.root())->children) {
      xml::NodeId copy = result.ImportSubtree(frag, c).value();
      EXPECT_TRUE(result.AppendChild(result.root(), copy).ok());
    }
    return result.Serialize();
  }
  xml::Document* doc = repo->GetDocument(def.document);
  ops::Executor executor(doc, testing::AtpInvoker());
  for (const auto& [key, value] : params) executor.SetExternal(key, value);
  for (ops::Operation op : def.ops) {
    op.location = SubstituteParams(op.location, params);
    op.data_xml = SubstituteParams(op.data_xml, params);
    auto effect = executor.Execute(op);
    EXPECT_TRUE(effect.ok()) << effect.status();
    if (op.type == ops::ActionType::kQuery) {
      for (xml::NodeId id : effect->query_result.AllSelected()) {
        xml::NodeId copy = result.ImportSubtree(*doc, id).value();
        EXPECT_TRUE(result.AppendChild(result.root(), copy).ok());
      }
    } else {
      for (xml::NodeId id : effect->inserted) {
        xml::NodeId ack = xml::AddElement(&result, result.root(), "inserted");
        EXPECT_TRUE(result.SetAttribute(ack, "id", std::to_string(id)).ok());
      }
    }
  }
  return result.Serialize();
}

TEST(ServiceHost, ResultTextMatchesTheSerializedResultFragment) {
  ServiceDefinition insert;
  insert.name = "tagAll";
  insert.document = "ATPList";
  insert.ops.push_back(ops::MakeInsert("Select p from p in ATPList//player",
                                       "<tag k=\"${k}\">a &amp; b</tag><n/>"));
  ServiceDefinition mixed;
  mixed.name = "mixed";
  mixed.document = "ATPList";
  mixed.ops.push_back(ops::MakeQuery(
      "Select p/name from p in ATPList//player where p/name/lastname = Nadal"));
  mixed.ops.push_back(ops::MakeInsert(
      "Select p from p in ATPList//player where p/name/lastname = Nadal",
      "<seen/>"));
  ServiceDefinition empty;
  empty.name = "nothing";
  empty.document = "ATPList";
  empty.ops.push_back(ops::MakeQuery(
      "Select p/name from p in ATPList//player where p/name/lastname = Nobody"));
  ServiceDefinition no_ops;
  no_ops.name = "noOps";
  no_ops.document = "ATPList";
  ServiceDefinition native;
  native.name = "quote";
  native.native = [](const axml::ServiceRequest& request)
      -> Result<axml::ServiceResponse> {
    axml::ServiceResponse response;
    AXMLX_ASSIGN_OR_RETURN(
        response.fragment,
        xml::Parse("<answer><price cur=\"&quot;\">" + request.method_name +
                   "</price><!--c--><x/></answer>"));
    return response;
  };
  ServiceDefinition native_empty;
  native_empty.name = "silent";
  native_empty.native = [](const axml::ServiceRequest&)
      -> Result<axml::ServiceResponse> { return axml::ServiceResponse{}; };
  const std::vector<std::pair<std::string, std::string>> params = {
      {"name", "Federer"}, {"k", "v<1>"}};
  for (const ServiceDefinition& def :
       {PointsService(), insert, mixed, empty, no_ops, native, native_empty}) {
    Repository host_repo;
    Repository oracle_repo;
    Repository local_repo;
    for (Repository* repo : {&host_repo, &oracle_repo, &local_repo}) {
      ASSERT_TRUE(repo->AddDocument(testing::MakeAtpList()).ok());
      ASSERT_TRUE(repo->AddService(def).ok());
    }
    ServiceHost host(&host_repo, testing::AtpInvoker(), nullptr);
    auto outcome = host.Invoke(def.name, params);
    ASSERT_TRUE(outcome.ok()) << def.name << ": " << outcome.status();
    const std::string expected =
        ResultFragmentOracle(&oracle_repo, def, params);
    const bool none = def.name == "nothing" || def.name == "noOps" ||
                      def.name == "silent";
    EXPECT_EQ(expected == "<result/>", none) << def.name << ": " << expected;
    EXPECT_EQ(outcome->result_xml, expected) << def.name;
    // A local materialization reads the same nodes from a Document.
    ServiceHost local(&local_repo, testing::AtpInvoker(), nullptr);
    auto response = local.InvokeLocal(def.name, params);
    ASSERT_TRUE(response.ok()) << def.name << ": " << response.status();
    ASSERT_NE(response->fragment, nullptr) << def.name;
    const xml::Document& frag = *response->fragment;
    std::string children;
    for (xml::NodeId c : frag.Find(frag.root())->children) {
      children += frag.Serialize(c);
    }
    EXPECT_EQ(children.empty() ? "<result/>" : "<result>" + children + "</result>",
              expected)
        << def.name;
  }
}

TEST(ServiceHost, UpdateServiceIsAtomicOnFailure) {
  Repository repo;
  ASSERT_TRUE(repo.AddDocument(testing::MakeAtpList()).ok());
  ServiceDefinition def;
  def.name = "doubleWrite";
  def.document = "ATPList";
  def.ops.push_back(ops::MakeInsert(
      "Select p from p in ATPList//player where p/name/lastname = Nadal",
      "<first/>"));
  def.ops.push_back(ops::MakeQuery("This is not a valid query"));
  ASSERT_TRUE(repo.AddService(def).ok());
  auto snapshot = repo.GetDocument("ATPList")->Clone();
  ServiceHost host(&repo, nullptr, nullptr);
  auto outcome = host.Invoke("doubleWrite", {});
  EXPECT_FALSE(outcome.ok());
  // The first op's insert was rolled back before reporting the fault.
  EXPECT_TRUE(
      xml::Document::Equals(*repo.GetDocument("ATPList"), *snapshot));
}

TEST(ServiceHost, UnknownServiceAndDocument) {
  Repository repo;
  ServiceHost host(&repo, nullptr, nullptr);
  EXPECT_EQ(host.Invoke("nope", {}).status().code(), StatusCode::kNotFound);
  ServiceDefinition def;
  def.name = "orphan";
  def.document = "Missing";
  def.ops.push_back(ops::MakeQuery("Select d from d in Missing//x"));
  ASSERT_TRUE(repo.AddService(def).ok());
  EXPECT_EQ(host.Invoke("orphan", {}).status().code(), StatusCode::kNotFound);
}

TEST(Description, CoversParamsOpsAndSubcalls) {
  ServiceDefinition def = PointsService();
  def.subcalls.push_back({"AP4", "S4", {axml::FaultHandler{}}, {}});
  std::string xml_text = DescribeService(def);
  auto parsed = xml::Parse(xml_text);
  ASSERT_TRUE(parsed.ok()) << parsed.status() << "\n" << xml_text;
  const xml::Node* root = (*parsed)->Find((*parsed)->root());
  EXPECT_EQ(root->name, "service");
  EXPECT_EQ(*root->FindAttribute("name"), "getPoints");
  EXPECT_NE(xml_text.find("<parameter name=\"name\"/>"), std::string::npos);
  EXPECT_NE(xml_text.find("subcall peer=\"AP4\""), std::string::npos);
  EXPECT_NE(xml_text.find("handlers=\"1\""), std::string::npos);
}

TEST(Description, RepositoryWideListing) {
  Repository repo;
  ASSERT_TRUE(repo.AddService(PointsService()).ok());
  ServiceDefinition other;
  other.name = "other";
  ASSERT_TRUE(repo.AddService(other).ok());
  std::string xml_text = DescribeRepository(repo, "AP2");
  auto parsed = xml::Parse(xml_text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ((*parsed)->Find((*parsed)->root())->children.size(), 2u);
}

TEST(Description, ReferencedParametersDeduplicated) {
  ServiceDefinition def;
  def.name = "s";
  def.ops.push_back(ops::MakeInsert("Select d from d in D//x",
                                    "<a who=\"${who}\">${who} ${ref}</a>"));
  auto params = ReferencedParameters(def);
  ASSERT_EQ(params.size(), 2u);
  EXPECT_EQ(params[0], "who");
  EXPECT_EQ(params[1], "ref");
}

}  // namespace
}  // namespace axmlx::service

namespace axmlx::baseline {
namespace {

class LockedExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    doc_ = axmlx::testing::MakeAtpList();
    executor_ = std::make_unique<LockedExecutor>(
        doc_.get(), axmlx::testing::AtpInvoker(), &locks_);
  }
  std::unique_ptr<xml::Document> doc_;
  PathLockManager locks_;
  std::unique_ptr<LockedExecutor> executor_;
};

TEST_F(LockedExecutorTest, QueryTakesSharedLocksOnly) {
  auto effect = executor_->Execute(
      1, ops::MakeQuery("Select p/citizenship from p in ATPList//player "
                        "where p/name/lastname = Federer"));
  ASSERT_TRUE(effect.ok()) << effect.status();
  // P locks were taken for the predicate and already released; only the
  // S lock on the selected node remains.
  EXPECT_GT(executor_->stats().p_locks_taken, 0);
  EXPECT_EQ(locks_.HeldCount(), 1u);
  // Another reader is fine; a writer on the same node conflicts.
  auto reader = executor_->Execute(
      2, ops::MakeQuery("Select p/citizenship from p in ATPList//player "
                        "where p/name/lastname = Federer"));
  EXPECT_TRUE(reader.ok());
  auto writer = executor_->Execute(
      3, ops::MakeReplace("Select p/citizenship from p in ATPList//player "
                          "where p/name/lastname = Federer",
                          "<citizenship>X</citizenship>"));
  EXPECT_EQ(writer.status().code(), StatusCode::kConflict);
}

TEST_F(LockedExecutorTest, PredicateScansCollideWithWriters) {
  auto w1 = executor_->Execute(
      1, ops::MakeReplace("Select p/citizenship from p in ATPList//player "
                          "where p/name/lastname = Nadal",
                          "<citizenship>USA</citizenship>"));
  ASSERT_TRUE(w1.ok()) << w1.status();
  // Another location query's predicate must P-test *every* player — which
  // collides with w1's X lock on Nadal's subtree even though the write
  // targets Federer. Exactly the paper's point about lock-based protocols
  // on "active" documents.
  auto w2 = executor_->Execute(
      2, ops::MakeReplace("Select p/name/firstname from p in ATPList//player "
                          "where p/name/lastname = Federer",
                          "<firstname>R</firstname>"));
  EXPECT_EQ(w2.status().code(), StatusCode::kConflict);
  // A direct-target write on a disjoint node (no predicate scan) is fine.
  xml::NodeId federer_first = xml::FirstDescendantElement(
      *doc_, doc_->root(), "firstname");
  auto w3 = executor_->Execute(3, ops::MakeDeleteById(federer_first));
  EXPECT_TRUE(w3.ok()) << w3.status();
  // Releasing the writers lets the conflicting writer in.
  executor_->Release(1);
  executor_->Release(3);
  auto w4 = executor_->Execute(
      4, ops::MakeInsert("Select p from p in ATPList//player "
                         "where p/name/lastname = Nadal",
                         "<tag/>"));
  EXPECT_TRUE(w4.ok()) << w4.status();
}

TEST_F(LockedExecutorTest, PLocksBlockOnlyWriters) {
  // Hold an X lock on a player subtree; a query whose predicate must test
  // that player is denied its P lock — writers block readers under 2PL.
  ASSERT_TRUE(locks_.TryLock(9, "/ATPList/player[1]", LockMode::kExclusive));
  auto reader = executor_->Execute(
      1, ops::MakeQuery("Select p/citizenship from p in ATPList//player "
                        "where p/name/lastname = Nadal"));
  EXPECT_EQ(reader.status().code(), StatusCode::kConflict);
  EXPECT_GT(executor_->stats().conflicts, 0);
  // After the failed attempt, no stray locks remain from txn 1.
  locks_.ReleaseAll(9);
  EXPECT_EQ(locks_.HeldCount(), 0u);
}

TEST_F(LockedExecutorTest, DirectTargetOpsLockTheirPath) {
  xml::NodeId player =
      xml::FirstDescendantElement(*doc_, doc_->root(), "player");
  auto del = executor_->Execute(1, ops::MakeDeleteById(player));
  ASSERT_TRUE(del.ok()) << del.status();
  EXPECT_GE(locks_.HeldCount(), 1u);
}

}  // namespace
}  // namespace axmlx::baseline
