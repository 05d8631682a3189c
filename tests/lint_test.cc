// Tests for tools/axmlx_lint: a clean miniature tree passes, and each rule
// R1..R11 fires on a fixture seeding exactly that violation, with the
// finding anchored to the right file and line. The cross-TU rules (R6-R10)
// get fixture pairs split across files to prove the two-pass analyzer
// really correlates facts between translation units.

#include "axmlx_lint/lint.h"

#include <string>
#include <vector>

#include "gtest/gtest.h"

namespace axmlx::lint {
namespace {

/// Miniature source tree that satisfies every rule. Tests copy it and
/// perturb one file to seed a violation.
std::vector<SourceFile> CleanTree() {
  std::vector<SourceFile> files;
  files.push_back({"txn/payload.h", R"cc(#ifndef AXMLX_TXN_PAYLOAD_H_
#define AXMLX_TXN_PAYLOAD_H_
namespace axmlx::txn {
inline constexpr char kMsgInvoke[] = "INVOKE";
inline constexpr char kMsgAck[] = "ACK";
}  // namespace axmlx::txn
#endif  // AXMLX_TXN_PAYLOAD_H_
)cc"});
  files.push_back({"txn/peer.cc", R"cc(#include "txn/payload.h"
namespace axmlx::txn {
void AxmlPeer::OnMessage(const Message& message) {
  if (message.type == kMsgInvoke) {
    HandleInvoke(message);
  } else if (message.type == kMsgAck) {
    HandleAck(message);
  }
}
}  // namespace axmlx::txn
)cc"});
  files.push_back({"common/status.h", R"cc(#ifndef AXMLX_COMMON_STATUS_H_
#define AXMLX_COMMON_STATUS_H_
namespace axmlx {
enum class StatusCode { kOk, kAborted };
class [[nodiscard]] Status {
 public:
  bool ok() const { return true; }
};
template <typename T>
class [[nodiscard]] Result {
 public:
  bool ok() const { return true; }
};
}  // namespace axmlx
#endif  // AXMLX_COMMON_STATUS_H_
)cc"});
  files.push_back({"common/status.cc", R"cc(#include "common/status.h"
namespace axmlx {
const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kAborted:
      return "ABORTED";
  }
  return "UNKNOWN";
}
}  // namespace axmlx
)cc"});
  files.push_back({"common/trace.h", R"cc(#ifndef AXMLX_COMMON_TRACE_H_
#define AXMLX_COMMON_TRACE_H_
namespace axmlx {
inline constexpr char kEvSend[] = "SEND";
}  // namespace axmlx
#endif  // AXMLX_COMMON_TRACE_H_
)cc"});
  files.push_back({"overlay/network.cc", R"cc(#include "common/trace.h"
namespace axmlx::overlay {
void Network::TraceSend() { trace_->Add(now_, actor_, kEvSend, ""); }
}  // namespace axmlx::overlay
)cc"});
  files.push_back({"obs/span.h", R"cc(#ifndef AXMLX_OBS_SPAN_H_
#define AXMLX_OBS_SPAN_H_
namespace axmlx::obs {
inline constexpr char kSpanTxn[] = "TXN";
inline constexpr char kSpanService[] = "SERVICE";
class SpanTracker {
 public:
  int OpenSpan(int txn, const char* kind);
};
}  // namespace axmlx::obs
#endif  // AXMLX_OBS_SPAN_H_
)cc"});
  files.push_back({"txn/submit.cc", R"cc(#include "obs/span.h"
namespace axmlx::txn {
void AxmlPeer::Submit(int txn) { spans_->OpenSpan(txn, obs::kSpanTxn); }
}  // namespace axmlx::txn
)cc"});
  files.push_back(
      {"obs/flight_recorder.h", R"cc(#ifndef AXMLX_OBS_FLIGHT_RECORDER_H_
#define AXMLX_OBS_FLIGHT_RECORDER_H_
namespace axmlx::obs {
inline constexpr char kEvFrMsgSend[] = "MSG_SEND";
inline constexpr char kEvFrCrash[] = "CRASH";
class FlightRecorder {
 public:
  void Record(const char* kind, const char* what);
};
}  // namespace axmlx::obs
#endif  // AXMLX_OBS_FLIGHT_RECORDER_H_
)cc"});
  files.push_back({"overlay/send.cc", R"cc(#include "obs/flight_recorder.h"
namespace axmlx::overlay {
void Network::Send() { recorder_->Record(obs::kEvFrMsgSend, "invoke->b"); }
}  // namespace axmlx::overlay
)cc"});
  return files;
}

SourceFile* FindFile(std::vector<SourceFile>* files, const std::string& path) {
  for (SourceFile& f : *files) {
    if (f.path == path) return &f;
  }
  return nullptr;
}

std::vector<Finding> OfRule(const std::vector<Finding>& findings,
                            const std::string& rule) {
  std::vector<Finding> out;
  for (const Finding& f : findings) {
    if (f.rule == rule) out.push_back(f);
  }
  return out;
}

TEST(LintTest, CleanTreeHasNoFindings) {
  const std::vector<Finding> findings = RunLint(CleanTree());
  EXPECT_TRUE(findings.empty()) << FormatFindings(findings);
}

TEST(LintTest, R1FlagsDeclaredMessageWithoutDispatchArm) {
  std::vector<SourceFile> files = CleanTree();
  FindFile(&files, "txn/peer.cc")->content =
      R"cc(#include "txn/payload.h"
namespace axmlx::txn {
void AxmlPeer::OnMessage(const Message& message) {
  if (message.type == kMsgInvoke) {
    HandleInvoke(message);
  }
}
}  // namespace axmlx::txn
)cc";
  const std::vector<Finding> r1 = OfRule(RunLint(files), "R1");
  ASSERT_EQ(r1.size(), 1u) << FormatFindings(r1);
  EXPECT_EQ(r1[0].file, "txn/payload.h");
  EXPECT_EQ(r1[0].line, 5);  // The kMsgAck declaration.
  EXPECT_NE(r1[0].message.find("kMsgAck"), std::string::npos);
}

TEST(LintTest, R1FlagsUndeclaredMessageConstant) {
  std::vector<SourceFile> files = CleanTree();
  files.push_back({"recovery/chained_peer.cc", R"cc(#include "txn/payload.h"
namespace axmlx::recovery {
void ChainedPeer::Nudge(const Message& message) {
  if (message.type == kMsgBogus) {
    Panic();
  }
}
}  // namespace axmlx::recovery
)cc"});
  const std::vector<Finding> r1 = OfRule(RunLint(files), "R1");
  ASSERT_EQ(r1.size(), 1u) << FormatFindings(r1);
  EXPECT_EQ(r1[0].file, "recovery/chained_peer.cc");
  EXPECT_EQ(r1[0].line, 4);
  EXPECT_NE(r1[0].message.find("kMsgBogus"), std::string::npos);
}

TEST(LintTest, R1FlagsRawStringLiteralDispatch) {
  std::vector<SourceFile> files = CleanTree();
  SourceFile* peer = FindFile(&files, "txn/peer.cc");
  peer->content = R"cc(#include "txn/payload.h"
namespace axmlx::txn {
void AxmlPeer::OnMessage(const Message& message) {
  if (message.type == kMsgInvoke) {
    HandleInvoke(message);
  } else if (message.type == kMsgAck) {
    HandleAck(message);
  } else if (message.type == "COMMIT") {
    HandleCommit(message);
  }
}
}  // namespace axmlx::txn
)cc";
  const std::vector<Finding> r1 = OfRule(RunLint(files), "R1");
  ASSERT_EQ(r1.size(), 1u) << FormatFindings(r1);
  EXPECT_EQ(r1[0].file, "txn/peer.cc");
  EXPECT_EQ(r1[0].line, 8);
  EXPECT_NE(r1[0].message.find("COMMIT"), std::string::npos);
}

TEST(LintTest, R2FlagsStatusWithoutNodiscard) {
  std::vector<SourceFile> files = CleanTree();
  FindFile(&files, "common/status.h")->content =
      R"cc(#ifndef AXMLX_COMMON_STATUS_H_
#define AXMLX_COMMON_STATUS_H_
namespace axmlx {
enum class StatusCode { kOk, kAborted };
class Status {
 public:
  bool ok() const { return true; }
};
template <typename T>
class [[nodiscard]] Result {
 public:
  bool ok() const { return true; }
};
}  // namespace axmlx
#endif  // AXMLX_COMMON_STATUS_H_
)cc";
  const std::vector<Finding> r2 = OfRule(RunLint(files), "R2");
  ASSERT_EQ(r2.size(), 1u) << FormatFindings(r2);
  EXPECT_EQ(r2[0].file, "common/status.h");
  EXPECT_EQ(r2[0].line, 5);
  EXPECT_NE(r2[0].message.find("Status"), std::string::npos);
}

TEST(LintTest, R3FlagsEnumeratorMissingFromStatusCodeName) {
  std::vector<SourceFile> files = CleanTree();
  FindFile(&files, "common/status.h")->content =
      R"cc(#ifndef AXMLX_COMMON_STATUS_H_
#define AXMLX_COMMON_STATUS_H_
namespace axmlx {
enum class StatusCode {
  kOk,
  kAborted,
  kTimeout,
};
class [[nodiscard]] Status {
 public:
  bool ok() const { return true; }
};
template <typename T>
class [[nodiscard]] Result {
 public:
  bool ok() const { return true; }
};
}  // namespace axmlx
#endif  // AXMLX_COMMON_STATUS_H_
)cc";
  const std::vector<Finding> r3 = OfRule(RunLint(files), "R3");
  ASSERT_EQ(r3.size(), 1u) << FormatFindings(r3);
  EXPECT_EQ(r3[0].file, "common/status.h");
  EXPECT_EQ(r3[0].line, 7);  // kTimeout.
  EXPECT_NE(r3[0].message.find("kTimeout"), std::string::npos);
}

TEST(LintTest, R3FlagsUndeclaredTraceKindLiteral) {
  std::vector<SourceFile> files = CleanTree();
  FindFile(&files, "overlay/network.cc")->content =
      R"cc(#include "common/trace.h"
namespace axmlx::overlay {
void Network::TraceSend() { trace_->Add(now_, actor_, kEvSend, ""); }
void Network::TraceDrop() { trace_->Add(now_, actor_, "DROP", ""); }
}  // namespace axmlx::overlay
)cc";
  const std::vector<Finding> r3 = OfRule(RunLint(files), "R3");
  ASSERT_EQ(r3.size(), 1u) << FormatFindings(r3);
  EXPECT_EQ(r3[0].file, "overlay/network.cc");
  EXPECT_EQ(r3[0].line, 4);
  EXPECT_NE(r3[0].message.find("DROP"), std::string::npos);
}

TEST(LintTest, R3FlagsUndeclaredSpanKindLiteral) {
  std::vector<SourceFile> files = CleanTree();
  FindFile(&files, "txn/submit.cc")->content =
      R"cc(#include "obs/span.h"
namespace axmlx::txn {
void AxmlPeer::Submit(int txn) { spans_->OpenSpan(txn, obs::kSpanTxn); }
void AxmlPeer::Start(int txn) { spans_->OpenSpan(txn, "CHECKPOINT"); }
}  // namespace axmlx::txn
)cc";
  const std::vector<Finding> r3 = OfRule(RunLint(files), "R3");
  ASSERT_EQ(r3.size(), 1u) << FormatFindings(r3);
  EXPECT_EQ(r3[0].file, "txn/submit.cc");
  EXPECT_EQ(r3[0].line, 4);
  EXPECT_NE(r3[0].message.find("CHECKPOINT"), std::string::npos);
  EXPECT_NE(r3[0].message.find("kSpan"), std::string::npos);
}

TEST(LintTest, R3AllowsDeclaredSpanKindAndNonMemberOpenSpan) {
  std::vector<SourceFile> files = CleanTree();
  // A declared kind spelled as its literal value is fine (the constants
  // exist so constants should be used, but the table is the contract), and
  // the SpanTracker::OpenSpan definition itself is not an emit site.
  files.push_back({"obs/span.cc", R"cc(#include "obs/span.h"
namespace axmlx::obs {
int SpanTracker::OpenSpan(int txn, const char* kind) { return txn; }
}  // namespace axmlx::obs
)cc"});
  FindFile(&files, "txn/submit.cc")->content =
      R"cc(#include "obs/span.h"
namespace axmlx::txn {
void AxmlPeer::Submit(int txn) { spans_->OpenSpan(txn, "SERVICE"); }
}  // namespace axmlx::txn
)cc";
  const std::vector<Finding> r3 = OfRule(RunLint(files), "R3");
  EXPECT_TRUE(r3.empty()) << FormatFindings(r3);
}

TEST(LintTest, R3FlagsUndeclaredRecorderKindLiteral) {
  std::vector<SourceFile> files = CleanTree();
  FindFile(&files, "overlay/send.cc")->content =
      R"cc(#include "obs/flight_recorder.h"
namespace axmlx::overlay {
void Network::Send() { recorder_->Record(obs::kEvFrMsgSend, "invoke->b"); }
void Network::Drop() { recorder_->Record("MSG_LOST", "dropped"); }
}  // namespace axmlx::overlay
)cc";
  const std::vector<Finding> r3 = OfRule(RunLint(files), "R3");
  ASSERT_EQ(r3.size(), 1u) << FormatFindings(r3);
  EXPECT_EQ(r3[0].file, "overlay/send.cc");
  EXPECT_EQ(r3[0].line, 4);
  EXPECT_NE(r3[0].message.find("MSG_LOST"), std::string::npos);
  EXPECT_NE(r3[0].message.find("kEvFr"), std::string::npos);
}

TEST(LintTest, R3AllowsDeclaredRecorderKindAndNonMemberRecord) {
  std::vector<SourceFile> files = CleanTree();
  // A declared kind spelled as its literal is table-conformant, the
  // lowercase free-form `what` never matches the ALL_CAPS check, and the
  // FlightRecorder::Record definition itself is not an emit site.
  files.push_back(
      {"obs/flight_recorder.cc", R"cc(#include "obs/flight_recorder.h"
namespace axmlx::obs {
void FlightRecorder::Record(const char* kind, const char* what) {}
}  // namespace axmlx::obs
)cc"});
  FindFile(&files, "overlay/send.cc")->content =
      R"cc(#include "obs/flight_recorder.h"
namespace axmlx::overlay {
void Network::Crash() { recorder_->Record("CRASH", "peer stopped"); }
}  // namespace axmlx::overlay
)cc";
  const std::vector<Finding> r3 = OfRule(RunLint(files), "R3");
  EXPECT_TRUE(r3.empty()) << FormatFindings(r3);
}

TEST(LintTest, R4FlagsWrongIncludeGuard) {
  std::vector<SourceFile> files = CleanTree();
  files.push_back({"query/path.h", R"cc(#ifndef AXMLX_QUERY_WRONG_H_
#define AXMLX_QUERY_WRONG_H_
namespace axmlx::query {
struct Path {};
}  // namespace axmlx::query
#endif  // AXMLX_QUERY_WRONG_H_
)cc"});
  const std::vector<Finding> r4 = OfRule(RunLint(files), "R4");
  ASSERT_EQ(r4.size(), 1u) << FormatFindings(r4);
  EXPECT_EQ(r4[0].file, "query/path.h");
  EXPECT_EQ(r4[0].line, 1);
  EXPECT_NE(r4[0].message.find("AXMLX_QUERY_PATH_H_"), std::string::npos);
}

TEST(LintTest, R4FlagsUsingNamespaceInHeader) {
  std::vector<SourceFile> files = CleanTree();
  files.push_back({"query/path.h", R"cc(#ifndef AXMLX_QUERY_PATH_H_
#define AXMLX_QUERY_PATH_H_
#include <string>
using namespace std;
namespace axmlx::query {
struct Path {
  string text;
};
}  // namespace axmlx::query
#endif  // AXMLX_QUERY_PATH_H_
)cc"});
  const std::vector<Finding> r4 = OfRule(RunLint(files), "R4");
  ASSERT_EQ(r4.size(), 1u) << FormatFindings(r4);
  EXPECT_EQ(r4[0].file, "query/path.h");
  EXPECT_EQ(r4[0].line, 4);
  EXPECT_NE(r4[0].message.find("using namespace"), std::string::npos);
}

TEST(LintTest, R4AllowsUsingNamespaceInsideFunction) {
  std::vector<SourceFile> files = CleanTree();
  files.push_back({"query/path.h", R"cc(#ifndef AXMLX_QUERY_PATH_H_
#define AXMLX_QUERY_PATH_H_
namespace axmlx::query {
inline int Depth() {
  using namespace std;  // function-local: legal, if questionable
  return 1;
}
}  // namespace axmlx::query
#endif  // AXMLX_QUERY_PATH_H_
)cc"});
  const std::vector<Finding> r4 = OfRule(RunLint(files), "R4");
  EXPECT_TRUE(r4.empty()) << FormatFindings(r4);
}

TEST(LintTest, R5FlagsAssertInStatusReturningFunction) {
  std::vector<SourceFile> files = CleanTree();
  files.push_back({"txn/commit.cc", R"cc(#include "common/status.h"
namespace axmlx::txn {
Status Coordinator::Decide(bool ready) {
  assert(ready && "coordinator not ready");
  return Status();
}
}  // namespace axmlx::txn
)cc"});
  const std::vector<Finding> r5 = OfRule(RunLint(files), "R5");
  ASSERT_EQ(r5.size(), 1u) << FormatFindings(r5);
  EXPECT_EQ(r5[0].file, "txn/commit.cc");
  EXPECT_EQ(r5[0].line, 4);
}

TEST(LintTest, R5AllowsAssertOutsideStatusReturningFunctions) {
  std::vector<SourceFile> files = CleanTree();
  files.push_back({"xml/builder.cc", R"cc(#include "common/status.h"
namespace axmlx::xml {
int AddElement(Document* doc) {
  Status s = doc->Append();
  assert(s.ok());  // int-returning helper: no Status channel to use
  (void)s;
  return 1;
}
Result<int> Import(Document* doc) {
  if (doc == nullptr) return Result<int>();
  return Result<int>();
}
}  // namespace axmlx::xml
)cc"});
  const std::vector<Finding> r5 = OfRule(RunLint(files), "R5");
  EXPECT_TRUE(r5.empty()) << FormatFindings(r5);
}

TEST(LintTest, R5FlagsAssertInResultReturningFunction) {
  std::vector<SourceFile> files = CleanTree();
  files.push_back({"txn/commit.cc", R"cc(#include "common/status.h"
namespace axmlx::txn {
Result<int> Coordinator::Votes(bool ready) {
  if (ready) {
    assert(count_ > 0);
  }
  return Result<int>();
}
}  // namespace axmlx::txn
)cc"});
  const std::vector<Finding> r5 = OfRule(RunLint(files), "R5");
  ASSERT_EQ(r5.size(), 1u) << FormatFindings(r5);
  EXPECT_EQ(r5[0].file, "txn/commit.cc");
  EXPECT_EQ(r5[0].line, 5);
}

TEST(LintTest, SuppressionCommentSilencesFinding) {
  std::vector<SourceFile> files = CleanTree();
  files.push_back({"txn/commit.cc", R"cc(#include "common/status.h"
namespace axmlx::txn {
Status Coordinator::Decide(bool ready) {
  assert(ready);  // lint:allow(R5) -- invariant, not an input fault
  return Status();
}
}  // namespace axmlx::txn
)cc"});
  const std::vector<Finding> r5 = OfRule(RunLint(files), "R5");
  EXPECT_TRUE(r5.empty()) << FormatFindings(r5);
}

TEST(LintTest, FindingsAreSortedAndFormatted) {
  std::vector<SourceFile> files = CleanTree();
  FindFile(&files, "txn/peer.cc")->content =
      R"cc(#include "txn/payload.h"
namespace axmlx::txn {
void AxmlPeer::OnMessage(const Message& message) {
  if (message.type == kMsgInvoke) {
    HandleInvoke(message);
  }
}
Status AxmlPeer::Flush() {
  assert(open_);
  return Status();
}
}  // namespace axmlx::txn
)cc";
  const std::vector<Finding> findings = RunLint(files);
  ASSERT_EQ(findings.size(), 2u) << FormatFindings(findings);
  EXPECT_EQ(findings[0].rule, "R1");
  EXPECT_EQ(findings[1].rule, "R5");
  const std::string text = FormatFindings(findings);
  EXPECT_NE(text.find("txn/payload.h:5: [R1]"), std::string::npos) << text;
  EXPECT_NE(text.find("txn/peer.cc:9: [R5]"), std::string::npos) << text;
}

// --- R6: versioning discipline on xml::Document mutators -------------------

/// Miniature xml/document.cc: RecordVersion/NewNode are the recording
/// primitives, SetText records before mutating, ClearText records by
/// delegating to SetText (the intra-class fixpoint must see through it).
const char kCleanDocumentCc[] = R"cc(#include "xml/document.h"
namespace axmlx::xml {
void Document::RecordVersion(NodeId id) { history_[id].push_back(id); }
NodeId Document::NewNode(NodeType type) {
  RecordVersion(next_id_);
  return next_id_++;
}
void Document::SetText(NodeId id, const std::string& text) {
  RecordVersion(id);
  Node* n = FindMutable(id);
  n->text = text;
}
void Document::ClearText(NodeId id) { SetText(id, ""); }
}  // namespace axmlx::xml
)cc";

TEST(LintTest, R6AllowsMutatorsThatRecordDirectlyOrByDelegation) {
  std::vector<SourceFile> files = CleanTree();
  files.push_back({"xml/document.cc", kCleanDocumentCc});
  const std::vector<Finding> r6 = OfRule(RunLint(files), "R6");
  EXPECT_TRUE(r6.empty()) << FormatFindings(r6);
}

TEST(LintTest, R6FlagsMutatorWithoutVersionRecord) {
  std::vector<SourceFile> files = CleanTree();
  files.push_back({"xml/document.cc", R"cc(#include "xml/document.h"
namespace axmlx::xml {
void Document::RecordVersion(NodeId id) { history_[id].push_back(id); }
void Document::SetText(NodeId id, const std::string& text) {
  RecordVersion(id);
  Node* n = FindMutable(id);
  n->text = text;
}
void Document::ClearText(NodeId id) {
  Node* n = FindMutable(id);
  n->text.clear();
}
}  // namespace axmlx::xml
)cc"});
  const std::vector<Finding> r6 = OfRule(RunLint(files), "R6");
  ASSERT_EQ(r6.size(), 1u) << FormatFindings(r6);
  EXPECT_EQ(r6[0].file, "xml/document.cc");
  EXPECT_EQ(r6[0].line, 9);  // The ClearText definition.
  EXPECT_NE(r6[0].message.find("ClearText"), std::string::npos);
  EXPECT_NE(r6[0].message.find("FindMutable"), std::string::npos);
}

TEST(LintTest, R6SuppressionOnDefinitionSilencesFinding) {
  std::vector<SourceFile> files = CleanTree();
  files.push_back({"xml/document.cc", R"cc(#include "xml/document.h"
namespace axmlx::xml {
void Document::RecordVersion(NodeId id) { history_[id].push_back(id); }
// Slot recycling, not a logical mutation. lint:allow(R6)
void Document::FreeNode(NodeId id) {
  Node& n = NodeAt(id);
  n.text.clear();
}
}  // namespace axmlx::xml
)cc"});
  const std::vector<Finding> r6 = OfRule(RunLint(files), "R6");
  EXPECT_TRUE(r6.empty()) << FormatFindings(r6);
}

TEST(LintTest, R6FlagsFindMutableWriteOutsideDocument) {
  std::vector<SourceFile> files = CleanTree();
  files.push_back({"xml/diff.cc", R"cc(#include "xml/document.h"
namespace axmlx::xml {
Status ApplyAttrs(Document* doc, NodeId id, const Attrs& attrs) {
  Node* node = doc->FindMutable(id);
  node->attributes = attrs;
  return Status::Ok();
}
}  // namespace axmlx::xml
)cc"});
  const std::vector<Finding> r6 = OfRule(RunLint(files), "R6");
  ASSERT_EQ(r6.size(), 1u) << FormatFindings(r6);
  EXPECT_EQ(r6[0].file, "xml/diff.cc");
  EXPECT_EQ(r6[0].line, 4);
  EXPECT_NE(r6[0].message.find("FindMutable"), std::string::npos);
}

TEST(LintTest, R6AllowsMutatorCallsAndJustifiedFreshDocumentWrites) {
  std::vector<SourceFile> files = CleanTree();
  files.push_back({"xml/diff.cc", R"cc(#include "xml/document.h"
namespace axmlx::xml {
Status ApplyAttrs(Document* doc, NodeId id, const Attrs& attrs) {
  return doc->SetAttributes(id, attrs);
}
}  // namespace axmlx::xml
)cc"});
  files.push_back({"xml/parser.cc", R"cc(#include "xml/document.h"
namespace axmlx::xml {
void Splice(Document* fresh, NodeId c) {
  // Nobody else has seen `fresh` yet. lint:allow(R6)
  fresh->FindMutable(c)->parent = kNullNode;
}
}  // namespace axmlx::xml
)cc"});
  // The class's own files define and use FindMutable freely.
  files.push_back({"xml/document.cc", kCleanDocumentCc});
  const std::vector<Finding> r6 = OfRule(RunLint(files), "R6");
  EXPECT_TRUE(r6.empty()) << FormatFindings(r6);
}

// --- R7: determinism -------------------------------------------------------

TEST(LintTest, R7FlagsWallClockAndUnseededRandomness) {
  std::vector<SourceFile> files = CleanTree();
  files.push_back({"overlay/clock.cc", R"cc(#include <chrono>
namespace axmlx::overlay {
long NowMs() {
  return std::chrono::system_clock::now().time_since_epoch().count();
}
}  // namespace axmlx::overlay
)cc"});
  files.push_back({"txn/jitter.cc", R"cc(#include <cstdlib>
#include <random>
namespace axmlx::txn {
int Jitter() { return rand() % 7; }
unsigned Seed() { return std::random_device{}(); }
}  // namespace axmlx::txn
)cc"});
  const std::vector<Finding> r7 = OfRule(RunLint(files), "R7");
  ASSERT_EQ(r7.size(), 3u) << FormatFindings(r7);
  EXPECT_EQ(r7[0].file, "overlay/clock.cc");
  EXPECT_EQ(r7[0].line, 4);
  EXPECT_NE(r7[0].message.find("system_clock"), std::string::npos);
  EXPECT_EQ(r7[1].file, "txn/jitter.cc");
  EXPECT_EQ(r7[1].line, 4);
  EXPECT_NE(r7[1].message.find("rand()"), std::string::npos);
  EXPECT_EQ(r7[2].file, "txn/jitter.cc");
  EXPECT_EQ(r7[2].line, 5);
  EXPECT_NE(r7[2].message.find("random_device"), std::string::npos);
}

/// Header declaring an unordered member; the iteration happens in another
/// translation unit, which is exactly what the cross-TU pass must catch.
const char kRegistryHeader[] = R"cc(#ifndef AXMLX_TXN_REGISTRY_H_
#define AXMLX_TXN_REGISTRY_H_
#include <unordered_map>
namespace axmlx::txn {
struct Registry {
  std::unordered_map<int, int> by_txn_;
};
}  // namespace axmlx::txn
#endif  // AXMLX_TXN_REGISTRY_H_
)cc";

TEST(LintTest, R7FlagsUnorderedIterationAcrossTranslationUnits) {
  std::vector<SourceFile> files = CleanTree();
  files.push_back({"txn/registry.h", kRegistryHeader});
  files.push_back({"txn/broadcast.cc", R"cc(#include "txn/registry.h"
namespace axmlx::txn {
void Broadcast(Registry* r) {
  for (const auto& [txn, peer] : r->by_txn_) {
    Send(txn, peer);
  }
  auto it = r->by_txn_.begin();
  Send(it->first, it->second);
}
}  // namespace axmlx::txn
)cc"});
  const std::vector<Finding> r7 = OfRule(RunLint(files), "R7");
  ASSERT_EQ(r7.size(), 2u) << FormatFindings(r7);
  EXPECT_EQ(r7[0].file, "txn/broadcast.cc");
  EXPECT_EQ(r7[0].line, 4);  // The range-for.
  EXPECT_NE(r7[0].message.find("by_txn_"), std::string::npos);
  EXPECT_EQ(r7[1].line, 7);  // The explicit .begin().
}

TEST(LintTest, R7AllowsOrderedIterationAndFindComparisons) {
  std::vector<SourceFile> files = CleanTree();
  files.push_back({"txn/registry.h", kRegistryHeader});
  files.push_back({"txn/lookup.cc", R"cc(#include <map>
#include "txn/registry.h"
namespace axmlx::txn {
bool Has(Registry* r, int txn) {
  return r->by_txn_.find(txn) != r->by_txn_.end();
}
void Walk(const std::map<int, int>& order) {
  for (const auto& [txn, peer] : order) {
    Send(txn, peer);
  }
}
int Fold(Registry* r) {
  int sum = 0;
  // Order-insensitive sum. lint:allow(R7)
  for (const auto& [txn, peer] : r->by_txn_) sum += peer;
  return sum;
}
}  // namespace axmlx::txn
)cc"});
  const std::vector<Finding> r7 = OfRule(RunLint(files), "R7");
  EXPECT_TRUE(r7.empty()) << FormatFindings(r7);
}

// --- R8: WAL grammar completeness ------------------------------------------

/// Writer half of the WAL grammar, in its own TU.
const char kWalWriterCc[] = R"cc(#include "storage/durable_store.h"
namespace axmlx::storage {
Status DurableStore::Begin(const std::string& txn) {
  return AppendWal("BEGIN " + txn);
}
Status DurableStore::Commit(const std::string& txn) {
  return AppendWal("RESOLVED " + txn + " C");
}
}  // namespace axmlx::storage
)cc";

/// Replayer half, parsing exactly the written tags.
const char kWalReplayerCc[] = R"cc(#include "storage/durable_store.h"
namespace axmlx::storage {
Status DurableStore::ReplayWal() {
  std::string line;
  while (NextLine(&line)) {
    std::string kind = line.substr(0, line.find(' '));
    if (kind == "BEGIN") {
      StartTxn(line);
    } else if (kind == "RESOLVED") {
      FinishTxn(line);
    }
  }
  return Status::Ok();
}
}  // namespace axmlx::storage
)cc";

TEST(LintTest, R8AllowsMatchedWalGrammar) {
  std::vector<SourceFile> files = CleanTree();
  files.push_back({"storage/wal_write.cc", kWalWriterCc});
  files.push_back({"storage/wal_replay.cc", kWalReplayerCc});
  const std::vector<Finding> r8 = OfRule(RunLint(files), "R8");
  EXPECT_TRUE(r8.empty()) << FormatFindings(r8);
}

TEST(LintTest, R8FlagsWrittenButNeverReplayedTag) {
  std::vector<SourceFile> files = CleanTree();
  files.push_back({"storage/wal_write.cc", kWalWriterCc});
  files.push_back({"storage/wal_replay.cc",
                   R"cc(#include "storage/durable_store.h"
namespace axmlx::storage {
Status DurableStore::ReplayWal() {
  std::string line;
  while (NextLine(&line)) {
    std::string kind = line.substr(0, line.find(' '));
    if (kind == "BEGIN") {
      StartTxn(line);
    }
  }
  return Status::Ok();
}
}  // namespace axmlx::storage
)cc"});
  const std::vector<Finding> r8 = OfRule(RunLint(files), "R8");
  ASSERT_EQ(r8.size(), 1u) << FormatFindings(r8);
  EXPECT_EQ(r8[0].file, "storage/wal_write.cc");
  EXPECT_EQ(r8[0].line, 7);  // The "RESOLVED ..." append.
  EXPECT_NE(r8[0].message.find("RESOLVED"), std::string::npos);
  EXPECT_NE(r8[0].message.find("ReplayWal"), std::string::npos);
}

TEST(LintTest, R8FlagsReplayedButNeverWrittenTag) {
  std::vector<SourceFile> files = CleanTree();
  files.push_back({"storage/wal_write.cc", kWalWriterCc});
  files.push_back({"storage/wal_replay.cc",
                   R"cc(#include "storage/durable_store.h"
namespace axmlx::storage {
Status DurableStore::ReplayWal() {
  std::string line;
  while (NextLine(&line)) {
    std::string kind = line.substr(0, line.find(' '));
    if (kind == "BEGIN") {
      StartTxn(line);
    } else if (kind == "RESOLVED") {
      FinishTxn(line);
    } else if (kind == "EXT") {
      LoadExtension(line);
    }
  }
  return Status::Ok();
}
}  // namespace axmlx::storage
)cc"});
  const std::vector<Finding> r8 = OfRule(RunLint(files), "R8");
  ASSERT_EQ(r8.size(), 1u) << FormatFindings(r8);
  EXPECT_EQ(r8[0].file, "storage/wal_replay.cc");
  EXPECT_EQ(r8[0].line, 11);  // The kind == "EXT" arm.
  EXPECT_NE(r8[0].message.find("EXT"), std::string::npos);
  EXPECT_NE(r8[0].message.find("dead grammar arm"), std::string::npos);
}

// --- R9: thread-safety annotations -----------------------------------------

TEST(LintTest, R9FlagsUnannotatedMemberNextToMutex) {
  std::vector<SourceFile> files = CleanTree();
  files.push_back({"storage/page_cache.h",
                   R"cc(#ifndef AXMLX_STORAGE_PAGE_CACHE_H_
#define AXMLX_STORAGE_PAGE_CACHE_H_
#include <mutex>
namespace axmlx::storage {
class PageCache {
 public:
  void Put(int page);
 private:
  std::mutex mu_;
  int pages_ AXMLX_GUARDED_BY(mu_);
  int hits_;
};
}  // namespace axmlx::storage
#endif  // AXMLX_STORAGE_PAGE_CACHE_H_
)cc"});
  const std::vector<Finding> r9 = OfRule(RunLint(files), "R9");
  ASSERT_EQ(r9.size(), 1u) << FormatFindings(r9);
  EXPECT_EQ(r9[0].file, "storage/page_cache.h");
  EXPECT_EQ(r9[0].line, 11);  // hits_ — pages_ is annotated.
  EXPECT_NE(r9[0].message.find("hits_"), std::string::npos);
  EXPECT_NE(r9[0].message.find("PageCache"), std::string::npos);
}

TEST(LintTest, R9ExemptsAtomicConstStaticAndAnnotatedMembers) {
  std::vector<SourceFile> files = CleanTree();
  files.push_back({"compensation/queue.h",
                   R"cc(#ifndef AXMLX_COMPENSATION_QUEUE_H_
#define AXMLX_COMPENSATION_QUEUE_H_
#include <atomic>
#include <mutex>
#include <vector>
namespace axmlx::comp {
class Queue {
 public:
  void Push(int step);
 private:
  std::mutex mu_;
  std::vector<int> steps_ AXMLX_GUARDED_BY(mu_);
  int* head_ AXMLX_PT_GUARDED_BY(mu_);
  std::atomic<long> seq_;
  const int capacity_ = 8;
  static int instances_;
};
}  // namespace axmlx::comp
#endif  // AXMLX_COMPENSATION_QUEUE_H_
)cc"});
  const std::vector<Finding> r9 = OfRule(RunLint(files), "R9");
  EXPECT_TRUE(r9.empty()) << FormatFindings(r9);
}

TEST(LintTest, R9IgnoresClassesWithoutMutexes) {
  std::vector<SourceFile> files = CleanTree();
  files.push_back({"obs/stats.h", R"cc(#ifndef AXMLX_OBS_STATS_H_
#define AXMLX_OBS_STATS_H_
namespace axmlx::obs {
struct Stats {
  long hits_;
  long misses_;
};
}  // namespace axmlx::obs
#endif  // AXMLX_OBS_STATS_H_
)cc"});
  const std::vector<Finding> r9 = OfRule(RunLint(files), "R9");
  EXPECT_TRUE(r9.empty()) << FormatFindings(r9);
}

// --- R10: name-registry consistency ----------------------------------------

TEST(LintTest, R10FlagsRegistryConstantOutsideHomeTable) {
  std::vector<SourceFile> files = CleanTree();
  files.push_back({"txn/events.cc", R"cc(namespace axmlx::txn {
inline constexpr char kEvRetry[] = "RETRY";
}  // namespace axmlx::txn
)cc"});
  const std::vector<Finding> r10 = OfRule(RunLint(files), "R10");
  ASSERT_EQ(r10.size(), 1u) << FormatFindings(r10);
  EXPECT_EQ(r10[0].file, "txn/events.cc");
  EXPECT_EQ(r10[0].line, 2);
  EXPECT_NE(r10[0].message.find("common/trace.h"), std::string::npos);
}

TEST(LintTest, R10FlagsDuplicateRegistryValueWithinFamily) {
  std::vector<SourceFile> files = CleanTree();
  FindFile(&files, "common/trace.h")->content =
      R"cc(#ifndef AXMLX_COMMON_TRACE_H_
#define AXMLX_COMMON_TRACE_H_
namespace axmlx {
inline constexpr char kEvSend[] = "SEND";
inline constexpr char kEvXmit[] = "SEND";
}  // namespace axmlx
#endif  // AXMLX_COMMON_TRACE_H_
)cc";
  const std::vector<Finding> r10 = OfRule(RunLint(files), "R10");
  ASSERT_EQ(r10.size(), 1u) << FormatFindings(r10);
  EXPECT_EQ(r10[0].file, "common/trace.h");
  EXPECT_EQ(r10[0].line, 5);
  EXPECT_NE(r10[0].message.find("kEvSend"), std::string::npos);
}

TEST(LintTest, R10AllowsSameValueAcrossFamilies) {
  // kEvFrCrash ("CRASH" in the recorder family) coexisting with a kEv
  // "CRASH" is legitimate: the families are separate namespaces.
  std::vector<SourceFile> files = CleanTree();
  FindFile(&files, "common/trace.h")->content =
      R"cc(#ifndef AXMLX_COMMON_TRACE_H_
#define AXMLX_COMMON_TRACE_H_
namespace axmlx {
inline constexpr char kEvSend[] = "SEND";
inline constexpr char kEvCrash[] = "CRASH";
}  // namespace axmlx
#endif  // AXMLX_COMMON_TRACE_H_
)cc";
  const std::vector<Finding> r10 = OfRule(RunLint(files), "R10");
  EXPECT_TRUE(r10.empty()) << FormatFindings(r10);
}

TEST(LintTest, R10FlagsMetricLiteralMissingFromTable) {
  std::vector<SourceFile> files = CleanTree();
  files.push_back({"obs/metric_names.h",
                   R"cc(#ifndef AXMLX_OBS_METRIC_NAMES_H_
#define AXMLX_OBS_METRIC_NAMES_H_
namespace axmlx::obs {
inline constexpr char kMetricTxnRetries[] = "txn.retries";
}  // namespace axmlx::obs
#endif  // AXMLX_OBS_METRIC_NAMES_H_
)cc"});
  files.push_back({"txn/stats.cc", R"cc(#include "obs/metrics.h"
namespace axmlx::txn {
void Wire(obs::MetricsRegistry* m) {
  m->GetCounter("txn.retries");
  m->GetCounter("txn.retriez");
}
}  // namespace axmlx::txn
)cc"});
  const std::vector<Finding> r10 = OfRule(RunLint(files), "R10");
  ASSERT_EQ(r10.size(), 1u) << FormatFindings(r10);
  EXPECT_EQ(r10[0].file, "txn/stats.cc");
  EXPECT_EQ(r10[0].line, 5);  // The misspelled name; line 4 is declared.
  EXPECT_NE(r10[0].message.find("txn.retriez"), std::string::npos);
}

// --- R3/R10: kPhase* table and txn.latency.* registration -------------------

TEST(LintTest, R3FlagsOffTablePhaseAtEnterSite) {
  std::vector<SourceFile> files = CleanTree();
  files.push_back({"obs/timeline.h", R"cc(#ifndef AXMLX_OBS_TIMELINE_H_
#define AXMLX_OBS_TIMELINE_H_
namespace axmlx::obs {
inline constexpr char kPhaseEval[] = "EVAL";
inline constexpr char kPhaseQueueWait[] = "QUEUE_WAIT";
}  // namespace axmlx::obs
#endif  // AXMLX_OBS_TIMELINE_H_
)cc"});
  files.push_back({"txn/claims.cc", R"cc(#include "obs/timeline.h"
namespace axmlx::txn {
void Claim(obs::Timeline* tl) {
  tl->Enter("t1", "EVAL", 3);
  tl->Exit("t1", "EVALUATION", 4);
}
}  // namespace axmlx::txn
)cc"});
  const std::vector<Finding> r3 = OfRule(RunLint(files), "R3");
  ASSERT_EQ(r3.size(), 1u) << FormatFindings(r3);
  EXPECT_EQ(r3[0].file, "txn/claims.cc");
  EXPECT_EQ(r3[0].line, 5);  // The off-table spelling; line 4 is declared.
  EXPECT_NE(r3[0].message.find("EVALUATION"), std::string::npos);
  EXPECT_NE(r3[0].message.find("kPhase"), std::string::npos);
}

TEST(LintTest, R10FlagsPhaseConstantOutsideHomeTable) {
  std::vector<SourceFile> files = CleanTree();
  files.push_back({"obs/timeline.h", R"cc(#ifndef AXMLX_OBS_TIMELINE_H_
#define AXMLX_OBS_TIMELINE_H_
namespace axmlx::obs {
inline constexpr char kPhaseEval[] = "EVAL";
}  // namespace axmlx::obs
#endif  // AXMLX_OBS_TIMELINE_H_
)cc"});
  files.push_back({"txn/phases.cc", R"cc(namespace axmlx::txn {
inline constexpr char kPhaseParse[] = "PARSE";
}  // namespace axmlx::txn
)cc"});
  const std::vector<Finding> r10 = OfRule(RunLint(files), "R10");
  ASSERT_EQ(r10.size(), 1u) << FormatFindings(r10);
  EXPECT_EQ(r10[0].file, "txn/phases.cc");
  EXPECT_EQ(r10[0].line, 2);
  EXPECT_NE(r10[0].message.find("obs/timeline.h"), std::string::npos);
}

TEST(LintTest, R10FlagsUnregisteredTxnLatencyLiteral) {
  std::vector<SourceFile> files = CleanTree();
  files.push_back({"obs/metric_names.h",
                   R"cc(#ifndef AXMLX_OBS_METRIC_NAMES_H_
#define AXMLX_OBS_METRIC_NAMES_H_
namespace axmlx::obs {
inline constexpr char kMetricTxnLatencyTotal[] = "txn.latency.total";
}  // namespace axmlx::obs
#endif  // AXMLX_OBS_METRIC_NAMES_H_
)cc"});
  // Away from any Get* site: a report filter comparing histogram names.
  files.push_back({"tools/filter.cc", R"cc(#include <string>
namespace axmlx::report {
bool IsPhaseSeries(const std::string& name) {
  if (name == "txn.latency.total") return true;
  return name == "txn.latency.parse";
}
}  // namespace axmlx::report
)cc"});
  const std::vector<Finding> r10 = OfRule(RunLint(files), "R10");
  ASSERT_EQ(r10.size(), 1u) << FormatFindings(r10);
  EXPECT_EQ(r10[0].file, "tools/filter.cc");
  EXPECT_EQ(r10[0].line, 5);  // The unregistered series; line 4 is declared.
  EXPECT_NE(r10[0].message.find("txn.latency.parse"), std::string::npos);
}

// --- Suppression granularity and output formats ----------------------------

// --- R11: keepalive watch ownership ----------------------------------------

TEST(LintTest, R11FlagsEdgeTargetWritesOutsideTheHelper) {
  std::vector<SourceFile> files = CleanTree();
  files.push_back({"recovery/retry_peer.cc", R"cc(#include "txn/peer.h"
namespace axmlx::recovery {
void RetryPeer::OnChildFailure(Ctx* ctx, ChildEdge* edge) {
  if (edge->invoked_peer == edge->def.peer) Retry(ctx);
  edge->invoked_peer = ReplicaOf(edge->def.peer);
  edge->invoked_peer.clear();
  std::swap(edge->invoked_peer, spare_);
}
}  // namespace axmlx::recovery
)cc"});
  const std::vector<Finding> r11 = OfRule(RunLint(files), "R11");
  ASSERT_EQ(r11.size(), 3u) << FormatFindings(r11);
  EXPECT_EQ(r11[0].file, "recovery/retry_peer.cc");
  EXPECT_EQ(r11[0].line, 5);
  EXPECT_EQ(r11[1].line, 6);
  EXPECT_EQ(r11[2].line, 7);
  EXPECT_NE(r11[0].message.find("SetEdgeTarget"), std::string::npos);
}

TEST(LintTest, R11AllowsWritesInsideTheHelperAndReads) {
  std::vector<SourceFile> files = CleanTree();
  files.push_back({"txn/edges.cc", R"cc(#include "txn/peer.h"
namespace axmlx::txn {
void AxmlPeer::SetEdgeTarget(ChildEdge* edge, const PeerId& target) {
  ReleaseWatch(edge);
  edge->invoked_peer = target;
}
bool AxmlPeer::Targets(const ChildEdge& edge, const PeerId& peer) const {
  return edge.invoked_peer == peer && !edge.invoked_peer.empty();
}
}  // namespace axmlx::txn
)cc"});
  files.push_back({"recovery/retry_peer.cc", R"cc(#include "txn/peer.h"
namespace axmlx::recovery {
void RetryPeer::OnChildFailure(Ctx* ctx, ChildEdge* edge) {
  SetEdgeTarget(edge, ReplicaOf(edge->def.peer));
}
}  // namespace axmlx::recovery
)cc"});
  const std::vector<Finding> r11 = OfRule(RunLint(files), "R11");
  EXPECT_TRUE(r11.empty()) << FormatFindings(r11);
}

TEST(LintTest, SuppressionOnLineAboveSilencesFinding) {
  std::vector<SourceFile> files = CleanTree();
  files.push_back({"txn/commit.cc", R"cc(#include "common/status.h"
namespace axmlx::txn {
Status Coordinator::Decide(bool ready) {
  // Invariant, not an input fault. lint:allow(R5)
  assert(ready);
  return Status();
}
}  // namespace axmlx::txn
)cc"});
  const std::vector<Finding> r5 = OfRule(RunLint(files), "R5");
  EXPECT_TRUE(r5.empty()) << FormatFindings(r5);
}

TEST(LintTest, SuppressionTwoLinesAboveDoesNotSuppress) {
  std::vector<SourceFile> files = CleanTree();
  files.push_back({"txn/commit.cc", R"cc(#include "common/status.h"
namespace axmlx::txn {
Status Coordinator::Decide(bool ready) {
  // Too far away to bind to the finding. lint:allow(R5)
  // (an unrelated comment line in between)
  assert(ready);
  return Status();
}
}  // namespace axmlx::txn
)cc"});
  const std::vector<Finding> r5 = OfRule(RunLint(files), "R5");
  ASSERT_EQ(r5.size(), 1u) << FormatFindings(r5);
  EXPECT_EQ(r5[0].line, 6);
}

TEST(LintTest, JsonOutputIsStableAndEscaped) {
  EXPECT_EQ(FormatFindingsJson({}), "[]\n");
  const std::vector<Finding> findings = {
      {"R1", "txn/peer.cc", 3, "literal \"COMMIT\" with a \\ backslash"},
      {"R7", "overlay/clock.cc", 4, "wall-clock"},
  };
  const std::string json = FormatFindingsJson(findings);
  EXPECT_NE(json.find("{\"rule\": \"R1\", \"file\": \"txn/peer.cc\", "
                      "\"line\": 3, \"message\": "
                      "\"literal \\\"COMMIT\\\" with a \\\\ backslash\"},"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("{\"rule\": \"R7\", \"file\": \"overlay/clock.cc\", "
                      "\"line\": 4, \"message\": \"wall-clock\"}"),
            std::string::npos)
      << json;
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.substr(json.size() - 2), "]\n");
}

TEST(LintTest, CommentsAndStringsDoNotTriggerRules) {
  std::vector<SourceFile> files = CleanTree();
  files.push_back({"txn/notes.cc", R"cc(#include "txn/payload.h"
namespace axmlx::txn {
// In a comment: kMsgPhantom, assert(x), using namespace std.
const char* Describe() {
  return "mentions kMsgPhantom and assert( in a string";
}
}  // namespace axmlx::txn
)cc"});
  const std::vector<Finding> findings = RunLint(files);
  EXPECT_TRUE(findings.empty()) << FormatFindings(findings);
}

}  // namespace
}  // namespace axmlx::lint
