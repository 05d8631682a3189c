#ifndef AXMLX_OPS_EXECUTOR_H_
#define AXMLX_OPS_EXECUTOR_H_

#include <string>
#include <string_view>
#include <vector>

#include "axml/materializer.h"
#include "common/status.h"
#include "ops/operation.h"
#include "query/eval.h"
#include "xml/document.h"
#include "xml/edit.h"

namespace axmlx::obs {
class FlightRecorder;
}  // namespace axmlx::obs

namespace axmlx::ops {

/// Everything logged about one executed operation. This is the run-time
/// information §3.1 requires for dynamic compensation: "the delete
/// operations as well as the results of the <location> queries of the
/// delete operations need to be logged to enable compensation". Deleted
/// subtrees, inserted node ids, and all materialization side-effects live in
/// `edits`; `targets` are the nodes the <location> query resolved to.
struct OpEffect {
  Operation op;

  /// Nodes the <location> query (or direct id) resolved to.
  std::vector<xml::NodeId> targets;

  /// Ids of subtree roots inserted by this operation ("we assume that the
  /// [insert] operation returns the (unique) ID of the inserted node").
  std::vector<xml::NodeId> inserted;

  /// Primitive edits in execution order, including service-call
  /// materializations triggered by <location>/query evaluation.
  xml::EditLog edits;

  /// For kQuery: the full evaluation result.
  query::QueryResult query_result;

  /// Materialization counters for this operation.
  axml::MaterializeStats materialize_stats;

  /// The paper's cost measure: total XML nodes affected.
  size_t NodesAffected() const { return edits.TotalNodesAffected(); }
};

/// Executes operations against one document, logging effects.
///
/// Query evaluation materializes embedded service calls through `invoker`
/// (lazily by default, §3.1), so even read queries can modify the document;
/// every mutation is recorded in the returned `OpEffect`.
class Executor {
 public:
  /// `doc` must outlive the executor. `invoker` handles embedded
  /// service-call invocations; pass a null invoker to forbid
  /// materialization (calls then fail with kFailedPrecondition).
  Executor(xml::Document* doc, axml::ServiceInvoker invoker);

  /// Supplies a value for `$name` external service-call parameters.
  void SetExternal(const std::string& name, const std::string& value);

  /// Evaluates location queries, and the materializer's lazy-evaluation
  /// sources, through `ctx` (caller-owned scratch, parsed-query cache and
  /// stats; must outlive the executor). Long-lived hosts — ServiceHost,
  /// DurableStore — own one context each and hand it to every executor
  /// they run, so buffers and parsed locations carry across operations.
  /// A context must not be used re-entrantly (DESIGN.md §8).
  void SetEvalContext(query::EvalContext* ctx) { eval_ctx_ = ctx; }

  /// Selects the calls lazy evaluation materializes through `catalog`, the
  /// document's call catalog (caller-owned; must outlive the executor).
  /// Lets the document's host keep one catalog across operations; without
  /// one, each operation indexes the document's calls afresh.
  void SetCallCatalog(axml::CallCatalog* catalog) { catalog_ = catalog; }

  /// Appends each operation's effect to `*sink` as path-addressed records
  /// (Operation::path), one per edit, each computed as its edit is made.
  /// Applying them in order to any copy of the document with the same
  /// elements repeats the changes without evaluating a query or invoking a
  /// service; a peer with a write journal journals these instead of its
  /// operations. A failed operation leaves no record. Not owned; null —
  /// the default — captures nothing.
  void CaptureRecords(std::vector<Operation>* sink) { records_ = sink; }

  /// Stamps an OP_EXEC flight-recorder event per executed operation (not
  /// owned; null — the default — records nothing).
  void SetRecorder(obs::FlightRecorder* recorder) { recorder_ = recorder; }

  /// Executes `op`, returning the logged effect. On error the document is
  /// left untouched (partial work is rolled back internally).
  Result<OpEffect> Execute(const Operation& op);

  xml::Document* doc() { return doc_; }

 private:
  /// Evaluates through eval_ctx_ when one is set, else standalone.
  Result<query::QueryResult> Evaluate(const query::Query& q);

  /// Execute() minus the flight-recorder stamp.
  Result<OpEffect> ExecuteInternal(const Operation& op);

  /// Resolves the operation's direct target (node id or element path), or
  /// parses `op.location` and evaluates it, materializing needed service
  /// calls into `effect->edits` first. Returns the selected target nodes.
  Result<std::vector<xml::NodeId>> ResolveLocation(const Operation& op,
                                                   OpEffect* effect);

  /// Parses `payload` (`<data>…</data>`, already checked) straight into the
  /// document and inserts its top-level nodes under `parent` (from `index`
  /// on, or appended), recording edits into `effect`.
  Status InsertData(std::string_view payload, xml::NodeId parent,
                    bool has_index, size_t index, OpEffect* effect);

  /// A materialization record (kQuery with a path): applies `op.data_xml`
  /// as the results of the call element `sc`.
  Status ApplyResultsRecord(const Operation& op, xml::NodeId sc,
                            OpEffect* effect);

  /// While capturing, appends the record of an edit about to be made at
  /// element `target` (the path is taken before the edit changes it).
  Status Capture(ActionType type, xml::NodeId target,
                 const Operation& op) const;

  xml::Document* doc_;
  axml::ServiceInvoker invoker_;
  std::vector<std::pair<std::string, std::string>> externals_;
  query::EvalContext* eval_ctx_ = nullptr;
  axml::CallCatalog* catalog_ = nullptr;
  obs::FlightRecorder* recorder_ = nullptr;
  std::vector<Operation>* records_ = nullptr;
};

}  // namespace axmlx::ops

#endif  // AXMLX_OPS_EXECUTOR_H_
