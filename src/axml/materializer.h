#ifndef AXMLX_AXML_MATERIALIZER_H_
#define AXMLX_AXML_MATERIALIZER_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "axml/call_catalog.h"
#include "axml/service_call.h"
#include "common/status.h"
#include "query/ast.h"
#include "xml/document.h"
#include "xml/edit.h"

namespace axmlx::query {
struct EvalContext;
}  // namespace axmlx::query

namespace axmlx::axml {

/// A fully resolved service invocation request, handed to the invoker
/// callback. The materializer resolves literal, external, and nested-call
/// parameters before building this.
struct ServiceRequest {
  std::string service_namespace;
  std::string service_url;
  std::string method_name;
  std::vector<std::pair<std::string, std::string>> params;
};

/// A successful invocation result: an XML fragment whose root's children are
/// the result nodes. Per the paper, results "may be static XML nodes or
/// another service call" — in the latter case the fragment simply contains
/// an `<axml:sc>` element, which becomes a new embedded call.
struct ServiceResponse {
  std::unique_ptr<xml::Document> fragment;
};

/// Callback that performs a service invocation. In the full system this is
/// wired to the overlay/service registry; tests can supply lambdas. Faults
/// are reported as `kServiceFault` statuses whose message begins with the
/// fault name ("FaultA: ...").
using ServiceInvoker =
    std::function<Result<ServiceResponse>(const ServiceRequest&)>;

/// Extracts the fault name from a kServiceFault status message
/// ("FaultA: detail" -> "FaultA").
std::string FaultNameOf(const Status& status);

/// Counters for evaluation-mode experiments (E7: lazy vs eager).
struct MaterializeStats {
  int calls_invoked = 0;
  int calls_skipped = 0;   ///< Present but not needed by the query (lazy).
  int retries = 0;
  int faults_handled = 0;  ///< Absorbed by a catch/catchAll handler.
  size_t nodes_inserted = 0;
  size_t nodes_removed = 0;
};

/// Applies results to the call element `sc` of `doc` as materialization
/// does: in replace mode the call's current results are detached first
/// ("the previous results are replaced by the current invocation
/// results"), then each of `results` (detached nodes of `doc`) is appended
/// under `sc`. Each change is logged to `log` and counted in `stats`. On
/// failure the results not yet attached are removed; the caller rolls back
/// what `log` holds.
Status ApplyCallResults(xml::Document* doc, xml::NodeId sc, ScMode mode,
                        const std::vector<xml::NodeId>& results,
                        xml::EditLog* log, MaterializeStats* stats);

/// Told about each materialization that changed the document, right after
/// it did: the call element and the response fragment whose root children
/// became its results.
using ResultsObserver =
    std::function<void(xml::NodeId sc, const xml::Document& fragment)>;

/// Materializes embedded service calls in a document (paper §1, §3.1).
///
/// Every document mutation performed while applying invocation results is
/// recorded in the supplied `EditLog`, which is what makes dynamic
/// compensation of *query* operations possible: "the compensating operation
/// for an AXML query cannot be pre-defined statically (has to be constructed
/// dynamically)" (§3.1).
class Materializer {
 public:
  /// Does not take ownership; `doc`, `log`, `catalog` and `ctx` must
  /// outlive the materializer. `catalog` is the document's call catalog;
  /// without one the materializer keeps its own for its lifetime. `ctx` is
  /// the evaluation context of the executor driving the materialization
  /// (DESIGN.md §8); lazy evaluation finds its sources through it. Without
  /// one, each lazy evaluation uses a context of its own.
  Materializer(xml::Document* doc, ServiceInvoker invoker, xml::EditLog* log,
               CallCatalog* catalog = nullptr,
               query::EvalContext* ctx = nullptr)
      : doc_(doc),
        invoker_(std::move(invoker)),
        log_(log),
        catalog_(catalog != nullptr ? catalog : &own_catalog_),
        ctx_(ctx) {}

  Materializer(const Materializer&) = delete;
  Materializer& operator=(const Materializer&) = delete;

  /// Supplies a value for `$name` external parameters.
  void SetExternal(const std::string& name, const std::string& value) {
    externals_[name] = value;
  }

  /// Reports every materialization that changed the document to
  /// `observer`, in edit order (nested parameter calls before the call
  /// they feed). Empty — the default — reports nothing.
  void SetResultsObserver(ResultsObserver observer) {
    observer_ = std::move(observer);
  }

  /// Materializes the single call at `sc`: resolves parameters (recursively
  /// materializing nested parameter calls), invokes the service, applies the
  /// results per the call's mode, and runs fault handlers on failure.
  /// Returns the ids of the newly inserted result nodes. A fault absorbed by
  /// a handler without retry yields an empty id list.
  Result<std::vector<xml::NodeId>> MaterializeCall(xml::NodeId sc);

  /// Lazy evaluation (§3.1): materializes only the embedded calls in the
  /// subtree at `scope` whose output names intersect the names mentioned by
  /// `q` — so the paper's Query A triggers `getGrandSlamsWonbyYear` but not
  /// `getPoints`, and Query B the reverse. Returns materialized call ids.
  Result<std::vector<xml::NodeId>> MaterializeForQuery(const query::Query& q,
                                                       xml::NodeId scope);

  /// Eager evaluation: materializes every embedded call under `scope`,
  /// including calls that arrive as results of other calls (bounded depth).
  Result<std::vector<xml::NodeId>> MaterializeAll(xml::NodeId scope);

  const MaterializeStats& stats() const { return stats_; }

 private:
  Result<ServiceRequest> ResolveRequest(const ServiceCallInfo& info);
  Result<std::vector<xml::NodeId>> ApplyResults(const ServiceCallInfo& info,
                                                const xml::Document& fragment);
  Result<ServiceResponse> InvokeWithHandlers(const ServiceCallInfo& info,
                                             const ServiceRequest& request,
                                             bool* fault_absorbed);

  /// Calls invoker_, noting in foreign_changes_ when the service changed
  /// this document itself.
  Result<ServiceResponse> Invoke(const ServiceRequest& request);

  /// One source of lazy evaluation: materializes, in document order, the
  /// calls visible from `src` that produce a name in `wanted` and are not
  /// yet `done`; fails with the Status of the first malformed call in that
  /// order, as checking each call of FindServiceCalls(src) would.
  Status MaterializeNeeded(xml::NodeId src,
                           const std::unordered_set<std::string>& wanted,
                           bool count_skipped,
                           std::unordered_set<xml::NodeId>* done,
                           std::vector<xml::NodeId>* materialized);

  xml::Document* doc_;
  ServiceInvoker invoker_;
  xml::EditLog* log_;
  CallCatalog own_catalog_;
  CallCatalog* catalog_;
  query::EvalContext* ctx_;
  /// Services that changed doc_ while being invoked.
  int64_t foreign_changes_ = 0;
  std::map<std::string, std::string> externals_;
  ResultsObserver observer_;
  MaterializeStats stats_;
  int depth_ = 0;
};

}  // namespace axmlx::axml

#endif  // AXMLX_AXML_MATERIALIZER_H_
