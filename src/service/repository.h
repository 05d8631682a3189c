#ifndef AXMLX_SERVICE_REPOSITORY_H_
#define AXMLX_SERVICE_REPOSITORY_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "axml/call_catalog.h"
#include "axml/materializer.h"
#include "axml/service_call.h"
#include "baseline/locked_executor.h"
#include "common/rng.h"
#include "common/status.h"
#include "compensation/compensation.h"
#include "ops/executor.h"
#include "ops/op_log.h"
#include "overlay/network.h"
#include "query/eval.h"
#include "xml/document.h"

namespace axmlx::service {

/// Declaration of one service hosted by a peer.
///
/// AXML services are "Web services defined as queries/updates over AXML
/// documents" (paper §1): `ops` is the list of operation templates executed
/// over the hosted document `document`. `${param}` placeholders in locations
/// and data are substituted from the invocation parameters.
///
/// The distributed/nested structure of the paper's Figure 1 is captured by
/// `subcalls`: executing this service additionally requires invoking the
/// listed services on other peers ("distributed nesting", §1). Subcalls are
/// driven by the transaction layer, not by the local executor.
struct ServiceDefinition {
  std::string name;

  /// Target hosted document for `ops` (empty if the service is native-only).
  std::string document;

  /// Operation templates executed in order against `document`.
  std::vector<ops::Operation> ops;

  /// Nested invocations on other peers, issued while processing this
  /// service (Fig. 1: S3 invokes S4 and S5 on AP4/AP5).
  struct SubCall {
    overlay::PeerId peer;
    std::string service;
    /// Fault handlers for this embedded call (§3.2): catch/catchAll, with
    /// optional retry against the same peer or a replica. An empty list
    /// means faults propagate (backward recovery).
    std::vector<axml::FaultHandler> handlers;
    /// Invocation parameters forwarded to the child (templated like ops).
    std::vector<std::pair<std::string, std::string>> params;
  };
  std::vector<SubCall> subcalls;

  /// Simulated execution time in ticks (excludes subcall time).
  overlay::Tick duration = 1;

  /// Failure injection for experiments: probability that an invocation of
  /// this service faults with `fault_name`. The decision is made by the
  /// hosting transactional peer (not by ServiceHost), so the timing below
  /// can be honoured.
  double fault_probability = 0.0;
  std::string fault_name = "InjectedFault";
  /// When true the fault strikes after the local work and all subcalls have
  /// completed — the paper's Figure 1 timing, where AP5 fails "while
  /// processing the service S5" with S6 already invoked, so the abort must
  /// cascade to AP6. When false the fault strikes right after local work.
  bool fault_after_subcalls = false;

  /// Optional native handler (simulates a generic Web service). When set,
  /// it runs instead of `ops` and produces the result fragment directly.
  std::function<Result<axml::ServiceResponse>(const axml::ServiceRequest&)>
      native;
};

/// Result of executing a service locally on its hosting peer.
struct InvocationOutcome {
  /// The RESULT body returned to the invoker, written as text: a
  /// `<result>` element whose children are the result nodes (query
  /// services return copies of the selected nodes, updates an
  /// `<inserted id="…"/>` per inserted node), `<result/>` when there are
  /// none. Byte for byte what serializing a `result` Document holding
  /// those nodes would give.
  std::string result_xml;

  /// The dynamically constructed compensating-service definition, returned
  /// "along with the invocation results" for peer-independent compensation
  /// (§3.2): executing it on this peer undoes this invocation.
  comp::CompensationPlan compensation;

  /// Full effects, retained by the hosting peer for local (peer-dependent)
  /// compensation.
  ops::OpLog effects;

  /// The paper's cost measure for this invocation.
  size_t nodes_affected = 0;
};

/// Per-peer storage and service registry: "AXML peers: nodes where the AXML
/// documents and services are hosted" (§1).
class Repository {
 public:
  Repository() = default;
  Repository(const Repository&) = delete;
  Repository& operator=(const Repository&) = delete;

  /// Hosts `doc` under its root element's name.
  Status AddDocument(std::unique_ptr<xml::Document> doc);

  /// Hosts or replaces `doc` (used by eager replication: a peer pushes its
  /// document state to its replica after each service execution, §1).
  void PutDocument(std::unique_ptr<xml::Document> doc);
  xml::Document* GetDocument(const std::string& name);
  const xml::Document* GetDocument(const std::string& name) const;
  std::vector<std::string> DocumentNames() const;

  /// The call catalog of the document hosted as `name` (DESIGN.md §8),
  /// created empty on first use. It follows a replaced document by its
  /// identity, so PutDocument needs no hook.
  axml::CallCatalog* Catalog(const std::string& name) {
    return &catalogs_[name];
  }

  Status AddService(ServiceDefinition service);
  /// Adds or replaces a service definition.
  void PutService(ServiceDefinition service);
  const ServiceDefinition* FindService(const std::string& name) const;
  std::vector<std::string> ServiceNames() const;

 private:
  std::map<std::string, std::unique_ptr<xml::Document>> documents_;
  std::map<std::string, axml::CallCatalog> catalogs_;
  std::map<std::string, ServiceDefinition> services_;
};

/// Substitutes `${name}` placeholders in `text` from `params`. Values are
/// inserted verbatim; query literals should be written pre-quoted in the
/// template, e.g. `where p/name = "${name}"`.
std::string SubstituteParams(
    const std::string& text,
    const std::vector<std::pair<std::string, std::string>>& params);

/// Executes services against a repository's documents and constructs their
/// compensating-service definitions.
///
/// The host owns one query::EvalContext and hands it to every executor it
/// runs (DESIGN.md §8), so location queries are parsed once per host and
/// evaluation buffers stay warm across operations. A context is never used
/// re-entrantly: an embedded call that a service's operations materialize
/// runs on a host of its own (AxmlPeer's local invoker builds a temporary
/// one), never on the host whose executor is still evaluating.
class ServiceHost {
 public:
  /// `repo` must outlive the host. `downstream` resolves embedded
  /// service-call materializations encountered while executing operations
  /// (may be null to forbid them). `rng` drives fault injection (may be
  /// null for no faults).
  ServiceHost(Repository* repo, axml::ServiceInvoker downstream, Rng* rng)
      : repo_(repo), downstream_(std::move(downstream)), rng_(rng) {}

  /// Enables XPath locking (the concurrency-control baseline, after [5])
  /// for invocations carrying a nonzero lock id. `locks` is not owned and
  /// must outlive the host. Lock conflicts surface as kServiceFault
  /// "LockConflict: ..." so the recovery machinery treats them like any
  /// application fault. The caller releases a transaction's locks at its
  /// resolution via `locks->ReleaseAll(lock_id)`.
  void EnableLocking(baseline::PathLockManager* locks) { locks_ = locks; }

  /// Executes service `name` with `params`. On success the outcome carries
  /// the RESULT text plus the compensating-service definition. Service
  /// faults are returned as kServiceFault ("<fault_name>: ..."). `lock_id`
  /// != 0 runs the operations under path locks when locking is enabled.
  Result<InvocationOutcome> Invoke(
      const std::string& name,
      const std::vector<std::pair<std::string, std::string>>& params,
      int64_t lock_id = 0);

  /// Executes service `name` for an embedded call materialized on this
  /// host's peer: the response carries the result nodes as a fragment
  /// Document (a native service's own response fragment as it returned
  /// it) rather than as text. Faults as Invoke.
  Result<axml::ServiceResponse> InvokeLocal(
      const std::string& name,
      const std::vector<std::pair<std::string, std::string>>& params);

  /// The host's evaluation context, for other executors that work on its
  /// repository's documents outside Invoke (the peer's compensation runs).
  query::EvalContext* eval_context() { return &eval_ctx_; }

 private:
  class ResultSink;

  /// Invoke, with the result nodes going to `sink`.
  Result<InvocationOutcome> Run(
      const std::string& name,
      const std::vector<std::pair<std::string, std::string>>& params,
      int64_t lock_id, ResultSink* sink);

  Repository* repo_;
  axml::ServiceInvoker downstream_;
  Rng* rng_;
  baseline::PathLockManager* locks_ = nullptr;
  query::EvalContext eval_ctx_;
};

}  // namespace axmlx::service

#endif  // AXMLX_SERVICE_REPOSITORY_H_
