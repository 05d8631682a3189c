#ifndef AXMLX_BASELINE_LOCKED_EXECUTOR_H_
#define AXMLX_BASELINE_LOCKED_EXECUTOR_H_

#include <string>
#include <vector>

#include "axml/materializer.h"
#include "baseline/xpath_lock.h"
#include "common/status.h"
#include "ops/executor.h"
#include "xml/document.h"

namespace axmlx::baseline {

/// Lock-based executor over a real document, implementing the XPath
/// locking discipline of [5] that the paper contrasts against (§2):
///
/// - nodes referenced by the `where` part of a select "are only accessed
///   for a short time (for testing)": they take **P locks**, released as
///   soon as the predicate has been evaluated;
/// - query result nodes take **S locks**; update targets take **X locks**
///   on their full paths (covering the subtree);
/// - locks are held until the transaction releases them (strict 2PL).
///
/// Conflicting acquisitions fail fast with kConflict — the caller decides
/// whether to wait and retry or abort, mirroring the paper's complaint that
/// long AXML service calls turn every held lock into a bottleneck.
class LockedExecutor {
 public:
  using TxnId = PathLockManager::TxnId;

  /// `doc`, `locks` must outlive the executor. `invoker` resolves embedded
  /// service calls during materialization (their insertions inherit the
  /// target's X lock).
  LockedExecutor(xml::Document* doc, axml::ServiceInvoker invoker,
                 PathLockManager* locks);

  /// Supplies `$name` external parameter values for service calls.
  void SetExternal(const std::string& name, const std::string& value) {
    executor_.SetExternal(name, value);
  }

  /// Appends path-addressed records of each operation's effect to `*sink`
  /// (ops::Executor::CaptureRecords).
  void CaptureRecords(std::vector<ops::Operation>* sink) {
    executor_.CaptureRecords(sink);
  }

  /// Executes `op` under `txn`, acquiring the required locks first.
  /// Returns kConflict (and acquires nothing durable) when a lock cannot be
  /// granted.
  Result<ops::OpEffect> Execute(TxnId txn, const ops::Operation& op);

  /// Releases everything `txn` holds (commit/abort).
  void Release(TxnId txn);

  struct Stats {
    int64_t p_locks_taken = 0;
    int64_t conflicts = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  /// Paths of the nodes the `where` clause will test, for P locking.
  Result<std::vector<std::string>> PredicatePaths(const ops::Operation& op);
  /// Paths of the operation's target nodes, for S/X locking.
  Result<std::vector<std::string>> TargetPaths(const ops::Operation& op);

  xml::Document* doc_;
  ops::Executor executor_;
  PathLockManager* locks_;
  Stats stats_;
};

}  // namespace axmlx::baseline

#endif  // AXMLX_BASELINE_LOCKED_EXECUTOR_H_
