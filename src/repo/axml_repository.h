#ifndef AXMLX_REPO_AXML_REPOSITORY_H_
#define AXMLX_REPO_AXML_REPOSITORY_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/trace.h"
#include "obs/flight_recorder.h"
#include "obs/span.h"
#include "obs/timeline.h"
#include "compensation/compensation.h"
#include "ops/executor.h"
#include "ops/op_log.h"
#include "overlay/network.h"
#include "service/repository.h"
#include "txn/directory.h"
#include "txn/peer.h"
#include "xml/document.h"

namespace axmlx::repo {

/// A single-peer atomic unit of work: execute AXML operations against one
/// document, then Commit (keep) or Abort (dynamically compensate in reverse
/// order, §3.1). This is the entry-level public API — see
/// examples/quickstart.cpp.
class LocalTransaction {
 public:
  /// `doc` must outlive the transaction. `invoker` resolves embedded
  /// service-call materializations (may be null to forbid them).
  LocalTransaction(xml::Document* doc, axml::ServiceInvoker invoker);

  /// Supplies `$name` external parameter values for service calls.
  void SetExternal(const std::string& name, const std::string& value);

  /// Executes one operation; its effects are logged for compensation.
  Result<const ops::OpEffect*> Execute(const ops::Operation& op);

  /// Ends the transaction keeping its effects.
  Status Commit();

  /// Ends the transaction, undoing all effects by executing the
  /// dynamically constructed compensating operations in reverse order.
  Status Abort();

  bool active() const { return active_; }

  /// The compensation plan that Abort() would run now.
  comp::CompensationPlan PendingCompensation() const;

  /// Nodes affected so far (the paper's cost measure).
  size_t NodesAffected() const { return log_.TotalNodesAffected(); }

 private:
  ops::Executor executor_;
  ops::OpLog log_;
  bool active_ = true;
};

/// Outcome of a distributed transaction driven to quiescence.
struct TxnOutcome {
  Status status;                 ///< OK = committed; kAborted/kTimeout else.
  overlay::Tick duration = 0;    ///< Submit-to-decision simulation time.
  int64_t messages = 0;          ///< Messages sent while it ran.
  bool decided = false;          ///< False = stuck (no commit and no abort).
  /// The run stopped at the quiescence budget with events still pending
  /// (Network::RunUntilQuiescent returned false): a harness failure, not a
  /// protocol outcome.
  bool budget_exhausted = false;
};

/// The full P2P AXML repository: a set of transactional peers on a
/// simulated overlay. This facade owns the network, the service directory,
/// and the trace; peers are added with a chosen protocol level:
/// - kBaseline: abort-everything recovery (no fault handlers);
/// - kRecovering: nested recovery + fault handlers (§3.2);
/// - kChained: + chain-based disconnection handling (§3.3).
class AxmlRepository {
 public:
  enum class Protocol { kBaseline, kRecovering, kChained };

  struct PeerConfig {
    overlay::PeerId id;
    bool super_peer = false;
    Protocol protocol = Protocol::kRecovering;
    txn::AxmlPeer::Options options;
    uint64_t seed = 7;
  };

  explicit AxmlRepository(uint64_t seed = 1);

  // The network holds a pointer to the repository's trace; moving or
  // copying would dangle it.
  AxmlRepository(const AxmlRepository&) = delete;
  AxmlRepository& operator=(const AxmlRepository&) = delete;

  /// Adds a peer. The repository keeps ownership; the returned pointer is
  /// valid for the repository's lifetime.
  Result<txn::AxmlPeer*> AddPeer(const PeerConfig& config);

  txn::AxmlPeer* FindPeer(const overlay::PeerId& id);

  /// Crash-stops `peer`: removes it from the directory and destroys the
  /// in-memory peer object (contexts, repository documents, dedup state —
  /// everything volatile is gone, exactly like a process kill). The overlay
  /// slot is kept so the peer can be rebuilt and restarted later.
  Status CrashPeer(const overlay::PeerId& id);

  /// Rebuilds a previously crashed peer from scratch (empty repository) and
  /// rejoins it to the overlay. The caller re-hosts documents/services —
  /// typically from recovered durable state — before using it.
  Result<txn::AxmlPeer*> RestartPeer(const PeerConfig& config);

  /// Parses `xml_text` and hosts it on `peer` under its root element name.
  Status HostDocument(const overlay::PeerId& peer,
                      const std::string& xml_text);

  /// Registers `service` on `peer`.
  Status HostService(const overlay::PeerId& peer,
                     service::ServiceDefinition service);

  /// Declares `replica` as replicating `original`: clones every document
  /// and service definition of `original` onto `replica` and records the
  /// mapping in the directory (used for replica retry and peer-independent
  /// compensation after disconnection).
  Status SetReplica(const overlay::PeerId& original,
                    const overlay::PeerId& replica);

  /// Reconnection catch-up: after `peer` rejoins the overlay, synchronizes
  /// every document it hosts from its replica using id-based diff scripts
  /// (the replica served retries while the peer was away, so its copies are
  /// authoritative). Returns the total nodes the sync scripts touched.
  Result<size_t> ResyncFromReplica(const overlay::PeerId& peer);

  /// Submits `service` at `origin` as transaction `txn` and runs the
  /// network to quiescence. Returns the decision (or decided=false when the
  /// transaction is stuck — e.g. an undetected disconnection).
  Result<TxnOutcome> RunTransaction(const overlay::PeerId& origin,
                                    const std::string& txn,
                                    const std::string& service,
                                    const txn::Params& params = {});

  overlay::Network& network() { return *network_; }
  txn::ServiceDirectory& directory() { return directory_; }
  Trace& trace() { return trace_; }
  /// Causal span log shared by every peer of this repository — the
  /// cross-peer invocation tree (TXN/SERVICE/COMPENSATION/RECOVERY spans)
  /// reconstructs from it; render with tools/axmlx_report.
  obs::SpanTracker& spans() { return spans_; }

  /// Per-peer always-on flight recorders: the overlay stamps message
  /// events, each peer stamps txn/compensation events, and the span tracker
  /// mirrors span open/close — all into one (time, seq)-ordered set.
  obs::FlightRecorderSet& recorders() { return recorders_; }

  /// Per-transaction phase timeline (critical-path attribution): the origin
  /// peer opens each transaction's window, and the overlay, peers, and any
  /// attached DurableStore place phase claims inside it. Phases partition
  /// every window by construction — see DESIGN.md §7.
  obs::Timeline& timeline() { return timeline_; }

  /// Renders the repository's flight-recorder, span, and timeline state as
  /// an "axmlx-trace-v1" Chrome trace_event JSON document (Perfetto-
  /// loadable); see obs::BuildTraceJson.
  std::string BuildTrace() const {
    return obs::BuildTraceJson(&recorders_, &spans_, &timeline_);
  }

  // --- Crash forensics -----------------------------------------------------

  /// Directory to write forensic dumps into (created on demand). Empty — the
  /// default — keeps dumps in memory only (see last_forensic_dump()).
  void SetForensicsDir(const std::string& dir) { forensics_dir_ = dir; }

  /// Builds the "axmlx-forensics-v1" black-box artifact for the current
  /// recorder/span state and, when a forensics directory is set, writes it
  /// as forensic-<n>-<reason>.json. Returns the written path (empty when
  /// kept in memory only). Called automatically on CrashPeer and on an
  /// aborted RunTransaction; harnesses call it directly for their own
  /// triggers (e.g. a fault drill's atomicity violation).
  std::string DumpForensics(const obs::ForensicDumpOptions& options);

  /// The most recent dump's JSON (empty before the first dump).
  const std::string& last_forensic_dump() const { return last_forensic_dump_; }

  /// Paths of all dumps written to the forensics directory, in dump order.
  const std::vector<std::string>& forensic_paths() const {
    return forensic_paths_;
  }

 private:
  std::unique_ptr<txn::AxmlPeer> MakePeer(const PeerConfig& config);

  Trace trace_;
  obs::SpanTracker spans_;
  obs::Timeline timeline_;            ///< Must precede network_.
  obs::FlightRecorderSet recorders_;  ///< Must precede network_.
  std::unique_ptr<overlay::Network> network_;
  txn::ServiceDirectory directory_;
  std::vector<txn::AxmlPeer*> peers_;
  std::string forensics_dir_;
  std::string last_forensic_dump_;
  std::vector<std::string> forensic_paths_;
  int dump_counter_ = 0;
};

}  // namespace axmlx::repo

#endif  // AXMLX_REPO_AXML_REPOSITORY_H_
