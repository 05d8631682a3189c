#ifndef AXMLX_REPO_FAULT_DRILL_H_
#define AXMLX_REPO_FAULT_DRILL_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "overlay/fault_injection.h"
#include "repo/axml_repository.h"
#include "storage/durable_store.h"

namespace axmlx::repo {

/// Configuration of a fault drill: a uniform service tree driven through a
/// sequence of transactions while the overlay injects message faults,
/// partitions, and peer crash-restarts.
struct FaultDrillOptions {
  /// Topology: a uniform tree of depth `depth` and fanout `fanout` (peer
  /// "P" is the origin). Every worker gets a replica peer ("<id>R").
  int depth = 1;
  int fanout = 3;

  int transactions = 10;
  int ops_per_service = 2;

  // --- Message-level faults (wildcard, all links / all types) --------------
  double drop_rate = 0.0;
  double dup_rate = 0.0;
  double misroute_rate = 0.0;
  overlay::Tick delay_max = 0;

  /// Every `partition_every`-th transaction (1-based; 0 = never) the overlay
  /// splits into two halves `partition_at` ticks after submission and heals
  /// `partition_length` ticks later.
  int partition_every = 0;
  overlay::Tick partition_at = 4;
  overlay::Tick partition_length = 160;

  /// Every `crash_every`-th transaction (0 = never) one worker (rotating,
  /// never the origin) crash-stops `crash_at` ticks after submission —
  /// destroying all of its in-memory state — and restarts `restart_after`
  /// ticks later, rebuilt solely from its durable WAL plus a replica resync.
  int crash_every = 0;
  overlay::Tick crash_at = 6;
  overlay::Tick restart_after = 80;

  // --- Protocol knobs ------------------------------------------------------
  overlay::Tick txn_timeout = 300;
  overlay::Tick keepalive_interval = 25;
  overlay::Tick control_resend_interval = 20;

  uint64_t seed = 20070415;

  /// Worker-pool mode: -1 (default) runs without a runtime — the original
  /// fully synchronous path; 0 enables the deterministic single-thread
  /// scheduler; N > 0 spawns N worker threads. All modes produce identical
  /// WAL bytes and decisions (DESIGN.md §11 — the differential oracle).
  int runtime_workers = -1;
  uint64_t runtime_seed = 1;

  /// Deliberately corrupt one worker's document outside any transaction
  /// after the first commit, so the next CheckInvariant() reports an
  /// atomicity violation. This exercises the forensic-dump path end to end
  /// (violation -> black box -> axmlx_report --forensics) without having to
  /// find a real protocol bug on demand.
  bool force_violation = false;

  /// Dump the full message trace plus per-transaction outcomes to stderr.
  bool debug = false;

  /// Called after every eager replica push, once the replica is up to date
  /// (txn::ServiceDirectory::SetReplicaPushObserver); lets a test compare
  /// each push against the primary. Empty = no observer.
  txn::ServiceDirectory::ReplicaPushObserver replica_push_observer;

  /// Root directory for per-peer durable stores; derived from the seed when
  /// empty. The drill wipes it at the start of Run().
  std::string storage_dir;
};

/// Outcome of a drill. `violations` is the headline number: a violation is a
/// peer whose document holds a different number of committed log entries
/// than the transaction decisions imply (atomicity broken).
struct FaultDrillReport {
  int committed = 0;
  int aborted = 0;
  int undecided = 0;

  int violations = 0;
  std::vector<std::string> violation_details;

  /// Forensic dump files written by the drill (atomicity violations plus
  /// the repository's own crash / abort-cascade triggers), in dump order.
  std::vector<std::string> forensic_dumps;

  int crashes = 0;
  int restarts = 0;
  int64_t wal_replayed_ops = 0;    ///< Ops re-executed by WAL replay.
  int64_t wal_recovered_txns = 0;  ///< In-flight txns rolled back on Open().
  size_t resync_nodes = 0;         ///< Nodes touched by replica catch-up.

  int dangling_contexts = 0;   ///< Contexts still live at drill end.
  size_t pending_control = 0;  ///< Unacked control messages at drill end.

  int64_t journal_errors = 0;  ///< WAL ops that failed (store diverged).
  /// Scheduled crash/restart steps refused, plus quiescence runs that hit
  /// their budget with events still pending (a leaked timer).
  int harness_errors = 0;
  overlay::Tick final_time = 0;  ///< Simulated clock when the drill ended.

  overlay::Network::Stats net;
  overlay::FaultPlan::Stats faults;
};

/// Drives the drill described by `options` and checks the atomicity
/// invariant after every transaction: for each worker document, the number
/// of `<entry>` elements equals committed_transactions * ops_per_service.
class FaultDrill {
 public:
  explicit FaultDrill(FaultDrillOptions options);
  ~FaultDrill();

  FaultDrill(const FaultDrill&) = delete;
  FaultDrill& operator=(const FaultDrill&) = delete;

  Result<FaultDrillReport> Run();

  AxmlRepository& repo() { return *repo_; }

  /// The registry backing the drill's `drill.*` counters and the
  /// per-transaction duration histogram; the report is a thin view over it.
  obs::MetricsRegistry& metrics() { return metrics_; }

 private:
  /// Durable storage of one peer across crash incarnations.
  struct PeerStorage {
    std::unique_ptr<storage::DurableStore> store;
    std::unique_ptr<txn::WriteJournal> journal;
    int incarnation = 0;
  };

  Status SetUp();
  std::string StoreDir(const overlay::PeerId& id, int incarnation) const;
  /// Opens incarnation `incarnation` of `id`'s store seeded with `docs`
  /// (serialized XML; empty = rely on the directory's existing WAL) and
  /// attaches a fresh journal to the peer.
  Status AttachStorage(const overlay::PeerId& id,
                       const std::vector<std::string>& docs);
  Status CrashNow(const overlay::PeerId& id);
  Status RestartNow(const overlay::PeerId& id);
  void CheckInvariant(const std::string& txn, FaultDrillReport* report);
  /// force_violation support: deletes one committed <entry> from a worker
  /// document behind the protocol's back (no txn, no journal).
  Status TamperWorkerDocument();

  FaultDrillOptions options_;
  std::string storage_root_;
  std::unique_ptr<AxmlRepository> repo_;
  std::unique_ptr<overlay::FaultPlan> plan_;
  overlay::PeerId origin_;
  std::vector<overlay::PeerId> workers_;  ///< All tree peers incl. origin.
  std::map<overlay::PeerId, PeerStorage> storage_;
  std::vector<std::string> txn_names_;
  int committed_so_far_ = 0;
  bool tampered_ = false;
  obs::MetricsRegistry metrics_;
};

}  // namespace axmlx::repo

#endif  // AXMLX_REPO_FAULT_DRILL_H_
