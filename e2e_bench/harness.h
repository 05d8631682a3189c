#ifndef E2E_BENCH_HARNESS_H_
#define E2E_BENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "axml/materializer.h"
#include "common/status.h"
#include "overlay/fault_injection.h"
#include "repo/axml_repository.h"
#include "speed_probe.h"
#include "storage/durable_store.h"
#include "tracer.h"

namespace e2e {

/// Inserts every service performs on its peer's document per transaction.
inline constexpr int kInsertsPerService = 2;

/// One benchmark workload. All workloads run the same topology: a uniform
/// service tree of depth 2 and fanout 3 (13 workers, each with a replica
/// and a WAL-backed store).
struct WorkloadSpec {
  const char* name = "";
  int prefill = 100;     ///< <entry> elements per worker document at set-up.
  int epoch_txns = 50;   ///< Transactions between rebuilds of the repository.
  int calls = 0;         ///< Embedded axml:sc per document; 0 = inserts only.
  int probes = 0;        ///< Crash-recovery probes per epoch (0 = none);
                         ///< with probes, each epoch also ends with one
                         ///< abort probe.
  double dup_rate = 0.0;     ///< Share of messages delivered twice.
  int partition_every = 0;   ///< Partition during every n-th transaction.
  int crash_every = 0;       ///< Crash a rotating worker every n-th txn.
  int checkpoint_every = 0;  ///< Checkpoint a rotating store every n-th txn.
  double leaf_fault = 0.0;   ///< Fault probability of each leaf service.

  /// Largest document growth an epoch may cause, in <entry> elements: the
  /// working-set band is [prefill, prefill + band()].
  int band() const { return epoch_txns * kInsertsPerService; }
  bool chaos() const { return crash_every > 0; }
};

/// The benchmark's workloads, in BENCHMARK.json order.
const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(const std::string& name);

/// When a run stops: at the first epoch boundary after the transactions'
/// summed wall time reaches `seconds` (or after `max_epochs` epochs), or
/// exactly after `max_txns` transactions when that is set. Limits count
/// from the end of the warm-up.
struct RunLimits {
  double seconds = 10.0;
  int max_epochs = 0;  ///< 0 = no limit.
  int max_txns = 0;    ///< 0 = no limit.
};

/// Raw measurements of a run. Per-transaction figures cover the timed
/// transactions only; probes and set-up are kept apart.
struct Totals {
  int epochs = 0;
  int64_t attempted = 0;
  int64_t committed = 0;
  int64_t aborted = 0;
  int64_t undecided = 0;
  int64_t timed_ns = 0;  ///< Summed RunTransaction wall time.

  // Wall times as measured, each with the instant it was taken, so that
  // the speed probe can scale it to the reference speed.
  std::vector<Sample> setup_s;     ///< One per epoch.
  std::vector<Sample> txn_ms;      ///< Every timed transaction.
  std::vector<Sample> commit_ms;   ///< Committed timed transactions.
  std::vector<Sample> abort_ms;    ///< Aborted transactions (or probes).
  std::vector<Sample> recover_ms;  ///< Restart to rejoin (or probes).
  std::vector<int64_t> sim_ticks;  ///< Simulated submit-to-decision time.
  std::vector<int64_t> wal_bytes_at_crash;

  int64_t messages_sent = 0;
  int64_t messages_delivered = 0;
  int64_t sends_failed = 0;

  int64_t wal_bytes = 0;
  int64_t wal_records = 0;
  int64_t wal_flushes = 0;
  int64_t checkpoints = 0;
  int64_t checkpoints_skipped = 0;
  int64_t restarts = 0;
  int64_t replayed_ops = 0;
  int64_t resync_nodes = 0;

  int64_t compensations = 0;  ///< Local rollbacks plus shipped plans run.
  int64_t nodes_compensated = 0;
  int64_t wasted_nodes = 0;
  int64_t retries = 0;
  int64_t pending_control_end = 0;

  int64_t doc_nodes_start = 0;  ///< Summed over epochs (mean per worker).
  int64_t doc_nodes_end = 0;
  int64_t nodes_allocated = 0;  ///< Worker documents plus stores.
  int64_t index_hits = 0;
  int64_t index_candidates = 0;
  int64_t walk_fallbacks = 0;
  int64_t forensic_dumps = 0;
  int64_t horizon_hits = 0;  ///< Epochs cut short by the overlay clock.

  uint64_t input_fingerprint = 0;  ///< FNV-1a of the measured inputs.

  /// Correctness failures: atomicity violations, failed store calls,
  /// diverged copies, band breaches. Any entry fails the run.
  int64_t violations = 0;
  std::vector<std::string> errors;

  int64_t decided() const { return committed + aborted; }
};

/// Drives full AxmlRepository transactions through the public API: builds
/// the topology, runs epochs of transactions, checks every outcome, and
/// times each layer from outside around the calls it makes into it.
class Harness {
 public:
  Harness(const WorkloadSpec& spec, uint64_t seed, std::string work_dir,
          Tracer* tracer);
  ~Harness();

  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  /// Runs epochs until `limits` say stop. A non-OK status is a harness
  /// failure (an API call refused); protocol and durability failures land
  /// in totals().errors instead.
  axmlx::Status Run(const RunLimits& limits);

  const Totals& totals() const { return totals_; }
  /// Host speed around the measured part of the run.
  const SpeedProbe& probe() const { return probe_; }

 private:
  class Journal;

  /// Durable storage of one worker across crash incarnations.
  struct PeerStorage {
    std::unique_ptr<axmlx::storage::DurableStore> store;
    std::unique_ptr<Journal> journal;
    int incarnation = 0;
    int64_t wal_seen = 0;  ///< WAL bytes of this incarnation accounted so far.
    std::map<std::string, int64_t> counters_base;  ///< At seeding time.
  };

  /// Inputs of one epoch, generated from (seed, epoch) before set-up.
  struct EpochInputs {
    std::map<std::string, std::string> documents;  ///< Worker id -> XML.
    std::vector<std::string> keys;  ///< Per transaction: the key it reads.
  };

  /// Keys of the embedded calls a transaction can read ("000", ...), or one
  /// empty key when documents have no calls.
  std::vector<std::string> Keys() const;
  EpochInputs GenerateInputs(int epoch);
  /// Builds, runs, checks and tears down one epoch; `max_txns` > 0 stops
  /// once the run has attempted that many transactions.
  axmlx::Status RunEpoch(int epoch, int max_txns);
  axmlx::Status SetUp(const EpochInputs& inputs, int epoch);
  axmlx::Status AddServices();
  axmlx::Status RunOne(const std::string& key);
  axmlx::Status EndEpoch(bool run_probes);
  void TearDown();

  axmlx::repo::AxmlRepository::PeerConfig ConfigFor(
      const std::string& id) const;
  std::string StoreDir(const std::string& id, int incarnation) const;
  axmlx::Status AttachStorage(const std::string& id,
                              const std::vector<std::string>& docs);
  /// Crash-stops `id` and drops its store object. `count` folds the
  /// victim's counters into the per-transaction totals first (a crash
  /// inside a timed transaction, not a probe).
  axmlx::Status CrashNow(const std::string& id, bool count);
  /// Rebuilds `id` from its WAL, its replica and the replica's services,
  /// then seeds a fresh store incarnation.
  axmlx::Status RestartNow(const std::string& id);
  axmlx::Status Checkpoint(const std::string& id);
  /// The native service behind every embedded axml:sc.
  axmlx::Result<axmlx::axml::ServiceResponse> Quote(
      const axmlx::axml::ServiceRequest& request);
  axmlx::axml::ServiceInvoker QuoteInvoker();

  /// Folds the WAL growth of `id`'s live store since the last call into
  /// totals (when `count`), or only moves the baseline.
  void AccountWal(const std::string& id, bool count);
  /// Folds a store's counters since seeding into totals.
  void AccountStore(const std::string& id);
  /// Folds a worker document's allocations since set-up into totals.
  void AccountDocument(const std::string& id);
  /// Folds a peer's protocol counters into totals (before it is destroyed).
  void AccountPeer(const std::string& id);

  void CheckEntries(const std::string& where);
  void CheckCopies();
  void Fail(const std::string& error);

  WorkloadSpec spec_;
  uint64_t seed_;
  std::string work_dir_;
  int epoch_ = 0;  ///< Index of the epoch being run (seeds its inputs).
  std::string epoch_dir_;
  Tracer* tracer_;
  Totals totals_;
  SpeedProbe probe_;  ///< Run after every set-up, transaction and probe.

  std::unique_ptr<axmlx::repo::AxmlRepository> repo_;
  std::unique_ptr<axmlx::overlay::FaultPlan> plan_;
  std::map<std::string, PeerStorage> storage_;
  std::vector<std::string> workers_;  ///< Every tree peer, origin first.
  std::vector<std::string> victims_;  ///< Workers other than the origin.
  std::map<std::string, std::pair<const void*, int64_t>> doc_base_;
  int64_t committed_in_epoch_ = 0;
  bool at_horizon_ = false;  ///< The overlay clock reached kClockHorizon.
  int64_t txn_ordinal_ = 0;
  int rotation_ = 0;
  axmlx::Status deferred_ = axmlx::Status::Ok();  ///< From scheduled events.
};

}  // namespace e2e

#endif  // E2E_BENCH_HARNESS_H_
