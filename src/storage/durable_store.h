#ifndef AXMLX_STORAGE_DURABLE_STORE_H_
#define AXMLX_STORAGE_DURABLE_STORE_H_

#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "axml/call_catalog.h"
#include "axml/materializer.h"
#include "common/status.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/timeline.h"
#include "ops/executor.h"
#include "ops/op_log.h"
#include "query/eval.h"
#include "xml/document.h"

namespace axmlx::storage {

/// Controls when buffered WAL records are flushed to the log file.
///
/// Group commit trades single-record durability for throughput without
/// weakening atomicity: records always reach the file in append order, and
/// a RESOLVED record forces a flush in every mode, so a transaction's OP
/// records are durable no later than its resolution. Losing buffered
/// records of an *unresolved* transaction in a crash is equivalent to
/// crashing before those operations ran — recovery compensates either way.
struct FlushPolicy {
  enum class Mode {
    kEveryRecord,  ///< Flush after each record (classic write-ahead; default).
    kEveryN,       ///< Flush when `n` records are buffered, and on resolve.
    kOnResolve,    ///< Flush only at txn resolution / checkpoint / close.
  };
  Mode mode = Mode::kEveryRecord;
  size_t n = 8;  ///< Batch size for kEveryN.

  static FlushPolicy EveryRecord() { return {}; }
  static FlushPolicy EveryN(size_t n) {
    return {Mode::kEveryN, n == 0 ? size_t{1} : n};
  }
  static FlushPolicy OnResolve() { return {Mode::kOnResolve, 8}; }
};

/// Durable document store for an AXML peer: the "D" of the paper's relaxed
/// ACID framework. Documents live in memory; every operation that applies
/// is recorded in a write-ahead log before its transaction resolves, and
/// `Checkpoint()` persists full snapshots and truncates the log.
///
/// Recovery follows the redo-then-compensate discipline that falls out of
/// the paper's compensation model (§3.1): on `Open()`, the last snapshot is
/// loaded and the WAL is replayed **in order** — regenerating each
/// record's effect log as it goes — after which transactions with no
/// RESOLVED record (in-flight at the crash) are rolled back by executing
/// their dynamically constructed compensating operations in reverse order.
/// A completed abort is itself durable: the compensating operations are
/// logged as ordinary operations before the transaction is RESOLVED.
///
/// What a peer journals are effect records (txn::WriteJournal): operations
/// whose target is an element path (ops::Operation::path), captured as each
/// edit was made. They apply through the executor's direct-target branch —
/// no query runs, no call catalog is read and the invoker is never called —
/// so replay repeats what the peer did even for a service that answers
/// differently each time, and a store seeded from the peer's text with
/// other node ids applies them all the same. Logical operations (a
/// `<location>` query) from other callers still execute, materializing
/// through the invoker.
///
/// WAL record grammar (one record per line, payloads newline-escaped):
///   BEGIN <txn> <version>
///   OP <txn> <doc> <operation-xml>
///                             -- <operation-xml> is Operation::ToXml: an
///                                effect record names its target with
///                                path="/Doc/log[0]" (a materialization:
///                                type="query", the axml:sc's path and its
///                                results as <data>); a logical operation
///                                with <location>; a compensating one with
///                                targetNode (and ids)
///   RESOLVED <txn> <C|A> <ops> <version>
///                             -- C = commit, A = abort whose compensation is
///                                fully journaled as OP records; <ops> is the
///                                number of OP records this txn appended to
///                                the current log segment (torn-tail check);
///                                <version> the store's logical clock
///   NEWDOC <document-xml>
///   DEDUP <key>               -- at-most-once message key (txn::Peer dedup
///                                window), replayed into seen_dedup_keys()
/// Legacy two-token BEGIN/RESOLVED records (pre-versioning) still parse.
///
/// A compensating insert's OP record carries the restored subtree's node
/// ids (Operation::ToXml), so replay re-attaches it under the ids it had
/// live; snapshots are id-exact too (kSnapshotHeader).
///
/// Checkpoints are epoch-switched, never in-place: epoch n writes
/// `snap_e<n>_<doc>.xml` + `wal_e<n>.log` and commits by atomically renaming
/// the manifest (first line `epoch <n>`). A crash anywhere during
/// checkpointing leaves either the old epoch fully intact or the new epoch
/// fully committed — the WAL can never replay over snapshots it does not
/// belong to. Epoch 0 uses the legacy names `snap_<doc>.xml` / `wal.log`.
class DurableStore {
 public:
  /// `directory` is created on Open() if missing. `invoker` resolves
  /// embedded service-call materializations of logical operations, during
  /// execution and during recovery replay (only a deterministic invoker
  /// replays them exactly; null forbids materialization). Effect records
  /// never call it. `flush_policy` selects the group-commit mode; the
  /// destructor flushes whatever is still buffered.
  DurableStore(std::string directory, axml::ServiceInvoker invoker,
               FlushPolicy flush_policy = FlushPolicy::EveryRecord());
  ~DurableStore();

  DurableStore(const DurableStore&) = delete;
  DurableStore& operator=(const DurableStore&) = delete;

  /// Loads snapshots, replays the WAL, compensates in-flight transactions.
  Status Open();

  /// Registers a new document (durable at the next checkpoint; its creation
  /// is also journaled so recovery can rebuild it from the WAL).
  Status CreateDocument(const std::string& xml_text);

  xml::Document* Get(const std::string& name);
  std::vector<std::string> DocumentNames() const;

  /// The call catalog the store's executors use for document `name`
  /// (DESIGN.md §8), created empty on first use; it follows a replaced or
  /// recovered document by its identity.
  axml::CallCatalog* Catalog(const std::string& name) {
    return &catalogs_[name];
  }

  // --- Transactional execution ---------------------------------------------

  /// Supplies a `$name` external service-call parameter for all future
  /// operations. Journaled ("EXT" record) so replay materializes with the
  /// same inputs.
  Status SetExternal(const std::string& name, const std::string& value);

  /// Starts transaction `txn` (journaled).
  Status Begin(const std::string& txn);

  /// Applies `op` against document `doc` under `txn`, then journals it. A
  /// failed operation (an effect record whose path does not resolve, among
  /// others) leaves the document untouched and journals nothing, so replay
  /// never re-runs it.
  Result<const ops::OpEffect*> Execute(const std::string& txn,
                                       const std::string& doc,
                                       const ops::Operation& op);

  /// Makes `txn` durable (journals RESOLVED).
  Status Commit(const std::string& txn);

  /// Rolls `txn` back by executing its compensating operations (journaled
  /// as ordinary operations), then journals RESOLVED.
  Status Abort(const std::string& txn);

  /// Writes snapshots of all documents into the next epoch and switches to
  /// it (atomic manifest rename = commit point), retiring the old WAL.
  Status Checkpoint();

  /// Flushes buffered WAL records to the log file (no-op when empty).
  Status FlushWal();

  // --- At-most-once support for txn::Peer ----------------------------------

  /// Durably journals a message-dedup key so the peer's at-most-once window
  /// survives crash-restart. Flushed with the normal group-commit policy:
  /// the key reaches disk no later than the resolution it guards (same
  /// batch ordering).
  Status JournalDedupKey(const std::string& key);

  /// Dedup keys recovered from the WAL on Open(), in journal order.
  [[nodiscard]] const std::vector<std::string>& seen_dedup_keys() const {
    return seen_dedup_keys_;
  }

  /// Journals a resolution outcome for a transaction that has no OP records
  /// in this store (e.g. a restarted peer re-seeding knowledge that `txn`
  /// was decided elsewhere). Replay-safe: the record carries 0 ops.
  Status SeedResolution(const std::string& txn, bool committed);

  /// Outcome (true = committed) of every transaction resolved in the
  /// current WAL segment, including outcomes recovered by replay.
  [[nodiscard]] const std::map<std::string, bool>& resolved_outcomes() const {
    return resolved_outcomes_;
  }

  // --- Crash injection (tests) ---------------------------------------------

  /// Where Checkpoint() simulates a crash (returns Internal and leaves the
  /// directory exactly as a real crash at that point would).
  enum class CrashPoint {
    kNone,
    kAfterSnapshots,  ///< New-epoch snapshots written; manifest not renamed.
    kAfterManifest,   ///< Manifest renamed; old-epoch files not yet removed.
  };
  void InjectCheckpointCrash(CrashPoint point) { crash_point_ = point; }

  [[nodiscard]] uint64_t epoch() const { return epoch_; }
  /// Logical clock: one tick per applied operation (restored by replay).
  [[nodiscard]] uint64_t clock() const { return clock_; }

  struct Stats {
    int64_t wal_records = 0;      ///< Records appended this session.
    int64_t replayed_ops = 0;     ///< Ops re-executed during Open().
    int64_t recovered_txns = 0;   ///< In-flight txns compensated on Open().
    int64_t checkpoints = 0;
  };
  const Stats& stats() const { return stats_; }

  /// Registry holding `wal.flushes` and `wal.records_batched`.
  const obs::MetricsRegistry& metrics() const { return metrics_; }

  /// Attaches this peer's flight recorder (not owned; null detaches). The
  /// store stamps WAL append/flush/checkpoint, recovery, and compensation
  /// events, and threads the recorder into the executors it creates so
  /// operation execution shows up in the same ring.
  void AttachRecorder(obs::FlightRecorder* recorder) { recorder_ = recorder; }

  /// Attaches the repository-wide phase timeline (not owned; null
  /// detaches). The store stamps zero-width WAL_APPEND / FLUSH_WAIT /
  /// RECOVERY markers at the timeline's convenience clock (the store is
  /// clock-less; the overlay keeps that clock at simulation time). Durable
  /// I/O takes zero simulated ticks, so these markers record occurrence
  /// rather than duration — see DESIGN.md §7.
  void AttachTimeline(obs::Timeline* timeline) { timeline_ = timeline; }

 private:
  struct TxnState {
    ops::OpLog effects;
    /// docs[i] names the document effects()[i] applied to.
    std::vector<std::string> docs;
    std::map<std::string, std::vector<size_t>> ops_by_doc;
    /// OP records this txn appended to the current WAL segment — both
    /// forward and journaled compensating ops. RESOLVED carries this count
    /// so replay can detect a torn tail (RESOLVED present, payload lost).
    size_t wal_ops = 0;
  };

  struct WalCounters {
    explicit WalCounters(obs::MetricsRegistry* metrics);
    obs::Counter& flushes;          ///< wal.flushes
    obs::Counter& records_batched;  ///< wal.records_batched
  };

  struct HotPathCounters {
    explicit HotPathCounters(obs::MetricsRegistry* metrics);
    obs::Counter& nodes_allocated;   ///< doc.nodes_allocated
    obs::Counter& index_hits;        ///< query.index_hits
    obs::Counter& index_candidates;  ///< query.index_candidates
    obs::Counter& walk_fallbacks;    ///< query.walk_fallbacks
  };

  /// Folds the since-last-publish deltas of the eval context's stats and
  /// the documents' storage stats into the metrics registry.
  void PublishHotPathCounters();

  /// Appends `record` to the WAL batch; flushes per policy. Pass
  /// `force_flush` for records that resolve a transaction.
  Status AppendWal(const std::string& record, bool force_flush = false);

  /// Appends the record "<tag> <txn> <doc> <operation-xml>" (an OP
  /// record), written into the batch in place; flushes per policy.
  Status AppendWal(std::string_view tag, const std::string& txn,
                   const std::string& doc, const ops::Operation& op);

  /// Ends the record just written to the batch (`kind` is its keyword)
  /// and flushes per policy.
  Status EndWalRecord(std::string_view kind, bool force_flush);

  Status ReplayWal();
  Status LoadSnapshots();
  Result<const ops::OpEffect*> ApplyOp(const std::string& txn,
                                       const std::string& doc,
                                       const ops::Operation& op);
  Status CompensateTxn(const std::string& txn, bool journal);

  /// Stamps a zero-width `phase` marker for `txn` at the timeline clock
  /// (no-op without an attached timeline).
  void MarkPhase(const std::string& txn, const char* phase);

  std::string directory_;
  axml::ServiceInvoker invoker_;
  FlushPolicy flush_policy_;
  std::map<std::string, std::string> externals_;
  std::map<std::string, std::unique_ptr<xml::Document>> documents_;
  std::map<std::string, axml::CallCatalog> catalogs_;
  std::map<std::string, TxnState> active_txns_;
  Stats stats_;
  obs::MetricsRegistry metrics_;
  WalCounters wal_counters_{&metrics_};
  HotPathCounters hot_counters_{&metrics_};
  /// Shared evaluation scratch for all operations this store applies; its
  /// cumulative stats are published as counter deltas.
  query::EvalContext eval_ctx_;
  query::EvalStats published_eval_stats_;
  int64_t published_nodes_allocated_ = 0;
  std::ofstream wal_;          ///< Kept open across appends; see Checkpoint().
  std::string wal_batch_;      ///< Serialized records awaiting flush.
  size_t batched_records_ = 0;
  bool open_ = false;
  obs::FlightRecorder* recorder_ = nullptr;
  obs::Timeline* timeline_ = nullptr;
  uint64_t epoch_ = 0;   ///< Current checkpoint epoch (manifest-committed).
  uint64_t clock_ = 0;   ///< Logical clock: ticks once per applied op.
  CrashPoint crash_point_ = CrashPoint::kNone;
  std::vector<std::string> seen_dedup_keys_;
  std::map<std::string, bool> resolved_outcomes_;
};

/// First token of an id-exact snapshot file. Such a file is one header line
///   #axmlx-ids next=<next id> <pre-order id list>
/// followed by the document's serialization (xml/id_codec.h), so a reload
/// keeps every node id and the id allocation counter. A file without the
/// header is a plain serialization (older snapshots) and parses with fresh
/// ids.
inline constexpr char kSnapshotHeader[] = "#axmlx-ids";

/// Snapshot file content for `doc`: id-exact, or a plain serialization when
/// the document has no exact text form (see xml::ExactIdsOf).
std::string EncodeSnapshot(const xml::Document& doc);

/// Rebuilds a document from EncodeSnapshot's output or from a plain
/// serialization. A malformed header or id list is an error.
Result<std::unique_ptr<xml::Document>> DecodeSnapshot(std::string_view text);

/// Newline/percent escaping for single-line WAL payloads.
std::string EncodeWalPayload(const std::string& raw);
std::string DecodeWalPayload(std::string_view encoded);

/// Append-into variant used by the record batcher to avoid a temporary.
void EncodeWalPayloadTo(const std::string& raw, std::string* out);

}  // namespace axmlx::storage

#endif  // AXMLX_STORAGE_DURABLE_STORE_H_
