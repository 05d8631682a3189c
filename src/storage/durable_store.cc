#include "storage/durable_store.h"

#include <dirent.h>
#include <sys/stat.h>
#include <sys/types.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <utility>

#include "compensation/compensation.h"
#include "obs/metric_names.h"
#include "xml/id_codec.h"
#include "xml/parser.h"

namespace axmlx::storage {

namespace {

// Epoch 0 keeps the legacy file names so existing directories open cleanly.
std::string WalPath(const std::string& directory, uint64_t epoch) {
  if (epoch == 0) return directory + "/wal.log";
  return directory + "/wal_e" + std::to_string(epoch) + ".log";
}
std::string ManifestPath(const std::string& directory) {
  return directory + "/manifest.txt";
}
std::string SnapshotPath(const std::string& directory, uint64_t epoch,
                         const std::string& doc) {
  if (epoch == 0) return directory + "/snap_" + doc + ".xml";
  return directory + "/snap_e" + std::to_string(epoch) + "_" + doc + ".xml";
}

/// True for WAL/snapshot files belonging to `epoch` (either naming scheme).
bool BelongsToEpoch(const std::string& file, uint64_t epoch) {
  std::string wal_prefix =
      epoch == 0 ? "wal." : "wal_e" + std::to_string(epoch) + ".";
  std::string snap_prefix =
      epoch == 0 ? "snap_" : "snap_e" + std::to_string(epoch) + "_";
  if (file.rfind(wal_prefix, 0) == 0) return true;
  if (file.rfind(snap_prefix, 0) == 0) {
    // Epoch-0 "snap_" must not claim "snap_e<n>_..." files.
    return epoch != 0 || file.rfind("snap_e", 0) != 0;
  }
  return false;
}

/// Removes WAL/snapshot files of every epoch except `keep` (best-effort):
/// leftovers from a checkpoint that crashed mid-switch, or the retired
/// epoch after a successful switch.
void SweepForeignEpochs(const std::string& directory, uint64_t keep) {
  DIR* dir = ::opendir(directory.c_str());
  if (dir == nullptr) return;
  std::vector<std::string> doomed;
  while (dirent* entry = ::readdir(dir)) {
    std::string name = entry->d_name;
    bool is_wal = name.rfind("wal", 0) == 0;
    bool is_snap = name.rfind("snap_", 0) == 0;
    if ((is_wal || is_snap) && name.find(".tmp") == std::string::npos &&
        !BelongsToEpoch(name, keep)) {
      doomed.push_back(name);
    }
  }
  ::closedir(dir);
  for (const std::string& name : doomed) {
    std::remove((directory + "/" + name).c_str());
  }
}

Status WriteFileAtomically(const std::string& path,
                           const std::string& content) {
  std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) return Internal("cannot write " + tmp);
    out << content;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Internal("cannot rename " + tmp + " to " + path);
  }
  return Status::Ok();
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return NotFound("cannot read " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

}  // namespace

std::string EncodeSnapshot(const xml::Document& doc) {
  std::vector<xml::NodeId> ids = xml::ExactIdsOf(doc);
  std::string out;
  if (!ids.empty()) {
    out = std::string(kSnapshotHeader) + " next=" +
          std::to_string(doc.next_id()) + " " + xml::EncodeIdList(ids) + "\n";
  }
  out += doc.Serialize();
  return out;
}

Result<std::unique_ptr<xml::Document>> DecodeSnapshot(std::string_view text) {
  if (text.substr(0, sizeof(kSnapshotHeader) - 1) != kSnapshotHeader) {
    // A snapshot written before ids were kept: still the store's own text,
    // read without a depth limit, as xml::DecodeDocument reads the others.
    xml::ParseOptions options;
    options.max_depth = std::numeric_limits<size_t>::max();
    return xml::Parse(text, options);
  }
  const size_t eol = text.find('\n');
  std::string_view header = text.substr(0, eol);
  header.remove_prefix(sizeof(kSnapshotHeader) - 1);
  const size_t sp = header.find(' ', 1);
  if (eol == std::string_view::npos ||
      header.substr(0, 6) != " next=" || sp == std::string_view::npos) {
    return ParseError("malformed snapshot header");
  }
  xml::NodeId next_id = 0;
  for (char c : header.substr(6, sp - 6)) {
    if (c < '0' || c > '9' || next_id > xml::kMaxExactId) {
      return ParseError("malformed snapshot next id");
    }
    next_id = next_id * 10 + static_cast<xml::NodeId>(c - '0');
  }
  return xml::DecodeDocument(text.substr(eol + 1), header.substr(sp + 1),
                             next_id);
}

void EncodeWalPayloadTo(const std::string& raw, std::string* out) {
  out->reserve(out->size() + raw.size());
  // Copy runs of ordinary characters in one append each.
  size_t run = 0;
  for (size_t i = 0; i < raw.size(); ++i) {
    const char* code;
    switch (raw[i]) {
      case '%':
        code = "%25";
        break;
      case '\n':
        code = "%0A";
        break;
      case '\r':
        code = "%0D";
        break;
      default:
        continue;
    }
    out->append(raw, run, i - run);
    out->append(code);
    run = i + 1;
  }
  out->append(raw, run, raw.size() - run);
}

std::string EncodeWalPayload(const std::string& raw) {
  std::string out;
  EncodeWalPayloadTo(raw, &out);
  return out;
}

std::string DecodeWalPayload(std::string_view encoded) {
  std::string out;
  out.reserve(encoded.size());
  // Copy runs between escapes in one append each; only %25, %0A and %0D
  // are escapes, any other '%' is literal.
  size_t run = 0;
  for (size_t i = encoded.find('%'); i != std::string_view::npos;
       i = encoded.find('%', i + 1)) {
    if (i + 2 >= encoded.size()) break;
    const std::string_view code = encoded.substr(i + 1, 2);
    char c;
    if (code == "25") {
      c = '%';
    } else if (code == "0A") {
      c = '\n';
    } else if (code == "0D") {
      c = '\r';
    } else {
      continue;
    }
    out.append(encoded, run, i - run);
    out.push_back(c);
    run = i + 3;
    i += 2;
  }
  out.append(encoded, run, encoded.size() - run);
  return out;
}

DurableStore::WalCounters::WalCounters(obs::MetricsRegistry* metrics)
    : flushes(*metrics->GetCounter(obs::kMetricWalFlushes)),
      records_batched(*metrics->GetCounter(obs::kMetricWalRecordsBatched)) {}

DurableStore::HotPathCounters::HotPathCounters(obs::MetricsRegistry* metrics)
    : nodes_allocated(*metrics->GetCounter(obs::kMetricDocNodesAllocated)),
      index_hits(*metrics->GetCounter(obs::kMetricQueryIndexHits)),
      index_candidates(*metrics->GetCounter(obs::kMetricQueryIndexCandidates)),
      walk_fallbacks(*metrics->GetCounter(obs::kMetricQueryWalkFallbacks)) {}

void DurableStore::PublishHotPathCounters() {
  const query::EvalStats& s = eval_ctx_.stats;
  hot_counters_.index_hits += s.index_hits - published_eval_stats_.index_hits;
  hot_counters_.index_candidates +=
      s.index_candidates - published_eval_stats_.index_candidates;
  hot_counters_.walk_fallbacks +=
      s.walk_fallbacks - published_eval_stats_.walk_fallbacks;
  published_eval_stats_ = s;
  int64_t allocated = 0;
  for (const auto& [name, doc] : documents_) {
    allocated += doc->storage_stats().nodes_allocated;
  }
  hot_counters_.nodes_allocated += allocated - published_nodes_allocated_;
  published_nodes_allocated_ = allocated;
}

DurableStore::DurableStore(std::string directory, axml::ServiceInvoker invoker,
                           FlushPolicy flush_policy)
    : directory_(std::move(directory)),
      invoker_(std::move(invoker)),
      flush_policy_(flush_policy) {}

DurableStore::~DurableStore() {
  // Best-effort durability for records still buffered under kEveryN /
  // kOnResolve; a real crash would lose them, which recovery tolerates.
  (void)FlushWal();
}

Status DurableStore::Open() {
  if (open_) return FailedPrecondition("store is already open");
  ::mkdir(directory_.c_str(), 0755);
  AXMLX_RETURN_IF_ERROR(LoadSnapshots());
  // Files of any other epoch are dead weight: either a checkpoint crashed
  // after writing next-epoch snapshots but before committing the manifest,
  // or it committed and crashed before removing the retired epoch.
  SweepForeignEpochs(directory_, epoch_);
  AXMLX_RETURN_IF_ERROR(ReplayWal());
  open_ = true;
  if (recorder_ != nullptr && stats_.replayed_ops > 0) {
    recorder_->Record(obs::kEvFrRecovery, "wal replayed", /*span=*/0,
                      stats_.replayed_ops);
  }
  // Roll back transactions that were in flight at the crash: execute their
  // dynamically constructed compensating operations (journaled, so a crash
  // during recovery re-converges) and resolve them.
  std::vector<std::string> losers;
  for (const auto& [txn, state] : active_txns_) losers.push_back(txn);
  for (const std::string& txn : losers) {
    if (recorder_ != nullptr) {
      recorder_->Record(obs::kEvFrRecovery, txn);
    }
    MarkPhase(txn, obs::kPhaseRecovery);
    AXMLX_RETURN_IF_ERROR(CompensateTxn(txn, /*journal=*/true));
    TxnState& state = active_txns_[txn];
    AXMLX_RETURN_IF_ERROR(AppendWal(
        "RESOLVED " + txn + " A " + std::to_string(state.wal_ops) + " " +
            std::to_string(clock_),
        /*force_flush=*/true));
    resolved_outcomes_[txn] = false;
    active_txns_.erase(txn);
    ++stats_.recovered_txns;
  }
  // Loading and replay allocate nodes outside any transaction: publish them
  // now, so they are not counted with the first one that follows.
  PublishHotPathCounters();
  return Status::Ok();
}

Status DurableStore::LoadSnapshots() {
  if (!FileExists(ManifestPath(directory_))) return Status::Ok();
  AXMLX_ASSIGN_OR_RETURN(std::string manifest,
                         ReadFile(ManifestPath(directory_)));
  std::istringstream lines(manifest);
  std::string name;
  bool first = true;
  while (std::getline(lines, name)) {
    if (name.empty()) continue;
    if (first) {
      first = false;
      // New manifests lead with "epoch <n>"; legacy manifests are epoch 0
      // and their first line is already a document name.
      if (name.rfind("epoch ", 0) == 0) {
        epoch_ = std::stoull(name.substr(6));
        continue;
      }
    }
    AXMLX_ASSIGN_OR_RETURN(std::string text,
                           ReadFile(SnapshotPath(directory_, epoch_, name)));
    AXMLX_ASSIGN_OR_RETURN(auto doc, DecodeSnapshot(text));
    documents_[name] = std::move(doc);
  }
  return Status::Ok();
}

Status DurableStore::ReplayWal() {
  if (!FileExists(WalPath(directory_, epoch_))) return Status::Ok();
  AXMLX_ASSIGN_OR_RETURN(std::string wal,
                         ReadFile(WalPath(directory_, epoch_)));
  // Records are parsed as views into the file; only payloads that carry
  // escapes are copied out.
  const std::string_view text = wal;
  for (size_t begin = 0, eol; begin < text.size(); begin = eol + 1) {
    eol = text.find('\n', begin);
    if (eol == std::string_view::npos) eol = text.size();
    const std::string_view line = text.substr(begin, eol - begin);
    if (line.empty()) continue;
    const size_t sp1 = line.find(' ');
    const std::string_view kind = line.substr(0, sp1);
    const std::string_view rest =
        sp1 == std::string_view::npos ? std::string_view() : line.substr(sp1 + 1);
    if (kind == "BEGIN") {
      // "BEGIN <txn> <version>"; legacy form has no version. Nothing reads
      // the version back.
      active_txns_.try_emplace(std::string(rest.substr(0, rest.find(' '))));
    } else if (kind == "RESOLVED") {
      // "RESOLVED <txn> <C|A> <ops> <version>"; legacy form is just <txn>.
      std::istringstream fields{std::string(rest)};
      std::string txn, outcome, ops_text, version_text;
      fields >> txn >> outcome >> ops_text >> version_text;
      if (!outcome.empty()) {
        size_t expected = std::stoull(ops_text);
        auto it = active_txns_.find(txn);
        size_t replayed = it == active_txns_.end() ? 0 : it->second.wal_ops;
        if (replayed != expected) {
          // The group-commit contract is that a RESOLVED record is durable
          // no earlier than the OP records it covers. Seeing it with part
          // of its payload missing means the log tail was torn (partial
          // batch write, or replay over the wrong snapshot epoch) — the
          // document state replay built is not the state that committed.
          return Internal("torn WAL: txn " + txn + " resolved with " +
                          ops_text + " ops but " + std::to_string(replayed) +
                          " replayed");
        }
        resolved_outcomes_[txn] = outcome == "C";
        if (!version_text.empty()) {
          clock_ = std::max<uint64_t>(clock_, std::stoull(version_text));
        }
      }
      active_txns_.erase(txn);
    } else if (kind == "DEDUP") {
      seen_dedup_keys_.push_back(DecodeWalPayload(rest));
    } else if (kind == "EXT") {
      size_t sp2 = rest.find(' ');
      if (sp2 == std::string_view::npos) {
        return Internal("malformed WAL EXT record: " + std::string(line));
      }
      externals_[std::string(rest.substr(0, sp2))] =
          DecodeWalPayload(rest.substr(sp2 + 1));
    } else if (kind == "NEWDOC") {
      std::string decoded;
      std::string_view xml_text = rest;
      if (rest.find('%') != std::string_view::npos) {
        decoded = DecodeWalPayload(rest);
        xml_text = decoded;
      }
      AXMLX_ASSIGN_OR_RETURN(auto doc, xml::Parse(xml_text));
      std::string name = doc->Find(doc->root())->name;
      if (documents_.count(name) == 0) documents_[name] = std::move(doc);
    } else if (kind == "OP") {
      size_t sp2 = rest.find(' ');
      size_t sp3 = sp2 == std::string_view::npos ? sp2 : rest.find(' ', sp2 + 1);
      if (sp3 == std::string_view::npos) {
        return Internal("malformed WAL OP record: " + std::string(line));
      }
      const std::string txn(rest.substr(0, sp2));
      const std::string doc(rest.substr(sp2 + 1, sp3 - sp2 - 1));
      AXMLX_ASSIGN_OR_RETURN(
          ops::Operation op,
          ops::Operation::FromXml(DecodeWalPayload(rest.substr(sp3 + 1))));
      active_txns_[txn].wal_ops++;  // counts OP records for the torn-tail
                                    // check; also tolerates OP before BEGIN
      auto applied = ApplyOp(txn, doc, op);
      if (!applied.ok()) {
        return Internal("WAL replay failed for txn " + txn + ": " +
                        applied.status().message());
      }
      ++stats_.replayed_ops;
    } else {
      return Internal("unknown WAL record: " + std::string(line));
    }
  }
  return Status::Ok();
}

Status DurableStore::FlushWal() {
  if (wal_batch_.empty()) return Status::Ok();
  if (!wal_.is_open()) {
    wal_.open(WalPath(directory_, epoch_), std::ios::app);
    if (!wal_) return Internal("cannot open WAL for append");
  }
  wal_.write(wal_batch_.data(),
             static_cast<std::streamsize>(wal_batch_.size()));
  wal_.flush();
  if (!wal_) return Internal("cannot append to WAL");
  int64_t flushed = static_cast<int64_t>(batched_records_);
  wal_batch_.clear();
  batched_records_ = 0;
  ++wal_counters_.flushes;
  if (recorder_ != nullptr) {
    recorder_->Record(obs::kEvFrWalFlush, {}, /*span=*/0, flushed);
  }
  return Status::Ok();
}

Status DurableStore::AppendWal(const std::string& record, bool force_flush) {
  wal_batch_.append(record);
  return EndWalRecord(std::string_view(record).substr(0, record.find(' ')),
                      force_flush);
}

Status DurableStore::AppendWal(std::string_view tag, const std::string& txn,
                               const std::string& doc,
                               const ops::Operation& op) {
  wal_batch_.append(tag).append(" ").append(txn).append(" ");
  wal_batch_.append(doc).append(" ");
  EncodeWalPayloadTo(op.ToXml(), &wal_batch_);
  return EndWalRecord(tag, /*force_flush=*/false);
}

Status DurableStore::EndWalRecord(std::string_view kind, bool force_flush) {
  wal_batch_.push_back('\n');
  ++batched_records_;
  ++stats_.wal_records;
  ++wal_counters_.records_batched;
  if (recorder_ != nullptr) {
    // `what` is the record's keyword ("BEGIN", "OP", "RESOLVED", ...) —
    // no allocation on the append hot path.
    recorder_->Record(obs::kEvFrWalAppend, kind, /*span=*/0,
                      static_cast<int64_t>(batched_records_));
  }
  bool flush_now = force_flush;
  switch (flush_policy_.mode) {
    case FlushPolicy::Mode::kEveryRecord:
      flush_now = true;
      break;
    case FlushPolicy::Mode::kEveryN:
      flush_now = flush_now || batched_records_ >= flush_policy_.n;
      break;
    case FlushPolicy::Mode::kOnResolve:
      break;
  }
  return flush_now ? FlushWal() : Status::Ok();
}

Status DurableStore::CreateDocument(const std::string& xml_text) {
  if (!open_) return FailedPrecondition("store is not open");
  AXMLX_ASSIGN_OR_RETURN(auto doc, xml::Parse(xml_text));
  std::string name = doc->Find(doc->root())->name;
  if (documents_.count(name) > 0) {
    return AlreadyExists("document " + name + " already exists");
  }
  // Parsing is deterministic: replaying the caller's text rebuilds the
  // document with the ids it has here.
  AXMLX_RETURN_IF_ERROR(AppendWal("NEWDOC " + EncodeWalPayload(xml_text)));
  documents_[name] = std::move(doc);
  PublishHotPathCounters();
  return Status::Ok();
}

xml::Document* DurableStore::Get(const std::string& name) {
  auto it = documents_.find(name);
  return it == documents_.end() ? nullptr : it->second.get();
}

std::vector<std::string> DurableStore::DocumentNames() const {
  std::vector<std::string> names;
  for (const auto& [name, doc] : documents_) names.push_back(name);
  return names;
}

Status DurableStore::SetExternal(const std::string& name,
                                 const std::string& value) {
  if (!open_) return FailedPrecondition("store is not open");
  AXMLX_RETURN_IF_ERROR(
      AppendWal("EXT " + name + " " + EncodeWalPayload(value)));
  externals_[name] = value;
  return Status::Ok();
}

Status DurableStore::Begin(const std::string& txn) {
  if (!open_) return FailedPrecondition("store is not open");
  if (active_txns_.count(txn) > 0) {
    return AlreadyExists("transaction " + txn + " is already active");
  }
  AXMLX_RETURN_IF_ERROR(
      AppendWal("BEGIN " + txn + " " + std::to_string(clock_)));
  active_txns_.try_emplace(txn);
  return Status::Ok();
}

Result<const ops::OpEffect*> DurableStore::ApplyOp(const std::string& txn,
                                                   const std::string& doc,
                                                   const ops::Operation& op) {
  xml::Document* target = Get(doc);
  if (target == nullptr) return NotFound("unknown document " + doc);
  ops::Executor executor(target, invoker_);
  executor.SetEvalContext(&eval_ctx_);
  executor.SetCallCatalog(Catalog(doc));
  executor.SetRecorder(recorder_);
  for (const auto& [name, value] : externals_) {
    executor.SetExternal(name, value);
  }
  AXMLX_ASSIGN_OR_RETURN(ops::OpEffect effect, executor.Execute(op));
  ++clock_;
  PublishHotPathCounters();
  TxnState& state = active_txns_[txn];
  state.ops_by_doc[doc].push_back(state.effects.size());
  state.docs.push_back(doc);
  state.effects.Append(std::move(effect));
  return &state.effects.effects().back();
}

Result<const ops::OpEffect*> DurableStore::Execute(const std::string& txn,
                                                   const std::string& doc,
                                                   const ops::Operation& op) {
  if (!open_) return FailedPrecondition("store is not open");
  if (active_txns_.count(txn) == 0) {
    return FailedPrecondition("transaction " + txn + " is not active");
  }
  // Apply, then log: an operation that fails (malformed payload, unknown
  // target) must leave no OP record for replay to trip over. The record
  // still precedes the transaction's RESOLVED record, and an applied but
  // unlogged operation is lost with the in-memory state in a crash.
  AXMLX_ASSIGN_OR_RETURN(const ops::OpEffect* effect, ApplyOp(txn, doc, op));
  MarkPhase(txn, obs::kPhaseWalAppend);
  // The record is batched even when its flush fails, so it counts toward
  // the RESOLVED op total either way.
  Status logged = AppendWal("OP", txn, doc, op);
  active_txns_[txn].wal_ops++;
  AXMLX_RETURN_IF_ERROR(logged);
  return effect;
}

Status DurableStore::Commit(const std::string& txn) {
  auto it = active_txns_.find(txn);
  if (it == active_txns_.end()) {
    return NotFound("transaction " + txn + " is not active");
  }
  MarkPhase(txn, obs::kPhaseFlushWait);
  AXMLX_RETURN_IF_ERROR(AppendWal(
      "RESOLVED " + txn + " C " + std::to_string(it->second.wal_ops) + " " +
          std::to_string(clock_),
      /*force_flush=*/true));
  resolved_outcomes_[txn] = true;
  active_txns_.erase(it);
  return Status::Ok();
}

Status DurableStore::CompensateTxn(const std::string& txn, bool journal) {
  TxnState& state = active_txns_[txn];
  const std::vector<ops::OpEffect>& effects = state.effects.effects();
  for (size_t i = effects.size(); i > 0; --i) {
    const std::string& doc = state.docs[i - 1];
    comp::CompensationPlan plan =
        comp::CompensationBuilder::ForEffect(effects[i - 1]);
    for (const ops::Operation& comp_op : plan.operations) {
      if (journal) {
        AXMLX_RETURN_IF_ERROR(AppendWal("OP", txn, doc, comp_op));
        state.wal_ops++;
      }
      xml::Document* target = Get(doc);
      if (target == nullptr) return NotFound("unknown document " + doc);
      if (recorder_ != nullptr) {
        recorder_->Record(obs::kEvFrCompStep, txn, /*span=*/0,
                          static_cast<int64_t>(i - 1));
      }
      ops::Executor executor(target, invoker_);
      executor.SetEvalContext(&eval_ctx_);
      executor.SetCallCatalog(Catalog(doc));
      executor.SetRecorder(recorder_);
      AXMLX_RETURN_IF_ERROR(executor.Execute(comp_op).status());
    }
  }
  PublishHotPathCounters();
  return Status::Ok();
}

Status DurableStore::Abort(const std::string& txn) {
  if (active_txns_.count(txn) == 0) {
    return NotFound("transaction " + txn + " is not active");
  }
  AXMLX_RETURN_IF_ERROR(CompensateTxn(txn, /*journal=*/true));
  MarkPhase(txn, obs::kPhaseFlushWait);
  AXMLX_RETURN_IF_ERROR(AppendWal(
      "RESOLVED " + txn + " A " +
          std::to_string(active_txns_[txn].wal_ops) + " " +
          std::to_string(clock_),
      /*force_flush=*/true));
  resolved_outcomes_[txn] = false;
  active_txns_.erase(txn);
  return Status::Ok();
}

void DurableStore::MarkPhase(const std::string& txn, const char* phase) {
  if (timeline_ == nullptr) return;
  timeline_->Mark(txn, phase, timeline_->now());
}

Status DurableStore::JournalDedupKey(const std::string& key) {
  if (!open_) return FailedPrecondition("store is not open");
  AXMLX_RETURN_IF_ERROR(AppendWal("DEDUP " + EncodeWalPayload(key)));
  seen_dedup_keys_.push_back(key);
  return Status::Ok();
}

Status DurableStore::SeedResolution(const std::string& txn, bool committed) {
  if (!open_) return FailedPrecondition("store is not open");
  if (active_txns_.count(txn) > 0) {
    return FailedPrecondition("transaction " + txn + " is active here");
  }
  AXMLX_RETURN_IF_ERROR(AppendWal(
      "RESOLVED " + txn + std::string(committed ? " C" : " A") + " 0 " +
          std::to_string(clock_),
      /*force_flush=*/true));
  resolved_outcomes_[txn] = committed;
  return Status::Ok();
}

Status DurableStore::Checkpoint() {
  if (!open_) return FailedPrecondition("store is not open");
  if (!active_txns_.empty()) {
    return FailedPrecondition(
        "checkpoint requires all transactions resolved");
  }
  // Epoch switch. The old scheme overwrote the shared-name snapshot files
  // and truncated the WAL afterwards; a crash between those steps replayed
  // the old WAL over the *new* snapshots, double-applying every resolved
  // transaction. Writing the new epoch beside the old one and committing
  // via a single atomic manifest rename removes that window: before the
  // rename the old epoch (snapshots + WAL) is authoritative and intact;
  // after it the new epoch is, and its WAL is empty by construction.
  const uint64_t next = epoch_ + 1;
  std::string manifest = "epoch " + std::to_string(next) + "\n";
  for (const auto& [name, doc] : documents_) {
    AXMLX_RETURN_IF_ERROR(WriteFileAtomically(
        SnapshotPath(directory_, next, name), EncodeSnapshot(*doc)));
    manifest += name + "\n";
  }
  if (crash_point_ == CrashPoint::kAfterSnapshots) {
    return Internal("injected crash after snapshots");
  }
  // Buffered records describe effects the new snapshots already contain.
  // Close the old append stream before the switch; it reopens lazily on
  // the next flush, against the new epoch's (empty) log.
  wal_batch_.clear();
  batched_records_ = 0;
  if (wal_.is_open()) wal_.close();
  AXMLX_RETURN_IF_ERROR(WriteFileAtomically(WalPath(directory_, next), ""));
  AXMLX_RETURN_IF_ERROR(
      WriteFileAtomically(ManifestPath(directory_), manifest));
  if (crash_point_ == CrashPoint::kAfterManifest) {
    epoch_ = next;
    return Internal("injected crash after manifest");
  }
  SweepForeignEpochs(directory_, next);
  epoch_ = next;
  ++stats_.checkpoints;
  if (recorder_ != nullptr) {
    recorder_->Record(obs::kEvFrCheckpoint, {}, /*span=*/0,
                      static_cast<int64_t>(documents_.size()));
  }
  return Status::Ok();
}

}  // namespace axmlx::storage
