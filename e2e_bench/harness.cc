#include "harness.h"

#include <cstdio>
#include <filesystem>
#include <set>
#include <utility>

#include "common/rng.h"
#include "obs/metric_names.h"
#include "ops/operation.h"
#include "service/repository.h"
#include "txn/peer.h"
#include "xml/parser.h"

namespace e2e {

using axmlx::Result;
using axmlx::Status;
using axmlx::repo::AxmlRepository;
using axmlx::repo::TxnOutcome;

namespace fs = std::filesystem;

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = [] {
    std::vector<WorkloadSpec> out;
    WorkloadSpec small;
    small.name = "commit-small";
    small.prefill = 100;
    small.epoch_txns = 50;
    small.probes = 2;
    out.push_back(small);

    WorkloadSpec large;
    large.name = "commit-large";
    large.prefill = 4000;
    large.epoch_txns = 25;
    large.calls = 40;
    large.probes = 2;
    out.push_back(large);

    WorkloadSpec chaos;
    chaos.name = "chaos-recover";
    chaos.prefill = 1000;
    chaos.epoch_txns = 60;
    chaos.calls = 10;
    // Message loss is left out: with crashes it breaks atomicity and WAL
    // replay in the current code (see README.md), and a workload must
    // pass its own correctness gate.
    chaos.dup_rate = 0.05;
    chaos.partition_every = 3;
    chaos.crash_every = 4;
    chaos.checkpoint_every = 5;
    chaos.leaf_fault = 0.02;
    out.push_back(chaos);
    return out;
  }();
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

namespace {

constexpr char kOrigin[] = "P";
constexpr int kDepth = 2;
constexpr int kFanout = 3;
constexpr axmlx::overlay::Tick kServiceTicks = 5;

// Chaos timing, in simulated ticks after submission (the fault drill's).
constexpr axmlx::overlay::Tick kPartitionAt = 4;
constexpr axmlx::overlay::Tick kPartitionLength = 160;
constexpr axmlx::overlay::Tick kCrashAt = 6;
constexpr axmlx::overlay::Tick kRestartAfter = 80;

// RunUntilQuiescent() stops at simulated time 1,000,000. A transaction that
// leaves the clock this close to it ends its epoch.
constexpr axmlx::overlay::Tick kClockHorizon = 990'000;

// Transaction time spent warming up before measuring, and the first epoch
// index of the warm-up's inputs (far from the measured epochs' 0, 1, ...).
constexpr int64_t kWarmupNs = 1'000'000'000;
constexpr int kWarmupEpochs = 1 << 20;

uint64_t Fnv(uint64_t h, const std::string& s) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

uint64_t Mix(uint64_t seed, uint64_t epoch, const std::string& salt) {
  return Fnv(kFnvBasis ^ (seed * 0x9E3779B97F4A7C15ULL) ^ (epoch << 32),
             salt);
}

std::string Pad(int64_t value, int width) {
  std::string s = std::to_string(value);
  if (static_cast<int>(s.size()) < width) {
    s.insert(0, static_cast<size_t>(width) - s.size(), '0');
  }
  return s;
}

std::string DocName(const std::string& id) { return "Data" + id; }

bool IsLeaf(const std::string& id) {
  return static_cast<int>(id.size()) - 1 == kDepth;
}

std::vector<std::string> ChildrenOf(const std::string& id) {
  std::vector<std::string> out;
  if (IsLeaf(id)) return out;
  for (int i = 0; i < kFanout; ++i) out.push_back(id + std::to_string(i));
  return out;
}

/// Tree peers in depth-first order, origin first.
void CollectTree(const std::string& id, std::vector<std::string>* out) {
  out->push_back(id);
  for (const std::string& child : ChildrenOf(id)) CollectTree(child, out);
}

int64_t WalBytes(const std::string& dir) {
  int64_t total = 0;
  std::error_code ec;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec) &&
        entry.path().filename().string().rfind("wal", 0) == 0) {
      total += static_cast<int64_t>(entry.file_size(ec));
    }
  }
  return total;
}

int64_t CountEntries(const axmlx::xml::Document& doc) {
  int64_t count = 0;
  doc.Walk(doc.root(), [&count](const axmlx::xml::Node& n) {
    if (n.is_element() && n.name == "entry") ++count;
    return true;
  });
  return count;
}

std::map<std::string, int64_t> StoreCounters(
    const axmlx::storage::DurableStore& store) {
  std::map<std::string, int64_t> out =
      store.metrics().Snapshot().counters;
  out["wal_records"] = store.stats().wal_records;
  return out;
}

int64_t Get(const std::map<std::string, int64_t>& m, const std::string& key) {
  auto it = m.find(key);
  return it == m.end() ? 0 : it->second;
}

}  // namespace

/// The benchmark-owned WriteJournal: mirrors a peer's transactional writes
/// into its DurableStore, timing and checking every store call.
class Harness::Journal : public axmlx::txn::WriteJournal {
 public:
  Journal(axmlx::storage::DurableStore* store, Harness* harness)
      : store_(store), harness_(harness) {}

  void OnApply(const std::string& txn, const std::string& document,
               const std::vector<axmlx::ops::Operation>& ops) override {
    if (begun_.insert(txn).second) {
      if (!Call("storage.Begin", [&] { return store_->Begin(txn); })) {
        begun_.erase(txn);
        return;
      }
    }
    for (const axmlx::ops::Operation& op : ops) {
      Call("storage.Execute",
           [&] { return store_->Execute(txn, document, op).status(); });
    }
  }

  void OnResolved(const std::string& txn, bool committed) override {
    // Resolutions repeat (duplicate COMMITs, compensate-after-abort); only
    // the first one after journaled work reaches the store.
    if (begun_.erase(txn) == 0) return;
    if (committed) {
      Call("storage.Commit", [&] { return store_->Commit(txn); });
    } else {
      Call("storage.Abort", [&] { return store_->Abort(txn); });
    }
  }

  void OnDedup(const std::string& key) override {
    Call("storage.JournalDedupKey",
         [&] { return store_->JournalDedupKey(key); });
  }

  /// True when no journaled transaction is open (a checkpoint may run).
  bool idle() const { return begun_.empty(); }

 private:
  /// Runs one store call inside a span; a failure is a correctness error.
  template <typename Fn>
  bool Call(const char* span, Fn&& fn) {
    Status s = [&] {
      ScopedSpan timed(harness_->tracer_, span);
      return fn();
    }();
    if (!s.ok()) harness_->Fail(std::string(span) + ": " + s.ToString());
    return s.ok();
  }

  axmlx::storage::DurableStore* store_;
  Harness* harness_;
  std::set<std::string> begun_;
};

Harness::Harness(const WorkloadSpec& spec, uint64_t seed,
                 std::string work_dir, Tracer* tracer)
    : spec_(spec),
      seed_(seed),
      work_dir_(std::move(work_dir)),
      tracer_(tracer) {
  CollectTree(kOrigin, &workers_);
  for (const std::string& id : workers_) {
    if (id != kOrigin) victims_.push_back(id);
  }
}

Harness::~Harness() { TearDown(); }

void Harness::Fail(const std::string& error) {
  ++totals_.violations;
  if (totals_.errors.size() < 20) totals_.errors.push_back(error);
}

std::string Harness::StoreDir(const std::string& id, int incarnation) const {
  return epoch_dir_ + "/" + id + "-inc" + std::to_string(incarnation);
}

AxmlRepository::PeerConfig Harness::ConfigFor(const std::string& id) const {
  AxmlRepository::PeerConfig config;
  config.id = id;
  config.protocol = AxmlRepository::Protocol::kChained;
  // The fault drill's protocol options.
  config.options.peer_independent = true;
  config.options.use_chaining = true;
  config.options.keepalive_interval = 25;
  config.options.txn_timeout = 300;
  config.options.control_resend_interval = 20;
  config.seed = Mix(seed_, static_cast<uint64_t>(epoch_), id);
  return config;
}

Result<axmlx::axml::ServiceResponse> Harness::Quote(
    const axmlx::axml::ServiceRequest& request) {
  ScopedSpan span(tracer_, "service.Quote");
  std::string key;
  for (const auto& [name, value] : request.params) {
    if (name == "k") key = value;
  }
  if (key.empty()) return axmlx::ServiceFault("BadRequest: no key");
  const std::string tag = "q" + key;
  const std::string value = Pad(static_cast<int64_t>(Fnv(kFnvBasis, key) %
                                                     1000000),
                                6);
  AXMLX_ASSIGN_OR_RETURN(
      auto fragment,
      axmlx::xml::Parse("<r><" + tag + ">" + value + "</" + tag + "></r>"));
  axmlx::axml::ServiceResponse response;
  response.fragment = std::move(fragment);
  return response;
}

axmlx::axml::ServiceInvoker Harness::QuoteInvoker() {
  return [this](const axmlx::axml::ServiceRequest& request) {
    return Quote(request);
  };
}

Harness::EpochInputs Harness::GenerateInputs(int epoch) {
  EpochInputs inputs;
  axmlx::Rng rng(Mix(seed_, static_cast<uint64_t>(epoch), "inputs"));
  static constexpr char kAlphabet[] = "abcdefghijklmnopqrstuvwxyz0123456789";
  for (const std::string& id : workers_) {
    std::string doc = "<" + DocName(id) + ">";
    if (spec_.calls > 0) {
      doc += "<calls>";
      for (int c = 0; c < spec_.calls; ++c) {
        const std::string key = Pad(c, 3);
        doc += "<axml:sc mode=\"replace\" serviceURL=\"" + id +
               "\" methodName=\"Quote\" outputName=\"q" + key +
               "\"><axml:params><axml:param name=\"k\"><axml:value>" + key +
               "</axml:value></axml:param></axml:params><q" + key + ">" +
               Pad(static_cast<int64_t>(rng.Uniform(1000000)), 6) + "</q" +
               key + "></axml:sc>";
      }
      doc += "</calls>";
    }
    doc += "<log>";
    for (int i = 0; i < spec_.prefill; ++i) {
      std::string value(8, 'a');
      for (char& ch : value) ch = kAlphabet[rng.Uniform(sizeof(kAlphabet) - 1)];
      doc += "<entry n=\"" + Pad(i, 6) + "\" v=\"" + value + "\">w</entry>";
    }
    doc += "</log></" + DocName(id) + ">";
    totals_.input_fingerprint = Fnv(totals_.input_fingerprint, doc);
    inputs.documents[id] = std::move(doc);
  }
  const std::vector<std::string> keys = Keys();
  for (int t = 0; t < spec_.epoch_txns; ++t) {
    inputs.keys.push_back(keys[rng.Uniform(keys.size())]);
    totals_.input_fingerprint =
        Fnv(totals_.input_fingerprint, "S" + inputs.keys.back());
  }
  return inputs;
}

std::vector<std::string> Harness::Keys() const {
  std::vector<std::string> keys;
  for (int c = 0; c < spec_.calls; ++c) keys.push_back(Pad(c, 3));
  if (keys.empty()) keys.push_back("");
  return keys;
}

Status Harness::AddServices() {
  // The protocol forwards no per-transaction parameters to subcalls, so
  // each key the transactions can select gets its own service tree: "S<key>"
  // on every worker calls "S<key>" on its children. "A" is the abort probe:
  // the same work, and the last leaf always faults.
  const std::string last_leaf = workers_.back();
  for (const std::string& id : workers_) {
    const std::string doc = DocName(id);
    std::vector<std::pair<std::string, std::string>> trees;  // name, key
    for (const std::string& key : Keys()) trees.push_back({"S" + key, key});
    if (spec_.probes > 0) trees.push_back({"A", Keys().front()});
    for (const auto& [name, key] : trees) {
      axmlx::service::ServiceDefinition def;
      def.name = name;
      def.document = doc;
      def.duration = kServiceTicks;
      if (spec_.calls > 0) {
        // One lazy query: it materializes exactly the replace-mode call
        // whose output name the key selects, after discovering every call
        // in the document.
        def.ops.push_back(
            axmlx::ops::MakeQuery("Select d//q" + key + " from d in " + doc));
      }
      for (int i = 0; i < kInsertsPerService; ++i) {
        def.ops.push_back(axmlx::ops::MakeInsert(
            "Select l from l in " + doc + "/log",
            "<entry s=\"" + name + "\" n=\"" + std::to_string(i) +
                "\">w</entry>"));
      }
      for (const std::string& child : ChildrenOf(id)) {
        def.subcalls.push_back({child, name, {}, {}});
      }
      if (name == "A" && id == last_leaf) {
        def.fault_probability = 1.0;
        def.fault_name = "ProbeFault";
      } else if (name != "A" && IsLeaf(id) && spec_.leaf_fault > 0) {
        def.fault_probability = spec_.leaf_fault;
        def.fault_name = "LeafFault";
      }
      ScopedSpan span(tracer_, "repo.HostService");
      AXMLX_RETURN_IF_ERROR(repo_->HostService(id, std::move(def)));
    }
    if (spec_.calls > 0) {
      axmlx::service::ServiceDefinition quote;
      quote.name = "Quote";
      quote.native = QuoteInvoker();
      ScopedSpan span(tracer_, "repo.HostService");
      AXMLX_RETURN_IF_ERROR(repo_->HostService(id, std::move(quote)));
    }
  }
  return Status::Ok();
}

Status Harness::AttachStorage(const std::string& id,
                              const std::vector<std::string>& docs) {
  PeerStorage& ps = storage_[id];
  const std::string dir = StoreDir(id, ps.incarnation);
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) return axmlx::Internal("cannot create " + dir + ": " + ec.message());
  ps.store = std::make_unique<axmlx::storage::DurableStore>(dir, QuoteInvoker());
  {
    ScopedSpan span(tracer_, "storage.Open");
    AXMLX_RETURN_IF_ERROR(ps.store->Open());
  }
  for (const std::string& xml_text : docs) {
    ScopedSpan span(tracer_, "storage.CreateDocument");
    AXMLX_RETURN_IF_ERROR(ps.store->CreateDocument(xml_text));
  }
  ps.journal = std::make_unique<Journal>(ps.store.get(), this);
  axmlx::txn::AxmlPeer* peer = repo_->FindPeer(id);
  if (peer == nullptr) return axmlx::NotFound("no peer " + id + " to journal");
  peer->AttachJournal(ps.journal.get());
  ps.wal_seen = 0;
  AccountWal(id, /*count=*/false);
  ps.counters_base = StoreCounters(*ps.store);
  if (WalBytes(dir) == 0) {
    return axmlx::Internal("store " + dir + " wrote no WAL while seeding");
  }
  return Status::Ok();
}

Status Harness::SetUp(const EpochInputs& inputs, int epoch) {
  tracer_->SetContext(Phase::kSetup, -1);
  epoch_ = epoch;
  epoch_dir_ = work_dir_ + "/e" + std::to_string(epoch);
  const int64_t start = NowNs();
  std::error_code ec;
  fs::create_directories(epoch_dir_, ec);
  if (ec) {
    return axmlx::Internal("cannot create " + epoch_dir_ + ": " +
                           ec.message());
  }
  repo_ = std::make_unique<AxmlRepository>(
      Mix(seed_, static_cast<uint64_t>(epoch), "network"));
  repo_->SetForensicsDir(epoch_dir_ + "/forensics");
  repo_->network().SetLatency(/*base=*/1, /*jitter=*/2);
  for (const std::string& id : workers_) {
    {
      ScopedSpan span(tracer_, "repo.AddPeer");
      AXMLX_RETURN_IF_ERROR(repo_->AddPeer(ConfigFor(id)).status());
    }
    ScopedSpan span(tracer_, "xml.HostDocument");
    AXMLX_RETURN_IF_ERROR(repo_->HostDocument(id, inputs.documents.at(id)));
  }
  AXMLX_RETURN_IF_ERROR(AddServices());
  for (const std::string& id : workers_) {
    {
      ScopedSpan span(tracer_, "repo.AddPeer");
      AXMLX_RETURN_IF_ERROR(repo_->AddPeer(ConfigFor(id + "R")).status());
    }
    ScopedSpan span(tracer_, "repo.SetReplica");
    AXMLX_RETURN_IF_ERROR(repo_->SetReplica(id, id + "R"));
  }
  int64_t nodes = 0;
  for (const std::string& id : workers_) {
    const axmlx::xml::Document* doc =
        repo_->FindPeer(id)->repository().GetDocument(DocName(id));
    if (doc == nullptr) return axmlx::NotFound("no document on " + id);
    nodes += static_cast<int64_t>(doc->size());
    doc_base_[id] = {doc, doc->storage_stats().nodes_allocated};
    std::string text;
    {
      ScopedSpan span(tracer_, "xml.Serialize");
      text = doc->Serialize();
    }
    AXMLX_RETURN_IF_ERROR(AttachStorage(id, {text}));
  }
  plan_ = std::make_unique<axmlx::overlay::FaultPlan>(
      Mix(seed_, static_cast<uint64_t>(epoch), "faults"));
  if (spec_.dup_rate > 0) {
    axmlx::overlay::FaultRule rule;  // wildcard: every link, every type
    rule.dup_rate = spec_.dup_rate;
    plan_->AddRule(rule);
  }
  repo_->network().SetFaultPlan(plan_.get());
  const int64_t end = NowNs();
  totals_.setup_s.push_back(
      {start + (end - start) / 2, static_cast<double>(end - start) / 1e9});
  totals_.doc_nodes_start += nodes / static_cast<int64_t>(workers_.size());
  committed_in_epoch_ = 0;
  at_horizon_ = false;
  return Status::Ok();
}

void Harness::AccountWal(const std::string& id, bool count) {
  PeerStorage& ps = storage_[id];
  if (ps.store == nullptr) return;
  const int64_t size = WalBytes(StoreDir(id, ps.incarnation));
  if (count) totals_.wal_bytes += size - ps.wal_seen;
  ps.wal_seen = size;
}

void Harness::AccountStore(const std::string& id) {
  PeerStorage& ps = storage_[id];
  if (ps.store == nullptr) return;
  std::map<std::string, int64_t> now = StoreCounters(*ps.store);
  auto delta = [&](const std::string& key) {
    return Get(now, key) - Get(ps.counters_base, key);
  };
  totals_.wal_records += delta("wal_records");
  totals_.wal_flushes += delta(axmlx::obs::kMetricWalFlushes);
  totals_.nodes_allocated += delta(axmlx::obs::kMetricDocNodesAllocated);
  totals_.index_hits += delta(axmlx::obs::kMetricQueryIndexHits);
  totals_.index_candidates += delta(axmlx::obs::kMetricQueryIndexCandidates);
  totals_.walk_fallbacks += delta(axmlx::obs::kMetricQueryWalkFallbacks);
  ps.counters_base = std::move(now);
}

void Harness::AccountDocument(const std::string& id) {
  axmlx::txn::AxmlPeer* peer = repo_->FindPeer(id);
  if (peer == nullptr) return;
  const axmlx::xml::Document* doc =
      peer->repository().GetDocument(DocName(id));
  auto it = doc_base_.find(id);
  if (doc == nullptr || it == doc_base_.end() || it->second.first != doc) {
    return;
  }
  const int64_t now = doc->storage_stats().nodes_allocated;
  totals_.nodes_allocated += now - it->second.second;
  it->second.second = now;
}

void Harness::AccountPeer(const std::string& id) {
  axmlx::txn::AxmlPeer* peer = repo_->FindPeer(id);
  if (peer == nullptr) return;
  const axmlx::txn::PeerStats stats = peer->stats();
  totals_.compensations += stats.contexts_aborted + stats.compensations_executed;
  totals_.nodes_compensated += static_cast<int64_t>(stats.nodes_compensated);
  totals_.wasted_nodes += static_cast<int64_t>(stats.wasted_nodes);
  totals_.retries += stats.retries;
}

Status Harness::CrashNow(const std::string& id, bool count) {
  ScopedSpan span(tracer_, "bench.Crash");
  PeerStorage& ps = storage_[id];
  if (count) {
    AccountWal(id, /*count=*/true);
    AccountStore(id);
    AccountDocument(id);
    AccountPeer(id);
    totals_.wal_bytes_at_crash.push_back(
        WalBytes(StoreDir(id, ps.incarnation)));
  }
  {
    ScopedSpan crash(tracer_, "repo.CrashPeer");
    AXMLX_RETURN_IF_ERROR(repo_->CrashPeer(id));
  }
  // The process died: its store object dies with it. The WAL already on
  // disk is all that survives.
  ps.journal.reset();
  ps.store.reset();
  return Status::Ok();
}

Status Harness::RestartNow(const std::string& id) {
  const int64_t start = NowNs();
  ScopedSpan span(tracer_, "bench.Recover");
  PeerStorage& ps = storage_[id];
  std::vector<std::string> dedup_keys;
  std::map<std::string, bool> outcomes;
  axmlx::txn::AxmlPeer* peer = nullptr;
  {
    // Recovery proper: replay the crashed incarnation's WAL.
    axmlx::storage::DurableStore recovery(StoreDir(id, ps.incarnation),
                                          QuoteInvoker());
    {
      ScopedSpan open(tracer_, "storage.OpenReplay");
      Status s = recovery.Open();
      if (!s.ok()) {
        Fail("storage.OpenReplay " + id + ": " + s.ToString());
        return s;
      }
    }
    totals_.replayed_ops += recovery.stats().replayed_ops;
    dedup_keys = recovery.seen_dedup_keys();
    outcomes = recovery.resolved_outcomes();
    {
      ScopedSpan restart(tracer_, "repo.RestartPeer");
      AXMLX_ASSIGN_OR_RETURN(peer, repo_->RestartPeer(ConfigFor(id)));
    }
    ScopedSpan rehost(tracer_, "repo.Rehost");
    for (const std::string& name : recovery.DocumentNames()) {
      AXMLX_RETURN_IF_ERROR(
          peer->repository().AddDocument(recovery.Get(name)->Clone()));
    }
    // Service definitions are code, not volatile state: reinstall them
    // from the replica's mirror.
    axmlx::service::Repository* mirror =
        repo_->directory().MutableRepo(repo_->directory().ReplicaOf(id));
    if (mirror == nullptr) {
      return axmlx::FailedPrecondition("no replica mirror for " + id);
    }
    for (const std::string& name : mirror->ServiceNames()) {
      AXMLX_RETURN_IF_ERROR(
          peer->repository().AddService(*mirror->FindService(name)));
    }
  }
  {
    ScopedSpan resync(tracer_, "repo.ResyncFromReplica");
    AXMLX_ASSIGN_OR_RETURN(size_t nodes, repo_->ResyncFromReplica(id));
    totals_.resync_nodes += static_cast<int64_t>(nodes);
  }
  // A fresh durable incarnation seeded from the caught-up live state.
  ++ps.incarnation;
  std::vector<std::string> seeded;
  for (const std::string& name : peer->repository().DocumentNames()) {
    ScopedSpan serialize(tracer_, "xml.Serialize");
    seeded.push_back(peer->repository().GetDocument(name)->Serialize());
  }
  Status attached = AttachStorage(id, seeded);
  if (!attached.ok()) {
    Fail("storage seeding " + id + ": " + attached.ToString());
    return attached;
  }
  for (const std::string& key : dedup_keys) {
    peer->SeedDedupKey(key);
    ScopedSpan journal(tracer_, "storage.ReseedDedupKey");
    Status s = ps.store->JournalDedupKey(key);
    if (!s.ok()) {
      Fail("storage.JournalDedupKey " + id + ": " + s.ToString());
      return s;
    }
  }
  for (const auto& [txn, committed] : outcomes) {
    peer->SeedResolution(txn, committed);
    ScopedSpan journal(tracer_, "storage.SeedResolution");
    Status s = ps.store->SeedResolution(txn, committed);
    if (!s.ok()) {
      Fail("storage.SeedResolution " + id + ": " + s.ToString());
      return s;
    }
  }
  // Re-seeding is recovery work, not transaction work.
  AccountWal(id, /*count=*/false);
  ps.counters_base = StoreCounters(*ps.store);
  const axmlx::xml::Document* doc =
      peer->repository().GetDocument(DocName(id));
  if (doc != nullptr) {
    doc_base_[id] = {doc, doc->storage_stats().nodes_allocated};
  }
  ++totals_.restarts;
  const int64_t end = NowNs();
  totals_.recover_ms.push_back(
      {start + (end - start) / 2, static_cast<double>(end - start) / 1e6});
  return Status::Ok();
}

Status Harness::Checkpoint(const std::string& id) {
  PeerStorage& ps = storage_[id];
  // Checkpoint() requires every journaled transaction resolved; a store
  // that is down or mid-transaction skips its turn.
  if (ps.store == nullptr || !ps.journal->idle()) {
    ++totals_.checkpoints_skipped;
    return Status::Ok();
  }
  AccountWal(id, /*count=*/true);
  {
    ScopedSpan span(tracer_, "storage.Checkpoint");
    Status s = ps.store->Checkpoint();
    if (!s.ok()) {
      Fail("storage.Checkpoint " + id + ": " + s.ToString());
      return s;
    }
  }
  AccountWal(id, /*count=*/false);
  ++totals_.checkpoints;
  return Status::Ok();
}

void Harness::CheckEntries(const std::string& where) {
  const int64_t expected =
      spec_.prefill + committed_in_epoch_ * kInsertsPerService;
  for (const std::string& id : workers_) {
    axmlx::txn::AxmlPeer* peer = repo_->FindPeer(id);
    const axmlx::xml::Document* doc =
        peer == nullptr ? nullptr
                        : peer->repository().GetDocument(DocName(id));
    if (doc == nullptr) {
      Fail(where + ": peer " + id + " has no document");
      continue;
    }
    const int64_t entries = CountEntries(*doc);
    if (entries != expected) {
      Fail(where + ": peer " + id + " holds " + std::to_string(entries) +
           " entries, expected " + std::to_string(expected));
    }
    if (entries < spec_.prefill || entries > spec_.prefill + spec_.band()) {
      Fail(where + ": peer " + id + " left the working-set band with " +
           std::to_string(entries) + " entries");
    }
  }
}

void Harness::CheckCopies() {
  for (const std::string& id : workers_) {
    const std::string name = DocName(id);
    axmlx::txn::AxmlPeer* worker = repo_->FindPeer(id);
    axmlx::txn::AxmlPeer* replica = repo_->FindPeer(id + "R");
    axmlx::storage::DurableStore* store = storage_[id].store.get();
    const axmlx::xml::Document* w =
        worker == nullptr ? nullptr : worker->repository().GetDocument(name);
    const axmlx::xml::Document* r =
        replica == nullptr ? nullptr : replica->repository().GetDocument(name);
    const axmlx::xml::Document* s =
        store == nullptr ? nullptr : store->Get(name);
    if (w == nullptr || r == nullptr || s == nullptr) {
      Fail("copies of " + name + " are missing");
      continue;
    }
    const std::string text = w->Serialize();
    if (r->Serialize() != text) Fail("replica of " + name + " diverged");
    if (s->Serialize() != text) Fail("store copy of " + name + " diverged");
  }
}

Status Harness::RunOne(const std::string& key) {
  const int64_t t = txn_ordinal_++;
  const std::string txn = "T" + Pad(t, 6);
  axmlx::overlay::Network* net = &repo_->network();

  if (spec_.partition_every > 0 && (t + 1) % spec_.partition_every == 0) {
    // Split the overlay in two: origin plus every even-indexed worker (and
    // their replicas) on one side, the rest on the other.
    std::vector<std::string> near = {kOrigin, std::string(kOrigin) + "R"};
    std::vector<std::string> far;
    for (size_t i = 0; i < victims_.size(); ++i) {
      auto& side = i % 2 == 0 ? near : far;
      side.push_back(victims_[i]);
      side.push_back(victims_[i] + "R");
    }
    axmlx::overlay::FaultPlan* plan = plan_.get();
    net->ScheduleAfter(kPartitionAt,
                       [plan, near, far](axmlx::overlay::Network*) {
                         plan->Partition({near, far});
                       });
    net->ScheduleAfter(kPartitionAt + kPartitionLength,
                       [plan](axmlx::overlay::Network*) { plan->Heal(); });
  }
  if (spec_.checkpoint_every > 0 && (t + 1) % spec_.checkpoint_every == 0) {
    const std::string id =
        victims_[static_cast<size_t>(t / spec_.checkpoint_every) %
                 victims_.size()];
    net->ScheduleAfter(0, [this, id](axmlx::overlay::Network*) {
      Status s = Checkpoint(id);
      if (!s.ok() && deferred_.ok()) deferred_ = s;
    });
  }
  if (spec_.crash_every > 0 && (t + 1) % spec_.crash_every == 0) {
    const std::string id =
        victims_[static_cast<size_t>(rotation_++) % victims_.size()];
    net->ScheduleAfter(kCrashAt, [this, id](axmlx::overlay::Network*) {
      Status s = CrashNow(id, /*count=*/true);
      if (!s.ok() && deferred_.ok()) deferred_ = s;
    });
    net->ScheduleAfter(kCrashAt + kRestartAfter,
                       [this, id](axmlx::overlay::Network* n) {
                         if (!n->IsCrashed(id)) return;
                         Status s = RestartNow(id);
                         if (!s.ok() && deferred_.ok()) deferred_ = s;
                       });
  }

  tracer_->SetContext(Phase::kTxn, static_cast<int32_t>(t));
  const int64_t start = NowNs();
  Result<TxnOutcome> result = [&] {
    ScopedSpan span(tracer_, "repo.RunTransaction");
    return repo_->RunTransaction(kOrigin, txn, "S" + key);
  }();
  const int64_t elapsed = NowNs() - start;
  tracer_->SetContext(Phase::kCheck, -1);
  AXMLX_RETURN_IF_ERROR(deferred_);
  AXMLX_RETURN_IF_ERROR(result.status());
  const TxnOutcome& outcome = *result;

  ++totals_.attempted;
  totals_.timed_ns += elapsed;
  const Sample ms = {start + elapsed / 2, static_cast<double>(elapsed) / 1e6};
  totals_.txn_ms.push_back(ms);
  totals_.sim_ticks.push_back(outcome.duration);
  if (!outcome.decided) {
    ++totals_.undecided;
    Fail(txn + " reached quiescence undecided");
  } else if (outcome.status.ok()) {
    ++totals_.committed;
    ++committed_in_epoch_;
    totals_.commit_ms.push_back(ms);
  } else {
    ++totals_.aborted;
    totals_.abort_ms.push_back(ms);
    if (!spec_.chaos()) {
      Fail(txn + " aborted on a clean workload: " + outcome.status.ToString());
    }
  }

  for (const std::string& id : workers_) AccountWal(id, /*count=*/true);
  CheckEntries(txn);
  if (net->now() >= kClockHorizon) {
    // Nothing scheduled after this point would run: end the epoch.
    ++totals_.horizon_hits;
    at_horizon_ = true;
  }
  probe_.Run();
  return Status::Ok();
}

Status Harness::EndEpoch(bool run_probes) {
  tracer_->SetContext(Phase::kCheck, -1);
  int64_t nodes = 0;
  for (const std::string& id : workers_) {
    AccountStore(id);
    AccountDocument(id);
    axmlx::txn::AxmlPeer* peer = repo_->FindPeer(id);
    if (peer == nullptr) return axmlx::Internal("peer " + id + " is down");
    const axmlx::xml::Document* doc =
        peer->repository().GetDocument(DocName(id));
    if (doc != nullptr) nodes += static_cast<int64_t>(doc->size());
  }
  totals_.doc_nodes_end += nodes / static_cast<int64_t>(workers_.size());
  for (const std::string& id : repo_->network().peer_ids()) {
    AccountPeer(id);
    if (axmlx::txn::AxmlPeer* peer = repo_->FindPeer(id)) {
      totals_.pending_control_end +=
          static_cast<int64_t>(peer->PendingControlMessages());
    }
  }
  const axmlx::overlay::Network::Stats net = repo_->network().stats();
  totals_.messages_sent += net.messages_sent;
  totals_.messages_delivered += net.messages_delivered;
  totals_.sends_failed += net.sends_failed;
  totals_.forensic_dumps +=
      static_cast<int64_t>(repo_->forensic_paths().size());
  if (!spec_.chaos()) CheckCopies();
  if (!run_probes) return Status::Ok();

  // Probes: the abort and recovery paths on a workload whose timed
  // transactions never take them. Outside the timed region and the
  // per-transaction counters.
  tracer_->SetContext(Phase::kProbe, -1);
  for (int p = 0; p < spec_.probes; ++p) {
    const std::string victim =
        victims_[static_cast<size_t>(rotation_++) % victims_.size()];
    const std::string name = DocName(victim);
    const std::string before =
        repo_->FindPeer(victim)->repository().GetDocument(name)->Serialize();
    AXMLX_RETURN_IF_ERROR(CrashNow(victim, /*count=*/false));
    AXMLX_RETURN_IF_ERROR(RestartNow(victim));
    probe_.Run();
    const axmlx::xml::Document* after =
        repo_->FindPeer(victim)->repository().GetDocument(name);
    if (after == nullptr || after->Serialize() != before) {
      Fail("recovery probe on " + victim + " did not restore " + name);
    }
  }
  // One abort probe, last: an aborted transaction leaves the overlay clock
  // at the quiescence horizon, so nothing can run after it.
  const std::string txn = "A" + Pad(txn_ordinal_, 6);
  const int64_t start = NowNs();
  Result<TxnOutcome> result = [&] {
    ScopedSpan span(tracer_, "repo.RunTransaction");
    return repo_->RunTransaction(kOrigin, txn, "A");
  }();
  const int64_t end = NowNs();
  probe_.Run();
  const Sample ms = {start + (end - start) / 2,
                     static_cast<double>(end - start) / 1e6};
  AXMLX_RETURN_IF_ERROR(result.status());
  if (!result->decided || result->status.ok()) {
    Fail(txn + ": abort probe did not abort");
  } else {
    totals_.abort_ms.push_back(ms);
  }
  CheckEntries(txn + " (abort probe)");
  CheckCopies();
  return Status::Ok();
}

void Harness::TearDown() {
  // Peers hold raw journal pointers: the repository goes first, and the
  // network it owns points at the fault plan.
  repo_.reset();
  storage_.clear();
  plan_.reset();
  doc_base_.clear();
  if (!epoch_dir_.empty()) {
    std::error_code ec;
    fs::remove_all(epoch_dir_, ec);
    epoch_dir_.clear();
  }
}

Status Harness::RunEpoch(int epoch, int max_txns) {
  const EpochInputs inputs = GenerateInputs(epoch);
  Status status = SetUp(inputs, epoch);
  if (status.ok()) probe_.Run();
  for (int i = 0; status.ok() && !at_horizon_ && i < spec_.epoch_txns; ++i) {
    if (max_txns > 0 && totals_.attempted >= max_txns) break;
    status = RunOne(inputs.keys[static_cast<size_t>(i)]);
  }
  if (status.ok()) status = EndEpoch(spec_.probes > 0);
  TearDown();
  if (status.ok()) ++totals_.epochs;
  return status;
}

Status Harness::Run(const RunLimits& limits) {
  std::error_code ec;
  fs::remove_all(work_dir_, ec);
  const int64_t start = NowNs();
  // A safety stop well beyond the requested time, for a workload that is
  // far slower than it was sized for.
  const int64_t hard_stop =
      start + static_cast<int64_t>((limits.seconds * 3 + 30) * 1e9);
  Status status = Status::Ok();
  // Warm-up: whole epochs until kWarmupNs of transaction time has passed,
  // so caches, the allocator and the CPU clock settle. Its measurements and
  // spans are dropped; its correctness failures are kept.
  // Warm-up epochs draw their inputs from their own index range, and the
  // measured part restarts every schedule, so what is measured does not
  // depend on how long the warm-up took.
  for (int warm = kWarmupEpochs; status.ok() && totals_.timed_ns < kWarmupNs;
       ++warm) {
    status = RunEpoch(warm, /*max_txns=*/0);
  }
  Totals warm = std::move(totals_);
  totals_ = Totals();
  totals_.violations = warm.violations;
  totals_.errors = std::move(warm.errors);
  tracer_->Clear();
  probe_.Clear();
  txn_ordinal_ = 0;
  rotation_ = 0;
  int epoch = 0;
  while (status.ok()) {
    if (limits.max_epochs > 0 && totals_.epochs >= limits.max_epochs) break;
    status = RunEpoch(epoch++, limits.max_txns);
    if (!status.ok()) break;
    if (limits.max_txns > 0) {
      if (totals_.attempted >= limits.max_txns) break;
      continue;
    }
    if (limits.max_epochs == 0 &&
        static_cast<double>(totals_.timed_ns) >= limits.seconds * 1e9) {
      break;
    }
    if (NowNs() > hard_stop) {
      // Slow, not wrong: report what was measured so far.
      std::fprintf(stderr,
                   "e2e_txn_bench: time budget reached after %d epochs\n",
                   totals_.epochs);
      break;
    }
  }
  fs::remove_all(work_dir_, ec);
  return status;
}

}  // namespace e2e
