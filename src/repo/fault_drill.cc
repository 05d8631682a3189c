#include "repo/fault_drill.h"

#include <filesystem>
#include <iostream>
#include <set>
#include <utility>

#include "obs/metric_names.h"
#include "repo/scenarios.h"

namespace axmlx::repo {
namespace {

/// WriteJournal adapter: mirrors a peer's transactional writes into its
/// durable store. The store keeps its *own* document copies (ids preserved
/// by cloning at seed time), journals every forward operation before
/// applying it, and on a final decision either commits or rolls back using
/// its own effect log — so a crash between any two steps recovers to a
/// consistent state from the WAL alone.
class StoreJournal : public txn::WriteJournal {
 public:
  /// `errors` (drill-registry-owned, outlives the journal) counts store
  /// operations that failed: the journal interface is fire-and-forget, but a
  /// WAL that diverges from the in-memory documents must not go unnoticed —
  /// the drill report surfaces the count and tests assert it is zero.
  StoreJournal(storage::DurableStore* store, obs::Counter* errors)
      : store_(store), errors_(errors) {}

  void OnApply(const std::string& txn, const std::string& document,
               const std::vector<ops::Operation>& ops) override {
    if (begun_.insert(txn).second) {
      if (!store_->Begin(txn).ok()) {
        begun_.erase(txn);
        ++*errors_;
        return;
      }
    }
    for (const ops::Operation& op : ops) {
      if (!store_->Execute(txn, document, op).ok()) ++*errors_;
    }
  }

  void OnResolved(const std::string& txn, bool committed) override {
    // Resolutions repeat (duplicate COMMITs, compensate-after-abort); only
    // the first one after journaled work does anything.
    if (begun_.erase(txn) == 0) return;
    Status s = committed ? store_->Commit(txn) : store_->Abort(txn);
    if (!s.ok()) ++*errors_;
  }

  void OnDedup(const std::string& key) override {
    if (!store_->JournalDedupKey(key).ok()) ++*errors_;
  }

 private:
  storage::DurableStore* store_;
  obs::Counter* errors_;
  std::set<std::string> begun_;
};

bool IsReplicaId(const overlay::PeerId& id) {
  return !id.empty() && id.back() == 'R';
}

size_t CountEntries(const xml::Document* doc) {
  size_t count = 0;
  doc->Walk(doc->root(), [&count](const xml::Node& n) {
    if (n.is_element() && n.name == "entry") ++count;
    return true;
  });
  return count;
}

}  // namespace

FaultDrill::FaultDrill(FaultDrillOptions options)
    : options_(std::move(options)) {}

FaultDrill::~FaultDrill() = default;

std::string FaultDrill::StoreDir(const overlay::PeerId& id,
                                 int incarnation) const {
  return storage_root_ + "/" + id + "-inc" + std::to_string(incarnation);
}

Status FaultDrill::AttachStorage(const overlay::PeerId& id,
                                 const std::vector<std::string>& docs) {
  PeerStorage& ps = storage_[id];
  ps.store = std::make_unique<storage::DurableStore>(
      StoreDir(id, ps.incarnation), /*invoker=*/nullptr);
  ps.store->AttachTimeline(&repo_->timeline());
  AXMLX_RETURN_IF_ERROR(ps.store->Open());
  // Post-Open: recovery replay stays synchronous; only live WAL traffic
  // goes through the pool.
  if (repo_->runtime() != nullptr) {
    ps.store->AttachRuntime(repo_->runtime(), id);
  }
  for (const std::string& xml_text : docs) {
    AXMLX_RETURN_IF_ERROR(ps.store->CreateDocument(xml_text));
  }
  ps.journal = std::make_unique<StoreJournal>(
      ps.store.get(), metrics_.GetCounter(obs::kMetricDrillJournalErrors));
  txn::AxmlPeer* peer = repo_->FindPeer(id);
  if (peer == nullptr) return NotFound("no peer " + id + " to journal");
  peer->AttachJournal(ps.journal.get());
  return Status::Ok();
}

Status FaultDrill::SetUp() {
  storage_root_ = options_.storage_dir.empty()
                      ? std::filesystem::temp_directory_path().string() +
                            "/axmlx_fault_drill_" +
                            std::to_string(options_.seed)
                      : options_.storage_dir;
  std::error_code ec;
  std::filesystem::remove_all(storage_root_, ec);  // stale WALs poison runs
  std::filesystem::create_directories(storage_root_, ec);
  if (ec) {
    return Internal("cannot create storage root " + storage_root_ + ": " +
                    ec.message());
  }

  repo_ = std::make_unique<AxmlRepository>(options_.seed);
  repo_->directory().SetReplicaPushObserver(options_.replica_push_observer);
  if (options_.runtime_workers >= 0) {
    runtime::JobQueueOptions rt;
    rt.workers = options_.runtime_workers;
    rt.seed = options_.runtime_seed;
    repo_->EnableRuntime(rt);
  }
  // Black boxes land next to the WALs they explain.
  repo_->SetForensicsDir(storage_root_ + "/forensics");
  repo_->network().SetLatency(/*base=*/1, /*jitter=*/2);
  // Per-phase txn.latency.* histograms land in the drill's registry, next
  // to the drill counters the report is assembled from.
  repo_->timeline().AttachMetrics(&metrics_);
  repo_->spans().AttachMetrics(&metrics_);

  ScenarioOptions scen;
  scen.protocol = AxmlRepository::Protocol::kChained;
  scen.peer_options.peer_independent = true;
  scen.peer_options.use_chaining = true;
  scen.peer_options.keepalive_interval = options_.keepalive_interval;
  scen.peer_options.txn_timeout = options_.txn_timeout;
  scen.peer_options.control_resend_interval =
      options_.control_resend_interval;
  scen.ops_per_service = options_.ops_per_service;
  scen.seed = options_.seed;
  AXMLX_RETURN_IF_ERROR(BuildUniformTree(repo_.get(), scen, options_.depth,
                                         options_.fanout, &origin_));

  workers_.clear();
  for (const overlay::PeerId& id : repo_->network().peer_ids()) {
    if (!IsReplicaId(id)) workers_.push_back(id);
  }
  // Replicas for every tree peer (BuildUniformTree has no add_replicas
  // path of its own): retry targets, compensation fallbacks, and the
  // resync source after a crash.
  for (const overlay::PeerId& id : workers_) {
    AxmlRepository::PeerConfig rc;
    rc.id = id + "R";
    rc.protocol = scen.protocol;
    rc.options = scen.peer_options;
    rc.seed = scen.seed ^ std::hash<std::string>{}(rc.id);
    AXMLX_RETURN_IF_ERROR(repo_->AddPeer(rc).status());
    AXMLX_RETURN_IF_ERROR(repo_->SetReplica(id, id + "R"));
  }

  for (const overlay::PeerId& id : workers_) {
    const xml::Document* doc = repo_->FindPeer(id)->repository().GetDocument(
        ScenarioDocName(id));
    if (doc == nullptr) return NotFound("no scenario doc on " + id);
    AXMLX_RETURN_IF_ERROR(AttachStorage(id, {doc->Serialize()}));
  }

  plan_ = std::make_unique<overlay::FaultPlan>(options_.seed ^ 0x5eedULL);
  if (options_.drop_rate > 0 || options_.dup_rate > 0 ||
      options_.misroute_rate > 0 || options_.delay_max > 0) {
    overlay::FaultRule rule;  // wildcard: every link, every type
    rule.drop_rate = options_.drop_rate;
    rule.dup_rate = options_.dup_rate;
    rule.misroute_rate = options_.misroute_rate;
    rule.delay_max = options_.delay_max;
    plan_->AddRule(rule);
  }
  repo_->network().SetFaultPlan(plan_.get());
  return Status::Ok();
}

Status FaultDrill::CrashNow(const overlay::PeerId& id) {
  AXMLX_RETURN_IF_ERROR(repo_->CrashPeer(id));
  // The process died: its store object (buffers, open handles) dies with
  // it. The WAL already on disk is all that survives.
  PeerStorage& ps = storage_[id];
  ps.journal.reset();
  ps.store.reset();
  ++*metrics_.GetCounter(obs::kMetricDrillCrashes);
  return Status::Ok();
}

Status FaultDrill::RestartNow(const overlay::PeerId& id) {
  PeerStorage& ps = storage_[id];
  std::vector<std::string> recovered_docs;
  std::vector<std::string> recovered_dedup_keys;
  std::map<std::string, bool> recovered_outcomes;
  {
    // Recovery proper: reopen the crashed incarnation's store. Open()
    // replays the WAL in order and rolls back transactions that were
    // in-flight at the crash — the peer's documents are rebuilt from this
    // and nothing else.
    storage::DurableStore recovery(StoreDir(id, ps.incarnation),
                                   /*invoker=*/nullptr);
    // Loser rollbacks during replay stamp RECOVERY markers into the open
    // transaction windows they interrupt.
    recovery.AttachTimeline(&repo_->timeline());
    AXMLX_RETURN_IF_ERROR(recovery.Open());
    *metrics_.GetCounter(obs::kMetricDrillWalReplayedOps) +=
        recovery.stats().replayed_ops;
    *metrics_.GetCounter(obs::kMetricDrillWalRecoveredTxns) +=
        recovery.stats().recovered_txns;
    for (const std::string& name : recovery.DocumentNames()) {
      recovered_docs.push_back(recovery.Get(name)->Serialize());
    }
    // The at-most-once window and decision map must survive the restart:
    // a control retransmission (e.g. COMPENSATE) that lands on the new
    // incarnation would otherwise be applied a second time.
    recovered_dedup_keys = recovery.seen_dedup_keys();
    recovered_outcomes = recovery.resolved_outcomes();

    AxmlRepository::PeerConfig config;
    config.id = id;
    config.protocol = AxmlRepository::Protocol::kChained;
    config.options = repo_->FindPeer(origin_)->options();
    config.seed = options_.seed ^ std::hash<std::string>{}(id);
    AXMLX_ASSIGN_OR_RETURN(txn::AxmlPeer * peer,
                           repo_->RestartPeer(config));

    for (const std::string& name : recovery.DocumentNames()) {
      AXMLX_RETURN_IF_ERROR(
          peer->repository().AddDocument(recovery.Get(name)->Clone()));
    }
    // Service definitions are code, not volatile state: reinstall them from
    // the replica's mirror (the simulator's stand-in for redeployment).
    overlay::PeerId replica = repo_->directory().ReplicaOf(id);
    service::Repository* mirror = repo_->directory().MutableRepo(replica);
    if (mirror == nullptr) {
      return FailedPrecondition("no replica mirror for " + id);
    }
    for (const std::string& name : mirror->ServiceNames()) {
      AXMLX_RETURN_IF_ERROR(
          peer->repository().AddService(*mirror->FindService(name)));
    }
  }

  // Distributed catch-up: transactions that committed while this peer was
  // down ran on (and were pushed to) its replica; diff-sync from it.
  AXMLX_ASSIGN_OR_RETURN(size_t nodes, repo_->ResyncFromReplica(id));
  *metrics_.GetCounter(obs::kMetricDrillResyncNodes) +=
      static_cast<int64_t>(nodes);
  ++*metrics_.GetCounter(obs::kMetricDrillRestarts);

  // Fresh durable incarnation seeded from the caught-up live state.
  ++ps.incarnation;
  std::vector<std::string> seeded;
  txn::AxmlPeer* peer = repo_->FindPeer(id);
  for (const std::string& name : peer->repository().DocumentNames()) {
    seeded.push_back(peer->repository().GetDocument(name)->Serialize());
  }
  AXMLX_RETURN_IF_ERROR(AttachStorage(id, seeded));
  // Rebuild the rebuilt peer's dedup window and decision map from the WAL,
  // and re-journal both into the new incarnation so a *second* crash still
  // has them.
  for (const std::string& key : recovered_dedup_keys) {
    peer->SeedDedupKey(key);
    AXMLX_RETURN_IF_ERROR(ps.store->JournalDedupKey(key));
  }
  for (const auto& [txn, committed] : recovered_outcomes) {
    peer->SeedResolution(txn, committed);
    AXMLX_RETURN_IF_ERROR(ps.store->SeedResolution(txn, committed));
  }
  return Status::Ok();
}

void FaultDrill::CheckInvariant(const std::string& txn,
                                FaultDrillReport* report) {
  const size_t expected = static_cast<size_t>(committed_so_far_) *
                          static_cast<size_t>(options_.ops_per_service);
  const int before = report->violations;
  overlay::PeerId first_bad;
  for (const overlay::PeerId& id : workers_) {
    txn::AxmlPeer* peer = repo_->FindPeer(id);
    if (peer == nullptr) continue;  // crashed and not restarted (shouldn't be)
    const xml::Document* doc =
        peer->repository().GetDocument(ScenarioDocName(id));
    if (doc == nullptr) continue;
    size_t entries = CountEntries(doc);
    if (entries != expected) {
      ++report->violations;
      if (first_bad.empty()) first_bad = id;
      if (report->violation_details.size() < 20) {
        report->violation_details.push_back(
            "after " + txn + ": peer " + id + " holds " +
            std::to_string(entries) + " entries, expected " +
            std::to_string(expected));
      }
    }
  }
  if (report->violations > before) {
    // Atomicity just broke: capture the black box while every involved
    // ring still holds the neighbourhood of the failure. `txn` carries a
    // " (verdict)" suffix for the human-readable details; the dump wants
    // the bare transaction name for span correlation.
    obs::ForensicDumpOptions dump;
    dump.reason = "atomicity-violation";
    dump.peer = first_bad;
    dump.txn = txn.substr(0, txn.find(' '));
    dump.time = repo_->network().now();
    repo_->DumpForensics(dump);
  }
}

Status FaultDrill::TamperWorkerDocument() {
  // Prefer a non-origin worker so the damage is remote from the submitter.
  overlay::PeerId victim = workers_.size() > 1 ? workers_[1] : workers_[0];
  txn::AxmlPeer* peer = repo_->FindPeer(victim);
  if (peer == nullptr) return NotFound("no peer " + victim + " to tamper");
  xml::Document* doc = peer->repository().GetDocument(ScenarioDocName(victim));
  if (doc == nullptr) return NotFound("no scenario doc on " + victim);
  repo_->recorders().ForPeer(victim)->Record(obs::kEvFrFault,
                                             "harness tamper: entries wiped");
  ops::Executor executor(doc, /*invoker=*/nullptr);
  AXMLX_RETURN_IF_ERROR(
      executor
          .Execute(ops::MakeDelete("Select e from e in " +
                                   ScenarioDocName(victim) + "//entry"))
          .status());
  tampered_ = true;
  return Status::Ok();
}

Result<FaultDrillReport> FaultDrill::Run() {
  AXMLX_RETURN_IF_ERROR(SetUp());
  FaultDrillReport report;
  // Per-transaction submit-to-decision time, in ticks. The bounds cover the
  // spread between clean commits (tens of ticks) and timeout-decided aborts.
  obs::Histogram* durations = metrics_.GetHistogram(
      obs::kMetricDrillTxnDurationTicks,
      {10, 25, 50, 100, 200, 400, 800, 1600, 3200});

  std::vector<overlay::PeerId> victims;
  for (const overlay::PeerId& id : workers_) {
    if (id != origin_) victims.push_back(id);
  }
  int crash_rotation = 0;
  overlay::Network* net = &repo_->network();

  for (int t = 0; t < options_.transactions; ++t) {
    const std::string txn = "T" + std::to_string(t);
    txn_names_.push_back(txn);

    if (options_.partition_every > 0 &&
        (t + 1) % options_.partition_every == 0) {
      // Split the overlay in two: origin plus every even-indexed worker
      // (and their replicas) on one side, the rest on the other.
      std::vector<overlay::PeerId> near = {origin_, origin_ + "R"};
      std::vector<overlay::PeerId> far;
      int i = 0;
      for (const overlay::PeerId& v : victims) {
        auto& side = (i++ % 2 == 0) ? near : far;
        side.push_back(v);
        side.push_back(v + "R");
      }
      overlay::FaultPlan* plan = plan_.get();
      net->ScheduleAfter(options_.partition_at,
                         [plan, near, far](overlay::Network*) {
                           plan->Partition({near, far});
                         });
      net->ScheduleAfter(options_.partition_at + options_.partition_length,
                         [plan](overlay::Network*) { plan->Heal(); });
    }

    if (options_.crash_every > 0 && (t + 1) % options_.crash_every == 0 &&
        !victims.empty()) {
      overlay::PeerId victim =
          victims[static_cast<size_t>(crash_rotation++) % victims.size()];
      // A refused scheduled crash/restart (peer already down, replica
      // missing, ...) is a harness defect, not a protocol outcome; the
      // defensive healing loop below retries restarts, so count and go on.
      net->ScheduleAfter(options_.crash_at,
                         [this, victim](overlay::Network*) {
                           if (!CrashNow(victim).ok()) {
                             ++*metrics_.GetCounter(
                                 obs::kMetricDrillHarnessErrors);
                           }
                         });
      net->ScheduleAfter(options_.crash_at + options_.restart_after,
                         [this, victim](overlay::Network*) {
                           if (!RestartNow(victim).ok()) {
                             ++*metrics_.GetCounter(
                                 obs::kMetricDrillHarnessErrors);
                           }
                         });
    }

    if (options_.debug) repo_->trace().Clear();
    AXMLX_ASSIGN_OR_RETURN(TxnOutcome outcome,
                           repo_->RunTransaction(origin_, txn, "S"));
    // A run cut off by the quiescence budget left a timer spinning; the
    // verdict below would blame the protocol for a harness liveness bug.
    if (outcome.budget_exhausted) {
      ++*metrics_.GetCounter(obs::kMetricDrillHarnessErrors);
    }
    durations->Observe(outcome.duration);
    std::string verdict;
    if (!outcome.decided) {
      ++*metrics_.GetCounter(obs::kMetricDrillUndecided);
      verdict = "undecided";
    } else if (outcome.status.ok()) {
      ++*metrics_.GetCounter(obs::kMetricDrillCommitted);
      ++committed_so_far_;
      verdict = "committed";
    } else {
      ++*metrics_.GetCounter(obs::kMetricDrillAborted);
      verdict = "aborted";
    }

    // Defensive post-txn healing; the scheduled events normally already ran
    // (quiescence drains them), so these are no-ops.
    plan_->Heal();
    for (const overlay::PeerId& v : victims) {
      if (net->IsCrashed(v)) AXMLX_RETURN_IF_ERROR(RestartNow(v));
    }
    if (!net->RunUntilQuiescent()) {
      ++*metrics_.GetCounter(obs::kMetricDrillHarnessErrors);
    }

    if (options_.force_violation && !tampered_ && committed_so_far_ > 0) {
      AXMLX_RETURN_IF_ERROR(TamperWorkerDocument());
    }

    CheckInvariant(txn + " (" + verdict + ")", &report);

    if (options_.debug) {
      std::cerr << "=== " << txn << " -> " << verdict << " ("
                << outcome.status << ")\n";
      for (const overlay::PeerId& id : workers_) {
        txn::AxmlPeer* peer = repo_->FindPeer(id);
        if (peer == nullptr) continue;
        const xml::Document* doc =
            peer->repository().GetDocument(ScenarioDocName(id));
        std::cerr << "  " << id << ": ctx=" << peer->HasContext(txn)
                  << " entries=" << (doc ? CountEntries(doc) : 0)
                  << " pending_control=" << peer->PendingControlMessages()
                  << "\n";
      }
      std::cerr << repo_->trace().ToString() << "\n";
    }
  }

  for (const overlay::PeerId& id : repo_->network().peer_ids()) {
    txn::AxmlPeer* peer = repo_->FindPeer(id);
    if (peer == nullptr) continue;
    report.pending_control += peer->PendingControlMessages();
    for (const std::string& txn : txn_names_) {
      if (peer->HasContext(txn)) ++report.dangling_contexts;
    }
  }
  // The report is a thin view over the registry; the registry itself stays
  // available (with the duration histogram) through metrics().
  report.committed = static_cast<int>(
      metrics_.GetCounter(obs::kMetricDrillCommitted)->value());
  report.aborted =
      static_cast<int>(metrics_.GetCounter(obs::kMetricDrillAborted)->value());
  report.undecided = static_cast<int>(
      metrics_.GetCounter(obs::kMetricDrillUndecided)->value());
  report.crashes =
      static_cast<int>(metrics_.GetCounter(obs::kMetricDrillCrashes)->value());
  report.restarts =
      static_cast<int>(metrics_.GetCounter(obs::kMetricDrillRestarts)->value());
  report.wal_replayed_ops =
      metrics_.GetCounter(obs::kMetricDrillWalReplayedOps)->value();
  report.wal_recovered_txns =
      metrics_.GetCounter(obs::kMetricDrillWalRecoveredTxns)->value();
  report.resync_nodes = static_cast<size_t>(
      metrics_.GetCounter(obs::kMetricDrillResyncNodes)->value());
  report.harness_errors = static_cast<int>(
      metrics_.GetCounter(obs::kMetricDrillHarnessErrors)->value());
  report.net = net->stats();
  report.final_time = net->now();
  report.faults = plan_->stats();
  report.journal_errors =
      metrics_.GetCounter(obs::kMetricDrillJournalErrors)->value();
  report.forensic_dumps = repo_->forensic_paths();
  return report;
}

}  // namespace axmlx::repo
