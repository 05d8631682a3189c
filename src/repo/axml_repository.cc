#include "repo/axml_repository.h"

#include <sys/stat.h>
#include <sys/types.h>

#include <fstream>
#include <utility>

#include "recovery/chained_peer.h"
#include "recovery/recovering_peer.h"
#include "xml/diff.h"
#include "xml/parser.h"

namespace axmlx::repo {

LocalTransaction::LocalTransaction(xml::Document* doc,
                                   axml::ServiceInvoker invoker)
    : executor_(doc, std::move(invoker)) {}

void LocalTransaction::SetExternal(const std::string& name,
                                   const std::string& value) {
  executor_.SetExternal(name, value);
}

Result<const ops::OpEffect*> LocalTransaction::Execute(
    const ops::Operation& op) {
  if (!active_) {
    return FailedPrecondition("transaction is no longer active");
  }
  AXMLX_ASSIGN_OR_RETURN(ops::OpEffect effect, executor_.Execute(op));
  log_.Append(std::move(effect));
  return &log_.effects().back();
}

Status LocalTransaction::Commit() {
  if (!active_) return FailedPrecondition("transaction is no longer active");
  active_ = false;
  log_.Clear();
  return Status::Ok();
}

Status LocalTransaction::Abort() {
  if (!active_) return FailedPrecondition("transaction is no longer active");
  active_ = false;
  comp::CompensationPlan plan = comp::CompensationBuilder::ForLog(log_);
  return comp::ApplyPlan(&executor_, plan);
}

comp::CompensationPlan LocalTransaction::PendingCompensation() const {
  return comp::CompensationBuilder::ForLog(log_);
}

AxmlRepository::AxmlRepository(uint64_t seed) {
  network_ = std::make_unique<overlay::Network>(seed, &trace_);
  network_->SetRecorders(&recorders_);
  // The overlay learns the txn-layer header key here so it can charge
  // in-flight messages to the right transaction window.
  network_->SetTimeline(&timeline_, txn::kHdrTxn);
  spans_.AttachRecorders(&recorders_);
}

std::unique_ptr<txn::AxmlPeer> AxmlRepository::MakePeer(
    const PeerConfig& config) {
  switch (config.protocol) {
    case Protocol::kBaseline:
      return std::make_unique<txn::AxmlPeer>(config.id, config.super_peer,
                                             config.seed, config.options,
                                             &directory_);
    case Protocol::kRecovering:
      return std::make_unique<recovery::RecoveringPeer>(
          config.id, config.super_peer, config.seed, config.options,
          &directory_);
    case Protocol::kChained:
      return std::make_unique<recovery::ChainedPeer>(
          config.id, config.super_peer, config.seed, config.options,
          &directory_);
  }
  return nullptr;
}

Result<txn::AxmlPeer*> AxmlRepository::AddPeer(const PeerConfig& config) {
  if (FindPeer(config.id) != nullptr) {
    return AlreadyExists("peer " + config.id + " already exists");
  }
  std::unique_ptr<txn::AxmlPeer> peer = MakePeer(config);
  txn::AxmlPeer* raw = peer.get();
  raw->AttachSpans(&spans_);
  raw->AttachRecorder(recorders_.ForPeer(config.id));
  raw->AttachTimeline(&timeline_);
  directory_.Register(config.id, &raw->repository(), config.super_peer);
  network_->AddPeer(std::move(peer));
  peers_.push_back(raw);
  return raw;
}

Status AxmlRepository::CrashPeer(const overlay::PeerId& id) {
  txn::AxmlPeer* peer = FindPeer(id);
  if (peer == nullptr) return NotFound("unknown peer " + id);
  // Deregister before the repository object dies with the peer.
  directory_.Deregister(id);
  AXMLX_RETURN_IF_ERROR(network_->Crash(id));
  for (auto it = peers_.begin(); it != peers_.end(); ++it) {
    if (*it == peer) {
      peers_.erase(it);
      break;
    }
  }
  obs::ForensicDumpOptions dump;
  dump.reason = "crash";
  dump.peer = id;
  dump.time = network_->now();
  DumpForensics(dump);
  return Status::Ok();
}

Result<txn::AxmlPeer*> AxmlRepository::RestartPeer(const PeerConfig& config) {
  if (!network_->IsCrashed(config.id)) {
    return FailedPrecondition("peer " + config.id + " is not crashed");
  }
  std::unique_ptr<txn::AxmlPeer> peer = MakePeer(config);
  txn::AxmlPeer* raw = peer.get();
  raw->AttachSpans(&spans_);
  raw->AttachRecorder(recorders_.ForPeer(config.id));
  raw->AttachTimeline(&timeline_);
  directory_.Register(config.id, &raw->repository(), config.super_peer);
  AXMLX_RETURN_IF_ERROR(network_->Restart(std::move(peer)));
  peers_.push_back(raw);
  return raw;
}

txn::AxmlPeer* AxmlRepository::FindPeer(const overlay::PeerId& id) {
  for (txn::AxmlPeer* p : peers_) {
    if (p->id() == id) return p;
  }
  return nullptr;
}

Status AxmlRepository::HostDocument(const overlay::PeerId& peer,
                                    const std::string& xml_text) {
  txn::AxmlPeer* p = FindPeer(peer);
  if (p == nullptr) return NotFound("unknown peer " + peer);
  AXMLX_ASSIGN_OR_RETURN(auto doc, xml::Parse(xml_text));
  return p->repository().AddDocument(std::move(doc));
}

Status AxmlRepository::HostService(const overlay::PeerId& peer,
                                   service::ServiceDefinition service) {
  txn::AxmlPeer* p = FindPeer(peer);
  if (p == nullptr) return NotFound("unknown peer " + peer);
  return p->repository().AddService(std::move(service));
}

Status AxmlRepository::SetReplica(const overlay::PeerId& original,
                                  const overlay::PeerId& replica) {
  txn::AxmlPeer* orig = FindPeer(original);
  txn::AxmlPeer* rep = FindPeer(replica);
  if (orig == nullptr || rep == nullptr) {
    return NotFound("unknown peer in replica mapping");
  }
  // Clone the documents (replication of "AXML documents ... on multiple
  // peers", §1) and mirror the service definitions. Each copy is a tracked
  // replica copy, so the original's first push ships only what changed
  // since (DESIGN.md §8).
  for (const std::string& name : orig->repository().DocumentNames()) {
    xml::Document* doc = orig->repository().GetDocument(name);
    AXMLX_RETURN_IF_ERROR(
        rep->repository().AddDocument(doc->CloneForReplica()));
  }
  for (const std::string& name : orig->repository().ServiceNames()) {
    if (rep->repository().FindService(name) != nullptr) continue;
    AXMLX_RETURN_IF_ERROR(
        rep->repository().AddService(*orig->repository().FindService(name)));
  }
  directory_.SetReplica(original, replica);
  return Status::Ok();
}

Result<size_t> AxmlRepository::ResyncFromReplica(const overlay::PeerId& peer) {
  txn::AxmlPeer* original = FindPeer(peer);
  if (original == nullptr) return NotFound("unknown peer " + peer);
  overlay::PeerId replica_id = directory_.ReplicaOf(peer);
  if (replica_id.empty()) {
    return FailedPrecondition("peer " + peer + " has no replica");
  }
  txn::AxmlPeer* replica = FindPeer(replica_id);
  if (replica == nullptr) return NotFound("unknown replica " + replica_id);
  size_t total = 0;
  for (const std::string& name : original->repository().DocumentNames()) {
    xml::Document* mine = original->repository().GetDocument(name);
    const xml::Document* theirs = replica->repository().GetDocument(name);
    if (theirs == nullptr) continue;  // never replicated
    AXMLX_ASSIGN_OR_RETURN(xml::DocumentDiff diff,
                           xml::SyncDocument(mine, *theirs));
    if (diff.ops.empty()) {
      // Nothing to copy proves the two copies equal node for node: the
      // peer's next push can ship only what changes from here on instead
      // of a full copy.
      mine->TrackSyncedReplica(*theirs);
    }
    total += diff.NodesAffected();
  }
  return total;
}

Result<TxnOutcome> AxmlRepository::RunTransaction(
    const overlay::PeerId& origin, const std::string& txn,
    const std::string& service, const txn::Params& params) {
  txn::AxmlPeer* p = FindPeer(origin);
  if (p == nullptr) return NotFound("unknown peer " + origin);
  TxnOutcome outcome;
  overlay::Tick start = network_->now();
  int64_t messages_before = network_->stats().messages_sent;
  overlay::Network* net = network_.get();
  AXMLX_RETURN_IF_ERROR(p->Submit(
      net, txn, service, params,
      [&outcome, net, start](const std::string&, Status status) {
        outcome.decided = true;
        outcome.status = std::move(status);
        outcome.duration = net->now() - start;  // time-to-decision
      }));
  outcome.budget_exhausted = !network_->RunUntilQuiescent();
  if (!outcome.decided) outcome.duration = network_->now() - start;
  outcome.messages = network_->stats().messages_sent - messages_before;
  if (!outcome.decided) {
    outcome.status = Timeout("transaction " + txn +
                             " reached quiescence without a decision");
  }
  if (!outcome.status.ok()) {
    // Abort cascade (or a stuck transaction): capture the black box while
    // the involved peers' rings still hold the failure neighbourhood.
    obs::ForensicDumpOptions dump;
    dump.reason = outcome.decided ? "abort-cascade" : "undecided";
    dump.peer = origin;
    dump.txn = txn;
    dump.time = network_->now();
    DumpForensics(dump);
  }
  return outcome;
}

std::string AxmlRepository::DumpForensics(
    const obs::ForensicDumpOptions& options) {
  last_forensic_dump_ = obs::BuildForensicDump(recorders_, options, &spans_);
  if (forensics_dir_.empty()) return std::string();
  ::mkdir(forensics_dir_.c_str(), 0755);
  std::string path = forensics_dir_ + "/forensic-" +
                     std::to_string(++dump_counter_) + "-" + options.reason +
                     ".json";
  std::ofstream out(path, std::ios::trunc);
  if (!out) return std::string();
  out << last_forensic_dump_;
  forensic_paths_.push_back(path);
  return path;
}

}  // namespace axmlx::repo
