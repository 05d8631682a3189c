#ifndef AXMLX_TXN_DIRECTORY_H_
#define AXMLX_TXN_DIRECTORY_H_

#include <functional>
#include <map>
#include <string>
#include <utility>

#include "chain/active_chain.h"
#include "common/status.h"
#include "overlay/network.h"
#include "service/repository.h"

namespace axmlx::txn {

/// Simulator-level view of which peer hosts which services, which peers are
/// super peers, and which peer replicates which peer's documents.
///
/// Two uses:
/// - building the transaction's active-peer chain up front (§3.3 assumes the
///   full list `[AP1* -> AP2 -> ...]` is known and passed along with
///   invocations; with statically composed services the origin can derive it
///   from the service definitions);
/// - resolving replica peers for forward recovery ("retrying the invocation
///   using a replicated peer", §3.2) and for peer-independent compensation
///   after the original peer disconnected (§3.3).
class ServiceDirectory {
 public:
  /// Registers a peer's repository and super-peer flag. Not owned.
  void Register(const overlay::PeerId& peer, service::Repository* repo,
                bool super_peer);

  /// Removes a peer's entry (crash-stop: its repository is being destroyed
  /// and must not be handed out). Replica mappings are kept — they name
  /// peers, not repositories, and the crashed peer's replica stays useful.
  void Deregister(const overlay::PeerId& peer);

  /// Mutable repository access for simulator-level synchronous data-plane
  /// calls (embedded service calls whose serviceURL names another peer).
  service::Repository* MutableRepo(const overlay::PeerId& peer) const;

  /// Declares `replica` as hosting replicas of `original`'s documents and
  /// services.
  void SetReplica(const overlay::PeerId& original,
                  const overlay::PeerId& replica);

  /// Returns the replica of `original`, or an empty id.
  overlay::PeerId ReplicaOf(const overlay::PeerId& original) const;

  /// Called with (original, document) after every eager replica push, once
  /// the replica's copy of `document` is up to date. Lets tests check each
  /// push; survives peer restarts because peers share the directory.
  using ReplicaPushObserver =
      std::function<void(const overlay::PeerId&, const std::string&)>;
  void SetReplicaPushObserver(ReplicaPushObserver observer) {
    replica_push_observer_ = std::move(observer);
  }
  void NotifyReplicaPushed(const overlay::PeerId& original,
                           const std::string& document) const {
    if (replica_push_observer_) replica_push_observer_(original, document);
  }

  bool IsSuperPeer(const overlay::PeerId& peer) const;

  const service::ServiceDefinition* Lookup(const overlay::PeerId& peer,
                                           const std::string& service) const;

  /// Builds the full invocation tree for running `service` on `peer` by
  /// walking subcall definitions. Fails on unknown services or cyclic
  /// compositions deeper than 64 levels.
  Result<chain::ActivePeerChain> BuildChain(const overlay::PeerId& peer,
                                            const std::string& service) const;

 private:
  Result<chain::ChainNode> BuildNode(const overlay::PeerId& peer,
                                     const std::string& service,
                                     int depth) const;

  struct Entry {
    service::Repository* repo = nullptr;
    bool super_peer = false;
  };
  std::map<overlay::PeerId, Entry> entries_;
  std::map<overlay::PeerId, overlay::PeerId> replicas_;
  ReplicaPushObserver replica_push_observer_;
};

}  // namespace axmlx::txn

#endif  // AXMLX_TXN_DIRECTORY_H_
