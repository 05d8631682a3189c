#ifndef AXMLX_CHAIN_ACTIVE_CHAIN_H_
#define AXMLX_CHAIN_ACTIVE_CHAIN_H_

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "overlay/network.h"

namespace axmlx::chain {

/// The paper's "list of active peers" (§3.3): the transaction's invocation
/// tree annotated with super-peer marks, written
///   [AP1* -> AP2 -> [AP3 -> AP6] || [AP4 -> AP5]]
/// Passing this chain along with every invocation is the paper's mechanism
/// for efficient disconnection handling: any peer can find the parent,
/// children, siblings, ancestors, and nearest super peer of any other peer
/// without extra communication.
struct ChainNode {
  overlay::PeerId peer;
  bool super = false;
  std::string service;  ///< Service this peer executes (label only).
  std::vector<ChainNode> children;
};

/// Deepest chain Parse accepts: the root is level 1, and a node below
/// level kMaxChainDepth is a kParseError. A chain header comes from any
/// peer; the limit bounds the recursive walks over the tree built from it.
inline constexpr size_t kMaxChainDepth = 4096;

/// The chain is kept as its canonical wire text (DESIGN.md §3): a hop that
/// only passes the chain on forwards the text it received, byte for byte,
/// and never builds the tree. The ChainNode tree is built from the text on
/// the first topology query, which only the chaining and disconnection
/// paths make.
class ActivePeerChain {
 public:
  ActivePeerChain() = default;
  /// Writes the wire text of `root` once; `root` answers the queries. A
  /// root without a peer id is the empty chain.
  explicit ActivePeerChain(ChainNode root);

  bool empty() const { return text_ == "[]"; }

  /// The chain in the paper's bracket syntax, e.g.
  /// "[AP1* -> [AP2 -> [[AP3 -> [AP6]] || [AP4 -> [AP5]]]]]": children are
  /// always bracketed, `*` marks super peers, "[]" is the empty chain.
  const std::string& Serialize() const { return text_; }

  /// Parses the Serialize() syntax in one pass that builds no tree. Text
  /// already in canonical form is kept as it is; any other accepted
  /// spelling (extra or missing spaces, an empty ":" label) is kept as
  /// Serialize would write its tree. "" and "[]" are the empty chain.
  /// Nesting deeper than kMaxChainDepth is a kParseError.
  static Result<ActivePeerChain> Parse(const std::string& text);

  // --- Topology queries (all return empty/kNullId when `peer` is absent) --

  bool Contains(const overlay::PeerId& peer) const;

  /// Invoking peer of `peer`; empty for the root or unknown peers.
  overlay::PeerId ParentOf(const overlay::PeerId& peer) const;

  /// Peers whose services `peer` invoked.
  std::vector<overlay::PeerId> ChildrenOf(const overlay::PeerId& peer) const;

  /// Other children of `peer`'s parent.
  std::vector<overlay::PeerId> SiblingsOf(const overlay::PeerId& peer) const;

  /// Ancestors of `peer`, closest first (parent, grandparent, ..., root).
  /// §3.3(b): "AP6 can try the next closest peer (AP1)".
  std::vector<overlay::PeerId> AncestorsOf(const overlay::PeerId& peer) const;

  /// Closest super-peer ancestor of `peer` (may be `peer` itself), or empty.
  overlay::PeerId NearestSuperPeer(const overlay::PeerId& peer) const;

  /// All peers, pre-order.
  std::vector<overlay::PeerId> AllPeers() const;

  /// Subtree peers under (and including) `peer` — the descendants to notify
  /// in disconnection case (c).
  std::vector<overlay::PeerId> SubtreeOf(const overlay::PeerId& peer) const;

  /// Spheres-of-Atomicity check (§3.3, after [18]): atomicity "may still be
  /// guaranteed for a transaction if all the involved peers are super
  /// peers". True iff every peer in the chain is a super peer.
  bool AtomicityGuaranteed() const;

  /// All other peers of the chain ordered by tree distance from `peer`
  /// (parent and children first, then siblings/grandparents, then uncles,
  /// cousins, ...). Implements the paper's future-work extension of
  /// chaining "to uncles, cousins, etc." (§4): the order in which a peer
  /// should try collateral relatives once its direct relatives are gone.
  std::vector<overlay::PeerId> RelativesByDistance(
      const overlay::PeerId& peer) const;

 private:
  /// The tree of a non-empty chain, built from `text_` on first use.
  const ChainNode& Tree() const;
  const ChainNode* Find(const overlay::PeerId& peer) const;
  const ChainNode* FindParent(const overlay::PeerId& peer) const;

  std::string text_ = "[]";
  mutable std::optional<ChainNode> tree_;
};

}  // namespace axmlx::chain

#endif  // AXMLX_CHAIN_ACTIVE_CHAIN_H_
