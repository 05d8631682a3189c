#ifndef AXMLX_TXN_PAYLOAD_H_
#define AXMLX_TXN_PAYLOAD_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "compensation/compensation.h"
#include "overlay/network.h"
#include "overlay/stream.h"

namespace axmlx::txn {

/// Message types used by the transactional protocol. Every constant here
/// must have a dispatch arm in AxmlPeer::OnMessage (lint rule R1); peers
/// must never compare `message.type` against a raw string literal.
inline constexpr char kMsgInvoke[] = "INVOKE";
inline constexpr char kMsgResult[] = "RESULT";
inline constexpr char kMsgAbort[] = "ABORT";
inline constexpr char kMsgCommit[] = "COMMIT";
inline constexpr char kMsgCompensate[] = "COMPENSATE";
inline constexpr char kMsgCompAck[] = "COMP_ACK";
inline constexpr char kMsgNotifyDisconnect[] = "NOTIFY_DISCONNECT";
/// STREAM is the overlay data-plane heartbeat and is owned by
/// overlay/stream.h; aliased here (not redeclared) so the publisher and the
/// txn dispatcher cannot drift apart.
inline constexpr const char* kMsgStream = overlay::kStreamMessage;
/// Delivery acknowledgement for control messages sent with an "rsvp"
/// header (at-least-once control delivery under fault injection). The ACK
/// echoes the message's "dedup" key in its "ack_of" header.
inline constexpr char kMsgAck[] = "ACK";

/// Protocol header names. Shared constants rather than string literals at
/// each call site: a sender writing "ack-of" while the receiver reads
/// "ack_of" would silently disable control-channel retransmission cleanup.
inline constexpr char kHdrTxn[] = "txn";
inline constexpr char kHdrService[] = "service";
inline constexpr char kHdrFault[] = "fault";
inline constexpr char kHdrFailedService[] = "failed_service";
inline constexpr char kHdrChain[] = "chain";
inline constexpr char kHdrRsvp[] = "rsvp";
inline constexpr char kHdrDedup[] = "dedup";
inline constexpr char kHdrAckOf[] = "ack_of";
inline constexpr char kHdrRedirectFor[] = "redirect_for";
inline constexpr char kHdrDisconnected[] = "disconnected";
inline constexpr char kHdrOk[] = "ok";
/// Sender's causal span id, carried on INVOKE and COMPENSATE so the
/// receiver's span parents into the caller's — the cross-peer invocation
/// tree (paper Figures 1/2) reconstructs from these links.
inline constexpr char kHdrSpan[] = "span";

using Params = std::vector<std::pair<std::string, std::string>>;

/// Encodes invocation parameters as the body of an INVOKE message
/// ("<params><param name="k">v</param>...</params>").
std::string EncodeParams(const Params& params);

/// Reverses EncodeParams by scanning the body directly. Each value is its
/// element's text exactly, entities unescaped and whitespace kept, so a
/// remote service substitutes the same `${k}` a local invocation would.
/// Whitespace between tags is allowed; anything else besides `<param>`
/// elements holding only text is malformed (kParseError). An empty body
/// decodes to no parameters.
Result<Params> DecodeParams(const std::string& body);

/// One participant's compensating-service definition (§3.2, peer
/// independent compensation): the plan that undoes `peer`'s work on
/// `document`. Shipped upward with results so that the recovering peer can
/// invoke compensation directly on original peers (or on a replica of the
/// document if the original disconnected).
struct ParticipantPlan {
  overlay::PeerId peer;
  std::string document;
  comp::CompensationPlan plan;
  size_t nodes = 0;
};

/// Attachment of a RESULT message: the invocation results plus recovery
/// metadata aggregated over the subtree that produced them.
struct ResultPayload {
  std::string service;
  overlay::PeerId executed_by;
  std::string fragment_xml;

  /// Peers that did work for this subtree (executed_by + descendants).
  std::vector<overlay::PeerId> participants;

  /// Compensating-service definitions for the subtree; empty unless
  /// peer-independent compensation is enabled.
  std::vector<ParticipantPlan> plans;

  /// Total nodes affected in this subtree (the paper's cost measure).
  size_t subtree_nodes_affected = 0;
};

/// Attachment of an INVOKE message carrying already-completed subcall
/// results (§3.3(b): "it might be possible to reuse AP6's work by passing
/// the materialized results directly while invoking S3 on APX"). The
/// receiving peer marks matching subcall edges done without re-invoking.
struct ReusedResults {
  std::map<std::string, std::shared_ptr<const ResultPayload>> by_service;
};

/// Attachment of a COMPENSATE message: execute `plan` against `document`.
/// "The original peers do not even need to be aware that the services they
/// are executing are, basically, compensating services." (§3.2)
struct CompensatePayload {
  std::string document;
  comp::CompensationPlan plan;
};

}  // namespace axmlx::txn

#endif  // AXMLX_TXN_PAYLOAD_H_
