#include "repo/introspection.h"

#include <memory>
#include <sstream>
#include <utility>

#include "axml/service_call.h"
#include "common/strings.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "xml/builder.h"
#include "xml/parser.h"

namespace axmlx::repo {
namespace {

/// Serializes the peer's current observability state as the `getStats`
/// result fragment. Element/attribute shape (element text carries the
/// values, dotted metric names stay in attributes so they never have to be
/// legal element names):
///   <result><stats>
///     <counters><counter name="txn.committed">3</counter>...</counters>
///     <gauges><gauge name="...">0.5</gauge>...</gauges>
///     <openspans><span txn="T1" kind="SERVICE" id="5"/>...</openspans>
///     <recorder><event time="12" seq="7" kind="TXN_STATE" span="5"
///                      arg="0">begin</event>...</recorder>
///   </stats></result>
std::string BuildStatsXml(AxmlRepository* repo,
                          const overlay::PeerId& peer_id) {
  std::ostringstream os;
  os << "<result><stats peer=\"" << XmlEscape(peer_id) << "\">";

  os << "<counters>";
  txn::AxmlPeer* peer = repo->FindPeer(peer_id);
  if (peer != nullptr) {
    obs::MetricsSnapshot snap = peer->metrics().Snapshot();
    for (const auto& [name, value] : snap.counters) {
      os << "<counter name=\"" << XmlEscape(name) << "\">" << value
         << "</counter>";
    }
    os << "</counters><gauges>";
    for (const auto& [name, value] : snap.gauges) {
      os << "<gauge name=\"" << XmlEscape(name) << "\">" << value
         << "</gauge>";
    }
    os << "</gauges>";
  } else {
    os << "</counters><gauges></gauges>";
  }

  os << "<openspans>";
  for (const obs::SpanRecord& s : repo->spans().OpenSpans()) {
    if (s.peer != peer_id) continue;
    os << "<span txn=\"" << XmlEscape(s.txn) << "\" kind=\""
       << XmlEscape(s.kind) << "\" id=\"" << s.span_id << "\"/>";
  }
  os << "</openspans>";

  os << "<recorder>";
  const obs::FlightRecorder* rec = repo->recorders().ForPeer(peer_id);
  size_t count = rec->size();
  size_t first = count > kStatsRecorderTail ? count - kStatsRecorderTail : 0;
  for (size_t i = first; i < count; ++i) {
    const obs::FlightEvent& e = rec->At(i);
    os << "<event time=\"" << e.time << "\" seq=\"" << e.seq << "\" kind=\""
       << XmlEscape(e.kind) << "\" span=\"" << e.span << "\" arg=\"" << e.arg
       << "\">" << XmlEscape(e.what) << "</event>";
  }
  os << "</recorder>";

  os << "</stats></result>";
  return os.str();
}

}  // namespace

Status InstallStatsDocument(AxmlRepository* repo,
                            const overlay::PeerId& peer_id) {
  txn::AxmlPeer* peer = repo->FindPeer(peer_id);
  if (peer == nullptr) return NotFound("unknown peer " + peer_id);

  service::ServiceDefinition def;
  def.name = kStatsServiceName;
  // The handler resolves the peer at invocation time: the captured pointers
  // outlive any peer incarnation, and a query against a crashed peer's
  // leftover document fails cleanly instead of dangling.
  def.native = [repo, peer_id](const axml::ServiceRequest&)
      -> Result<axml::ServiceResponse> {
    AXMLX_ASSIGN_OR_RETURN(std::unique_ptr<xml::Document> fragment,
                           xml::Parse(BuildStatsXml(repo, peer_id)));
    axml::ServiceResponse response;
    response.fragment = std::move(fragment);
    return response;
  };
  AXMLX_RETURN_IF_ERROR(peer->repository().AddService(std::move(def)));

  auto doc = std::make_unique<xml::Document>(kStatsDocumentName);
  // Lazy materialization only discovers calls under a query's source
  // bindings, so the sc needs a static element queries can bind before any
  // result exists: <snapshot> is that anchor.
  xml::NodeId snapshot = xml::AddElement(doc.get(), doc->root(), "snapshot");
  axml::ScSpec spec;
  spec.mode = axml::ScMode::kReplace;  // every materialization = fresh snapshot
  spec.method_name = kStatsServiceName;
  spec.output_name = "stats";
  AXMLX_RETURN_IF_ERROR(
      axml::BuildServiceCall(doc.get(), snapshot, spec).status());
  return peer->repository().AddDocument(std::move(doc));
}

}  // namespace axmlx::repo
