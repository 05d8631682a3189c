#ifndef AXMLX_AXML_SERVICE_CALL_H_
#define AXMLX_AXML_SERVICE_CALL_H_

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "xml/document.h"

namespace axmlx::axml {

/// Result-application mode of an embedded service call (paper §1):
/// - kReplace: "the previous results are replaced by the current invocation
///   results";
/// - kMerge: "the invocation results are appended as siblings of the
///   previous invocation results".
enum class ScMode { kReplace, kMerge };

/// One `<axml:param>` of a service call. Parameters can be literals,
/// external values (`$year (external value)` in the paper's ATPList.xml),
/// or — per the paper's "local nesting" — another embedded service call
/// whose materialized result supplies the value.
struct ScParam {
  enum class Kind { kLiteral, kExternal, kNestedCall };
  std::string name;
  Kind kind = Kind::kLiteral;
  std::string value;             ///< kLiteral: the value; kExternal: var name.
  xml::NodeId nested_call = xml::kNullNode;  ///< kNestedCall.
};

/// `<axml:retry times=".." wait=".."  [serviceURL=".."]>` fault-handler
/// action (§3.2): retry the invocation, optionally against a replica peer.
struct RetrySpec {
  int times = 0;
  int64_t wait = 0;
  std::string replica_url;  ///< Empty = retry the original peer.
};

/// An `<axml:catch faultName="..">` or `<axml:catchAll>` handler attached to
/// an embedded service call (§3.2). A handler without a retry spec simply
/// absorbs the fault (application-specific forward recovery); with a retry
/// spec it re-invokes first.
struct FaultHandler {
  std::string fault_name;  ///< Empty for catchAll.
  bool has_retry = false;
  RetrySpec retry;

  bool Matches(const std::string& fault) const {
    return fault_name.empty() || fault_name == fault;
  }
};

/// Parsed view of an `<axml:sc>` element.
struct ServiceCallInfo {
  xml::NodeId element = xml::kNullNode;
  ScMode mode = ScMode::kReplace;
  std::string service_namespace;
  std::string service_url;
  std::string method_name;
  /// Declared name of the result elements, when present as an `outputName`
  /// attribute. Lazy evaluation also infers output names from existing
  /// result children.
  std::string output_name;
  /// Re-invocation period for continuous/subscription services (§3.3(d));
  /// 0 = invoke on demand only.
  int64_t frequency = 0;
  std::vector<ScParam> params;
  std::vector<FaultHandler> handlers;
  /// Current materialized result children (see IsResultChild).
  std::vector<xml::NodeId> results;

  /// All element names this call is known to produce: `output_name` plus the
  /// names of current result elements plus the method name.
  std::vector<std::string> OutputNames(const xml::Document& doc) const;
};

/// The one definition of a call's result: a child of an `axml:sc` is a
/// result unless it is a comment or a bookkeeping element (`axml:params`,
/// a fault handler, or a stray `axml:retry`). ServiceCallInfo::results,
/// ResultChildren, ProducesAnyOf and the call catalog all use it, so a
/// child that selection counts as an output is one replace mode removes.
bool IsResultChild(const xml::Node& child);

/// The mode of a call element: merge when its `mode` attribute says so,
/// else replace (ValidateServiceCall rejects any other spelling).
ScMode ModeOf(const xml::Node& sc);

/// Parses the `<axml:sc>` element at `id`.
Result<ServiceCallInfo> ParseServiceCall(const xml::Document& doc,
                                         xml::NodeId id);

/// Returns the error ParseServiceCall would for the element at `id` (not a
/// call, an unknown `mode`, an `axml:param` without `name`, an `axml:catch`
/// without `faultName`) without building a ServiceCallInfo.
Status ValidateServiceCall(const xml::Document& doc, xml::NodeId id);

/// True when one of the names ServiceCallInfo::OutputNames lists for the
/// call at `sc` is in `wanted`, read in place: lazy evaluation picks the
/// calls it needs without parsing them.
bool ProducesAnyOf(const xml::Document& doc, xml::NodeId sc,
                   const std::unordered_set<std::string>& wanted);

/// Returns all embedded service-call elements in the subtree rooted at
/// `from`, in document order. Calls nested inside `axml:params` (parameter
/// calls) or fault handlers are excluded — they are materialized as part of
/// their enclosing call.
std::vector<xml::NodeId> FindServiceCalls(const xml::Document& doc,
                                          xml::NodeId from);

/// Returns the current result children (see IsResultChild) of the service
/// call at `sc`.
std::vector<xml::NodeId> ResultChildren(const xml::Document& doc,
                                        xml::NodeId sc);

/// Declarative spec for building an `<axml:sc>` element programmatically.
struct ScSpec {
  ScMode mode = ScMode::kReplace;
  std::string service_namespace;
  std::string service_url;
  std::string method_name;
  std::string output_name;
  int64_t frequency = 0;
  struct Param {
    std::string name;
    std::string literal;       ///< "$var" marks an external value.
    bool nested = false;       ///< true: `nested_spec` supplies the value.
    std::vector<ScSpec> nested_spec;  ///< 0 or 1 entries (vector to allow
                                      ///< incomplete type recursion).
  };
  std::vector<Param> params;
  struct Handler {
    std::string fault_name;  ///< Empty for catchAll.
    bool has_retry = false;
    RetrySpec retry;
  };
  std::vector<Handler> handlers;
};

/// Creates an `<axml:sc>` element from `spec` and appends it under `parent`.
/// Returns the new element's id.
Result<xml::NodeId> BuildServiceCall(xml::Document* doc, xml::NodeId parent,
                                     const ScSpec& spec);

}  // namespace axmlx::axml

#endif  // AXMLX_AXML_SERVICE_CALL_H_
