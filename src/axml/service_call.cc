#include "axml/service_call.h"

#include <algorithm>
#include <cstdlib>
#include <unordered_map>
#include <unordered_set>

#include "common/strings.h"
#include "query/eval.h"
#include "xml/builder.h"

namespace axmlx::axml {
namespace {

bool IsScElement(const xml::Node& n) {
  return n.is_element() && n.name_id == xml::kNameAxmlSc;
}

// ParseParam, ParseRetry and ParseHandler run after ValidateServiceCall, so
// the attributes it requires are present.
ScParam ParseParam(const xml::Document& doc, xml::NodeId param_id) {
  const xml::Node* p = doc.Find(param_id);
  ScParam out;
  out.name = *p->FindAttribute("name");
  // A param holds either an <axml:value> child, a nested <axml:sc>, or (for
  // compatibility with the paper's terser listing) direct text.
  for (xml::NodeId c : p->children) {
    const xml::Node* child = doc.Find(c);
    if (child->is_element() && child->name == "axml:value") {
      std::string text = doc.TextContent(c);
      if (StartsWith(text, "$")) {
        out.kind = ScParam::Kind::kExternal;
        // "$year (external value)" -> "year"
        std::string var = text.substr(1);
        size_t space = var.find_first_of(" \t(");
        if (space != std::string::npos) var = var.substr(0, space);
        out.value = var;
      } else {
        out.kind = ScParam::Kind::kLiteral;
        out.value = text;
      }
      return out;
    }
    if (IsScElement(*child)) {
      out.kind = ScParam::Kind::kNestedCall;
      out.nested_call = c;
      return out;
    }
    if (child->is_text()) {
      out.kind = ScParam::Kind::kLiteral;
      out.value = child->text;
      return out;
    }
  }
  out.kind = ScParam::Kind::kLiteral;
  out.value = "";
  return out;
}

RetrySpec ParseRetry(const xml::Document& doc, xml::NodeId retry_id) {
  const xml::Node* r = doc.Find(retry_id);
  RetrySpec spec;
  if (const std::string* t = r->FindAttribute("times")) {
    spec.times = std::atoi(t->c_str());
  }
  if (const std::string* w = r->FindAttribute("wait")) {
    spec.wait = std::atoll(w->c_str());
  }
  if (const std::string* u = r->FindAttribute("serviceURL")) {
    spec.replica_url = *u;
  }
  // The paper allows `<axml:retry ...><axml:sc .../></axml:retry>` to name a
  // replicated peer; we model the replica by its serviceURL attribute on
  // either the retry element or the nested sc.
  for (xml::NodeId c : r->children) {
    const xml::Node* child = doc.Find(c);
    if (IsScElement(*child)) {
      if (const std::string* u = child->FindAttribute("serviceURL")) {
        spec.replica_url = *u;
      }
    }
  }
  return spec;
}

FaultHandler ParseHandler(const xml::Document& doc, xml::NodeId handler_id) {
  const xml::Node* h = doc.Find(handler_id);
  FaultHandler out;
  if (h->name_id == xml::kNameAxmlCatch) {
    out.fault_name = *h->FindAttribute("faultName");
  }
  for (xml::NodeId c : h->children) {
    const xml::Node* child = doc.Find(c);
    if (child->is_element() && child->name == "axml:retry") {
      out.retry = ParseRetry(doc, c);
      out.has_retry = true;
    }
  }
  return out;
}

}  // namespace

bool IsResultChild(const xml::Node& child) {
  return child.type != xml::NodeType::kComment &&
         !query::IsBookkeepingElement(child);
}

std::vector<std::string> ServiceCallInfo::OutputNames(
    const xml::Document& doc) const {
  std::vector<std::string> names;
  auto add = [&names](const std::string& n) {
    if (n.empty()) return;
    for (const std::string& e : names) {
      if (e == n) return;
    }
    names.push_back(n);
  };
  add(output_name);
  add(method_name);
  for (xml::NodeId r : results) {
    const xml::Node* n = doc.Find(r);
    if (n != nullptr && n->is_element()) add(n->name);
  }
  return names;
}

bool ProducesAnyOf(const xml::Document& doc, xml::NodeId sc,
                   const std::unordered_set<std::string>& wanted) {
  const xml::Node* n = doc.Find(sc);
  if (n == nullptr) return false;
  auto named = [&wanted](const std::string& name) {
    return !name.empty() && wanted.count(name) > 0;
  };
  for (const char* key : {"outputName", "methodName"}) {
    const std::string* v = n->FindAttribute(key);
    if (v != nullptr && named(*v)) return true;
  }
  for (xml::NodeId c : n->children) {
    const xml::Node* child = doc.Find(c);
    if (IsResultChild(*child) && child->is_element() && named(child->name)) {
      return true;
    }
  }
  return false;
}

Status ValidateServiceCall(const xml::Document& doc, xml::NodeId id) {
  const xml::Node* n = doc.Find(id);
  if (n == nullptr) return NotFound("ParseServiceCall: unknown node");
  if (!IsScElement(*n)) {
    return InvalidArgument("ParseServiceCall: node is not an axml:sc element");
  }
  if (const std::string* mode = n->FindAttribute("mode")) {
    if (*mode != "merge" && *mode != "replace") {
      return ParseError("axml:sc has unknown mode '" + *mode + "'");
    }
  }
  for (xml::NodeId c : n->children) {
    const xml::Node* child = doc.Find(c);
    if (child->name_id == xml::kNameAxmlParams) {
      for (xml::NodeId pc : child->children) {
        const xml::Node* param = doc.Find(pc);
        if (param->name_id == xml::kNameAxmlParam &&
            param->FindAttribute("name") == nullptr) {
          return ParseError("axml:param is missing the 'name' attribute");
        }
      }
    } else if (child->name_id == xml::kNameAxmlCatch &&
               child->FindAttribute("faultName") == nullptr) {
      return ParseError("axml:catch is missing the 'faultName' attribute");
    }
  }
  return Status::Ok();
}

ScMode ModeOf(const xml::Node& sc) {
  const std::string* mode = sc.FindAttribute("mode");
  return mode != nullptr && *mode == "merge" ? ScMode::kMerge
                                             : ScMode::kReplace;
}

Result<ServiceCallInfo> ParseServiceCall(const xml::Document& doc,
                                         xml::NodeId id) {
  AXMLX_RETURN_IF_ERROR(ValidateServiceCall(doc, id));
  const xml::Node* n = doc.Find(id);
  ServiceCallInfo info;
  info.element = id;
  info.mode = ModeOf(*n);
  if (const std::string* v = n->FindAttribute("serviceNameSpace")) {
    info.service_namespace = *v;
  }
  if (const std::string* v = n->FindAttribute("serviceURL")) {
    info.service_url = *v;
  }
  if (const std::string* v = n->FindAttribute("methodName")) {
    info.method_name = *v;
  }
  if (const std::string* v = n->FindAttribute("outputName")) {
    info.output_name = *v;
  }
  if (const std::string* v = n->FindAttribute("frequency")) {
    info.frequency = std::atoll(v->c_str());
  }
  for (xml::NodeId c : n->children) {
    const xml::Node* child = doc.Find(c);
    if (child->name_id == xml::kNameAxmlParams) {
      for (xml::NodeId pc : child->children) {
        const xml::Node* param = doc.Find(pc);
        if (param->name_id == xml::kNameAxmlParam) {
          info.params.push_back(ParseParam(doc, pc));
        }
      }
    } else if (child->name_id == xml::kNameAxmlCatch ||
               child->name_id == xml::kNameAxmlCatchAll) {
      info.handlers.push_back(ParseHandler(doc, c));
    } else if (IsResultChild(*child)) {
      info.results.push_back(c);
    }
  }
  return info;
}

std::vector<xml::NodeId> FindServiceCalls(const xml::Document& doc,
                                          xml::NodeId from) {
  std::vector<xml::NodeId> out;
  const xml::Node* top = doc.Find(from);
  // A bookkeeping element hides everything under it (parameter calls and
  // handlers are materialized as part of their enclosing call).
  if (top == nullptr || query::IsBookkeepingElement(*top)) return out;
  std::vector<xml::NodeId> calls;
  doc.CollectElementsNamed(xml::kNameAxmlSc, &calls);
  if (calls.empty()) return out;

  // The visible calls and their ancestors up to `from` form a small
  // "path tree"; walking it in child order yields document order without
  // touching the rest of the document. Result children may themselves embed
  // calls ("the invocation results may be ... another service call"), so a
  // call can also be an inner node of the path tree.
  struct PathNode {
    bool is_call = false;
    bool hidden = false;  ///< Not visible from `from`; never in the tree.
    std::vector<xml::NodeId> kids;  ///< Path-tree children, any order.
  };
  std::unordered_map<xml::NodeId, PathNode> tree;
  tree[from];
  std::vector<xml::NodeId> chain;
  for (xml::NodeId call : calls) {
    // Climb until `from` or a node already known to be visible from it;
    // a bookkeeping ancestor, a detached root or a node already known to
    // be hidden hides the call, and with it every ancestor climbed through.
    chain.clear();
    xml::NodeId cur = call;
    bool visible = false;
    while (true) {
      auto known = tree.find(cur);
      if (known != tree.end()) {
        visible = !known->second.hidden;
        break;
      }
      const xml::Node* n = doc.Find(cur);
      if (n == nullptr || query::IsBookkeepingElement(*n)) break;
      chain.push_back(cur);
      cur = n->parent;
      if (cur == xml::kNullNode) break;
    }
    if (!visible) {
      // The call itself is climbed only by calls nested in its results,
      // so only its ancestors are worth remembering.
      for (size_t i = 1; i < chain.size(); ++i) tree[chain[i]].hidden = true;
      continue;
    }
    // Link the new stretch top-down below its nearest known ancestor.
    for (size_t i = chain.size(); i > 0; --i) {
      tree[cur].kids.push_back(chain[i - 1]);
      cur = chain[i - 1];
      (void)tree[cur];
    }
    tree[call].is_call = true;
  }

  // Pre-order over the path tree. A node with several path children ranks
  // them by one scan of its real child list, not a search per child.
  std::vector<xml::NodeId> stack = {from};
  std::vector<xml::NodeId> ordered;
  while (!stack.empty()) {
    const xml::NodeId id = stack.back();
    stack.pop_back();
    PathNode& node = tree[id];
    if (node.is_call) out.push_back(id);
    std::vector<xml::NodeId>& kids = node.kids;
    if (kids.size() > 1) {
      std::sort(kids.begin(), kids.end());
      ordered.clear();
      for (xml::NodeId c : doc.Find(id)->children) {
        if (std::binary_search(kids.begin(), kids.end(), c)) {
          ordered.push_back(c);
        }
      }
      kids.swap(ordered);
    }
    for (size_t i = kids.size(); i > 0; --i) stack.push_back(kids[i - 1]);
  }
  return out;
}

std::vector<xml::NodeId> ResultChildren(const xml::Document& doc,
                                        xml::NodeId sc) {
  std::vector<xml::NodeId> out;
  const xml::Node* n = doc.Find(sc);
  if (n == nullptr) return out;
  for (xml::NodeId c : n->children) {
    if (IsResultChild(*doc.Find(c))) out.push_back(c);
  }
  return out;
}

Result<xml::NodeId> BuildServiceCall(xml::Document* doc, xml::NodeId parent,
                                     const ScSpec& spec) {
  if (doc->Find(parent) == nullptr) {
    return NotFound("BuildServiceCall: unknown parent");
  }
  xml::NodeId sc = xml::AddElement(doc, parent, "axml:sc");
  AXMLX_RETURN_IF_ERROR(doc->SetAttribute(
      sc, "mode", spec.mode == ScMode::kMerge ? "merge" : "replace"));
  if (!spec.service_namespace.empty()) {
    AXMLX_RETURN_IF_ERROR(
        doc->SetAttribute(sc, "serviceNameSpace", spec.service_namespace));
  }
  if (!spec.service_url.empty()) {
    AXMLX_RETURN_IF_ERROR(doc->SetAttribute(sc, "serviceURL", spec.service_url));
  }
  if (!spec.method_name.empty()) {
    AXMLX_RETURN_IF_ERROR(doc->SetAttribute(sc, "methodName", spec.method_name));
  }
  if (!spec.output_name.empty()) {
    AXMLX_RETURN_IF_ERROR(doc->SetAttribute(sc, "outputName", spec.output_name));
  }
  if (spec.frequency != 0) {
    AXMLX_RETURN_IF_ERROR(
        doc->SetAttribute(sc, "frequency", std::to_string(spec.frequency)));
  }
  if (!spec.params.empty()) {
    xml::NodeId params = xml::AddElement(doc, sc, "axml:params");
    for (const ScSpec::Param& p : spec.params) {
      xml::NodeId param = xml::AddElement(doc, params, "axml:param");
      AXMLX_RETURN_IF_ERROR(doc->SetAttribute(param, "name", p.name));
      if (p.nested) {
        if (p.nested_spec.empty()) {
          return InvalidArgument("BuildServiceCall: nested param '" + p.name +
                                 "' has no nested spec");
        }
        AXMLX_RETURN_IF_ERROR(
            BuildServiceCall(doc, param, p.nested_spec.front()).status());
      } else {
        xml::AddTextElement(doc, param, "axml:value", p.literal);
      }
    }
  }
  for (const ScSpec::Handler& h : spec.handlers) {
    xml::NodeId handler;
    if (h.fault_name.empty()) {
      handler = xml::AddElement(doc, sc, "axml:catchAll");
    } else {
      handler = xml::AddElement(doc, sc, "axml:catch");
      AXMLX_RETURN_IF_ERROR(doc->SetAttribute(handler, "faultName", h.fault_name));
    }
    if (h.has_retry) {
      xml::NodeId retry = xml::AddElement(doc, handler, "axml:retry");
      AXMLX_RETURN_IF_ERROR(
          doc->SetAttribute(retry, "times", std::to_string(h.retry.times)));
      AXMLX_RETURN_IF_ERROR(
          doc->SetAttribute(retry, "wait", std::to_string(h.retry.wait)));
      if (!h.retry.replica_url.empty()) {
        AXMLX_RETURN_IF_ERROR(
            doc->SetAttribute(retry, "serviceURL", h.retry.replica_url));
      }
    }
  }
  return sc;
}

}  // namespace axmlx::axml
