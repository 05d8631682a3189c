#include "query/naive_eval.h"

#include <unordered_set>

namespace axmlx::query::naive {
namespace {

bool IsServiceCall(const xml::Node& node) {
  return node.is_element() && node.name == "axml:sc";
}

bool IsBookkeeping(const xml::Node& node) {
  if (!node.is_element()) return false;
  return node.name == "axml:params" || node.name == "axml:catch" ||
         node.name == "axml:catchAll" || node.name == "axml:retry";
}

void CollectQueryChildren(const xml::Document& doc, xml::NodeId id,
                          std::vector<xml::NodeId>* out) {
  const xml::Node* n = doc.Find(id);
  if (n == nullptr) return;
  for (xml::NodeId c : n->children) {
    const xml::Node* child = doc.Find(c);
    if (child == nullptr) continue;  // stale child id: skip, don't crash
    if (child->type == xml::NodeType::kComment) continue;
    if (IsBookkeeping(*child)) continue;
    if (IsServiceCall(*child)) {
      // Transparent: surface the service call's result children.
      CollectQueryChildren(doc, c, out);
      continue;
    }
    out->push_back(c);
  }
}

/// Appends all query-visible descendant elements of `id` (pre-order).
void CollectDescendants(const xml::Document& doc, xml::NodeId id,
                        std::vector<xml::NodeId>* out) {
  std::vector<xml::NodeId> children;
  CollectQueryChildren(doc, id, &children);
  for (xml::NodeId c : children) {
    const xml::Node* child = doc.Find(c);
    if (child != nullptr && child->is_element()) {
      out->push_back(c);
      CollectDescendants(doc, c, out);
    }
  }
}

bool NameMatches(const xml::Node& node, const std::string& pattern) {
  return node.is_element() && (pattern == "*" || node.name == pattern);
}

xml::NodeId NaiveQueryParent(const xml::Document& doc, xml::NodeId id) {
  const xml::Node* n = doc.Find(id);
  if (n == nullptr) return xml::kNullNode;
  xml::NodeId cur = n->parent;
  while (cur != xml::kNullNode) {
    const xml::Node* p = doc.Find(cur);
    if (p == nullptr) return xml::kNullNode;
    if (!IsServiceCall(*p) && !IsBookkeeping(*p)) return cur;
    cur = p->parent;
  }
  return xml::kNullNode;
}

}  // namespace

std::vector<xml::NodeId> EvaluatePathFrom(const xml::Document& doc,
                                          xml::NodeId context,
                                          const PathExpr& path) {
  std::vector<xml::NodeId> current = {context};
  for (const Step& step : path.steps) {
    std::vector<xml::NodeId> next;
    std::unordered_set<xml::NodeId> seen;
    auto add = [&next, &seen](xml::NodeId id) {
      if (seen.insert(id).second) next.push_back(id);
    };
    for (xml::NodeId node : current) {
      switch (step.axis) {
        case Step::Axis::kChild: {
          std::vector<xml::NodeId> children;
          CollectQueryChildren(doc, node, &children);
          for (xml::NodeId c : children) {
            if (NameMatches(*doc.Find(c), step.name)) add(c);
          }
          break;
        }
        case Step::Axis::kDescendant: {
          std::vector<xml::NodeId> desc;
          CollectDescendants(doc, node, &desc);
          for (xml::NodeId d : desc) {
            if (NameMatches(*doc.Find(d), step.name)) add(d);
          }
          break;
        }
        case Step::Axis::kParent: {
          xml::NodeId p = NaiveQueryParent(doc, node);
          if (p != xml::kNullNode) add(p);
          break;
        }
        case Step::Axis::kAttribute:
          break;
      }
    }
    current = std::move(next);
  }
  return current;
}

bool EvaluatePredicate(const xml::Document& doc, xml::NodeId context,
                       const Predicate& pred) {
  switch (pred.kind) {
    case Predicate::Kind::kCompare: {
      if (!pred.path.steps.empty() &&
          pred.path.steps.back().axis == Step::Axis::kAttribute) {
        PathExpr prefix;
        prefix.steps.assign(pred.path.steps.begin(),
                            pred.path.steps.end() - 1);
        const std::string& attr = pred.path.steps.back().name;
        for (xml::NodeId id : naive::EvaluatePathFrom(doc, context, prefix)) {
          const xml::Node* node = doc.Find(id);
          if (node == nullptr) continue;
          const std::string* value = node->FindAttribute(attr);
          if (value != nullptr &&
              CompareScalarValues(*value, pred.literal, pred.op)) {
            return true;
          }
        }
        return false;
      }
      for (xml::NodeId id : naive::EvaluatePathFrom(doc, context, pred.path)) {
        if (CompareScalarValues(doc.TextContent(id), pred.literal, pred.op)) {
          return true;
        }
      }
      return false;
    }
    case Predicate::Kind::kAnd:
      return naive::EvaluatePredicate(doc, context, *pred.left) &&
             naive::EvaluatePredicate(doc, context, *pred.right);
    case Predicate::Kind::kOr:
      return naive::EvaluatePredicate(doc, context, *pred.left) ||
             naive::EvaluatePredicate(doc, context, *pred.right);
    case Predicate::Kind::kNot:
      return !naive::EvaluatePredicate(doc, context, *pred.left);
  }
  return false;
}

Result<std::vector<xml::NodeId>> EvaluateBindings(const xml::Document& doc,
                                                  const Query& q,
                                                  bool check_doc_name) {
  const xml::Node* root = doc.Find(doc.root());
  if (check_doc_name && root->name != q.doc_name) {
    return NotFound("query addresses document '" + q.doc_name +
                    "' but the target document root is '" + root->name + "'");
  }
  std::vector<xml::NodeId> bound =
      naive::EvaluatePathFrom(doc, doc.root(), q.source);
  std::vector<xml::NodeId> out;
  for (xml::NodeId id : bound) {
    if (q.where == nullptr || naive::EvaluatePredicate(doc, id, *q.where)) {
      out.push_back(id);
    }
  }
  return out;
}

Result<QueryResult> EvaluateQuery(const xml::Document& doc, const Query& q,
                                  bool check_doc_name) {
  AXMLX_ASSIGN_OR_RETURN(auto bound,
                         naive::EvaluateBindings(doc, q, check_doc_name));
  QueryResult result;
  for (xml::NodeId id : bound) {
    QueryResult::Binding binding;
    binding.node = id;
    for (const PathExpr& sel : q.selects) {
      binding.selected.push_back(naive::EvaluatePathFrom(doc, id, sel));
    }
    result.bindings.push_back(std::move(binding));
  }
  return result;
}

}  // namespace axmlx::query::naive
