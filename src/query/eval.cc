#include "query/eval.h"

#include <algorithm>
#include <charconv>
#include <cmath>

#include "common/strings.h"
#include "query/parser.h"

namespace axmlx::query {

Result<const Query*> EvalContext::ParsedQuery(std::string_view text) {
  auto it = parsed_queries.find(text);
  if (it == parsed_queries.end()) {
    AXMLX_ASSIGN_OR_RETURN(Query q, ParseQuery(text));
    if (parsed_queries.size() >= kMaxParsedQueries) parsed_queries.clear();
    it = parsed_queries.emplace(std::string(text), std::move(q)).first;
  }
  return &it->second;
}

bool IsServiceCallElement(const xml::Node& node) {
  return node.name_id == xml::kNameAxmlSc;
}

bool IsBookkeepingElement(const xml::Node& node) {
  return node.name_id >= xml::kNameAxmlParams &&
         node.name_id <= xml::kNameAxmlRetry;
}

namespace {

/// True if `name_id` names a service call or a bookkeeping element — such
/// elements are never query-visible match results. (`axml:param` is
/// reserved too, but a stray one outside `axml:params` is an ordinary
/// element to queries.)
bool NeverMatches(xml::NameId name_id) {
  return name_id <= xml::kNameAxmlRetry;
}

/// Appends all query-visible descendant *elements* of `id` in pre-order,
/// filtered by `want` (pass xml::kNoName to match any element). Iterative,
/// allocation-free once `ctx->walk_stack` is warm. Service-call elements
/// are transparent (traversed, never emitted); bookkeeping subtrees are
/// invisible.
void CollectDescendantsWalk(const xml::Document& doc, xml::NodeId id,
                            xml::NameId want, EvalContext* ctx,
                            std::vector<xml::NodeId>* out) {
  std::vector<xml::NodeId>& stack = ctx->walk_stack;
  stack.clear();
  const xml::Node* start = doc.Find(id);
  if (start == nullptr) return;
  for (size_t i = start->children.size(); i > 0; --i) {
    stack.push_back(start->children[i - 1]);
  }
  while (!stack.empty()) {
    xml::NodeId cur = stack.back();
    stack.pop_back();
    const xml::Node* n = doc.Find(cur);
    if (n == nullptr || !n->is_element() || IsBookkeepingElement(*n)) {
      continue;
    }
    if (!IsServiceCallElement(*n) &&
        (want == xml::kNoName || n->name_id == want)) {
      out->push_back(cur);
    }
    for (size_t i = n->children.size(); i > 0; --i) {
      stack.push_back(n->children[i - 1]);
    }
  }
}

/// True if `node` is a query-visible descendant of `ctx_node`: `ctx_node`
/// is on its ancestor chain and no ancestor strictly between them is a
/// bookkeeping element (service calls are transparent).
bool IsVisibleDescendantOf(const xml::Document& doc, xml::NodeId ctx_node,
                           xml::NodeId node) {
  const xml::Node* n = doc.Find(node);
  if (n == nullptr || node == ctx_node) return false;
  for (xml::NodeId cur = n->parent; cur != xml::kNullNode;) {
    if (cur == ctx_node) return true;
    const xml::Node* a = doc.Find(cur);
    if (a == nullptr || IsBookkeepingElement(*a)) return false;
    cur = a->parent;
  }
  return false;
}

uint32_t SiblingIndex(const xml::Document& doc, xml::NodeId id,
                      EvalContext* ctx) {
  auto it = ctx->sibling_index_cache.find(id);
  if (it != ctx->sibling_index_cache.end()) return it->second;
  uint32_t index = static_cast<uint32_t>(doc.IndexInParent(id));
  ctx->sibling_index_cache.emplace(id, index);
  return index;
}

/// Index-backed descendant step: pull candidate ids for `want` from the
/// document's tag index, keep the visible descendants of `ctx_node`, and
/// append them in document order (sorted by their sibling-index paths).
void CollectDescendantsIndexed(const xml::Document& doc, xml::NodeId ctx_node,
                               EvalContext* ctx,
                               std::vector<xml::NodeId>* out) {
  std::vector<xml::NodeId>& cands = ctx->candidates;
  size_t w = 0;
  for (xml::NodeId cand : cands) {
    if (IsVisibleDescendantOf(doc, ctx_node, cand)) cands[w++] = cand;
  }
  cands.resize(w);
  if (cands.empty()) return;
  if (cands.size() == 1) {
    out->push_back(cands[0]);
    return;
  }
  auto& keys = ctx->order_keys;
  keys.clear();
  keys.reserve(cands.size());
  for (xml::NodeId cand : cands) {
    std::vector<uint32_t> key;
    for (xml::NodeId cur = cand; cur != ctx_node;) {
      key.push_back(SiblingIndex(doc, cur, ctx));
      cur = doc.Find(cur)->parent;
    }
    std::reverse(key.begin(), key.end());
    keys.emplace_back(std::move(key), cand);
  }
  std::sort(keys.begin(), keys.end());
  for (const auto& [key, id] : keys) out->push_back(id);
}

/// Appends the query-visible descendant elements of `ctx_node` matching the
/// step name, choosing between the tag index and a tree walk.
void CollectDescendantsForStep(const xml::Document& doc, xml::NodeId ctx_node,
                               const Step& step, xml::NameId want,
                               EvalContext* ctx,
                               std::vector<xml::NodeId>* out) {
  if (step.name == "*") {
    ++ctx->stats.walk_fallbacks;
    CollectDescendantsWalk(doc, ctx_node, xml::kNoName, ctx, out);
    return;
  }
  if (want == xml::kNoName || NeverMatches(want)) return;  // can't match
  std::vector<xml::NodeId>& cands = ctx->candidates;
  cands.clear();
  doc.CollectElementsNamed(want, &cands);
  ctx->stats.index_candidates += static_cast<int64_t>(cands.size());
  // When the name covers a large share of the document, the per-candidate
  // ancestor checks and ordering sort cost more than one pre-order walk
  // (measured break-even in bench_query_index is near 1/8 of the nodes).
  if (cands.size() * 8 >= doc.size()) {
    ++ctx->stats.walk_fallbacks;
    CollectDescendantsWalk(doc, ctx_node, want, ctx, out);
    return;
  }
  ++ctx->stats.index_hits;
  CollectDescendantsIndexed(doc, ctx_node, ctx, out);
}

/// TextContent with a per-evaluation memo (predicate-heavy queries hit the
/// same nodes repeatedly across bindings).
const std::string& CachedTextContent(const xml::Document& doc, xml::NodeId id,
                                     EvalContext* ctx) {
  auto [it, inserted] = ctx->text_cache.try_emplace(id);
  if (inserted) {
    doc.AppendTextContent(id, &it->second);
  } else {
    ++ctx->stats.text_cache_hits;
  }
  return it->second;
}

bool ParseNumber(std::string_view s, double* out) {
  if (!s.empty() && s.front() == '+') s.remove_prefix(1);  // strtod parity
  if (s.empty()) return false;
  const char* end = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(s.data(), end, *out);
  // Trailing garbage ("7abc") falls back to string comparison, as do the
  // non-finite spellings from_chars accepts ("inf", "nan") and overflow
  // ("1e999", result_out_of_range). Letting a NaN through would poison the
  // three-way compare in CompareScalarValues, where neither `<` nor `>`
  // holds and any value would count as *equal* to "nan".
  return ec == std::errc() && ptr == end && std::isfinite(*out);
}

/// Core of EvaluatePathFrom over a step range; `prefix_end` lets predicate
/// evaluation reuse the path minus a trailing attribute step without
/// copying. Appends results (document order, deduplicated) to `out`.
void EvaluateSteps(const xml::Document& doc, xml::NodeId context,
                   const Step* begin, const Step* end, EvalContext* ctx,
                   std::vector<xml::NodeId>* out) {
  std::vector<xml::NodeId>& current = ctx->path_current;
  std::vector<xml::NodeId>& next = ctx->step_out;
  current.clear();
  current.push_back(context);
  for (const Step* step = begin; step != end; ++step) {
    next.clear();
    ctx->seen.clear();
    auto add = [&next, ctx](xml::NodeId id) {
      if (ctx->seen.insert(id).second) next.push_back(id);
    };
    const bool any_name = step->name == "*";
    const xml::NameId want =
        any_name ? xml::kNoName : doc.FindNameId(step->name);
    for (xml::NodeId node : current) {
      switch (step->axis) {
        case Step::Axis::kChild: {
          if (!any_name && want == xml::kNoName) break;  // name not interned
          std::vector<xml::NodeId>& tmp = ctx->axis_scratch;
          tmp.clear();
          QueryChildrenInto(doc, node, &tmp);
          for (xml::NodeId c : tmp) {
            const xml::Node* child = doc.Find(c);
            if (child == nullptr) continue;
            if (any_name ? child->is_element() : child->name_id == want) {
              add(c);
            }
          }
          break;
        }
        case Step::Axis::kDescendant: {
          std::vector<xml::NodeId>& tmp = ctx->axis_scratch;
          tmp.clear();
          CollectDescendantsForStep(doc, node, *step, want, ctx, &tmp);
          for (xml::NodeId d : tmp) add(d);
          break;
        }
        case Step::Axis::kParent: {
          xml::NodeId p = QueryParent(doc, node);
          if (p != xml::kNullNode) add(p);
          break;
        }
        case Step::Axis::kAttribute:
          // Attributes are not nodes; attribute steps are only meaningful
          // as the final step of a predicate path (see EvaluatePredicate).
          break;
      }
    }
    current.swap(next);
  }
  out->insert(out->end(), current.begin(), current.end());
}

}  // namespace

void QueryChildrenInto(const xml::Document& doc, xml::NodeId id,
                       std::vector<xml::NodeId>* out) {
  const xml::Node* n = doc.Find(id);
  if (n == nullptr) return;
  for (xml::NodeId c : n->children) {
    const xml::Node* child = doc.Find(c);
    if (child == nullptr) continue;  // stale child id: skip, don't crash
    if (child->type == xml::NodeType::kComment) continue;
    if (IsBookkeepingElement(*child)) continue;
    if (IsServiceCallElement(*child)) {
      // Transparent: surface the service call's result children in place.
      QueryChildrenInto(doc, c, out);
      continue;
    }
    out->push_back(c);
  }
}

std::vector<xml::NodeId> QueryChildren(const xml::Document& doc,
                                       xml::NodeId id) {
  std::vector<xml::NodeId> out;
  QueryChildrenInto(doc, id, &out);
  return out;
}

xml::NodeId QueryParent(const xml::Document& doc, xml::NodeId id) {
  const xml::Node* n = doc.Find(id);
  if (n == nullptr) return xml::kNullNode;
  xml::NodeId cur = n->parent;
  while (cur != xml::kNullNode) {
    const xml::Node* p = doc.Find(cur);
    if (p == nullptr) return xml::kNullNode;
    if (!IsServiceCallElement(*p) && !IsBookkeepingElement(*p)) return cur;
    cur = p->parent;
  }
  return xml::kNullNode;
}

bool CompareScalarValues(const std::string& lhs, const std::string& rhs,
                         CompareOp op) {
  // Trim both sides before numeric classification so padding is symmetric
  // (" 7" and "7" are the same number); the string fallback still compares
  // the untrimmed originals.
  double dl = 0;
  double dr = 0;
  const bool numeric = ParseNumber(StripWhitespace(lhs), &dl) &&
                       ParseNumber(StripWhitespace(rhs), &dr);
  int cmp;
  if (numeric) {
    cmp = dl < dr ? -1 : (dl > dr ? 1 : 0);
  } else {
    cmp = lhs.compare(rhs);
    cmp = cmp < 0 ? -1 : (cmp > 0 ? 1 : 0);
  }
  switch (op) {
    case CompareOp::kEq:
      return cmp == 0;
    case CompareOp::kNe:
      return cmp != 0;
    case CompareOp::kLt:
      return cmp < 0;
    case CompareOp::kLe:
      return cmp <= 0;
    case CompareOp::kGt:
      return cmp > 0;
    case CompareOp::kGe:
      return cmp >= 0;
  }
  return false;
}

void EvaluatePathFrom(const xml::Document& doc, xml::NodeId context,
                      const PathExpr& path, EvalContext* ctx,
                      std::vector<xml::NodeId>* out) {
  EvaluateSteps(doc, context, path.steps.data(),
                path.steps.data() + path.steps.size(), ctx, out);
}

std::vector<xml::NodeId> EvaluatePathFrom(const xml::Document& doc,
                                          xml::NodeId context,
                                          const PathExpr& path) {
  EvalContext ctx;
  std::vector<xml::NodeId> out;
  EvaluatePathFrom(doc, context, path, &ctx, &out);
  return out;
}

bool EvaluatePredicate(const xml::Document& doc, xml::NodeId context,
                       const Predicate& pred, EvalContext* ctx) {
  switch (pred.kind) {
    case Predicate::Kind::kCompare: {
      // Attribute comparison: `p/@rank = 1` — evaluate the prefix path,
      // then test the named attribute of each matched element.
      std::vector<xml::NodeId> nodes;
      if (!pred.path.steps.empty() &&
          pred.path.steps.back().axis == Step::Axis::kAttribute) {
        const std::string& attr = pred.path.steps.back().name;
        EvaluateSteps(doc, context, pred.path.steps.data(),
                      pred.path.steps.data() + pred.path.steps.size() - 1,
                      ctx, &nodes);
        for (xml::NodeId id : nodes) {
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
      EvaluatePathFrom(doc, context, pred.path, ctx, &nodes);
      for (xml::NodeId id : nodes) {
        if (CompareScalarValues(CachedTextContent(doc, id, ctx), pred.literal,
                                pred.op)) {
          return true;
        }
      }
      return false;
    }
    case Predicate::Kind::kAnd:
      return EvaluatePredicate(doc, context, *pred.left, ctx) &&
             EvaluatePredicate(doc, context, *pred.right, ctx);
    case Predicate::Kind::kOr:
      return EvaluatePredicate(doc, context, *pred.left, ctx) ||
             EvaluatePredicate(doc, context, *pred.right, ctx);
    case Predicate::Kind::kNot:
      return !EvaluatePredicate(doc, context, *pred.left, ctx);
  }
  return false;
}

bool EvaluatePredicate(const xml::Document& doc, xml::NodeId context,
                       const Predicate& pred) {
  EvalContext ctx;
  return EvaluatePredicate(doc, context, pred, &ctx);
}

std::vector<xml::NodeId> QueryResult::AllSelected() const {
  std::vector<xml::NodeId> out;
  std::unordered_set<xml::NodeId> seen;
  for (const Binding& b : bindings) {
    for (const auto& group : b.selected) {
      for (xml::NodeId id : group) {
        if (seen.insert(id).second) out.push_back(id);
      }
    }
  }
  return out;
}

Result<std::vector<xml::NodeId>> EvaluateBindings(const xml::Document& doc,
                                                  const Query& q,
                                                  EvalContext* ctx,
                                                  bool check_doc_name) {
  ctx->InvalidateCaches();
  const xml::Node* root = doc.Find(doc.root());
  if (check_doc_name && root->name != q.doc_name) {
    return NotFound("query addresses document '" + q.doc_name +
                    "' but the target document root is '" + root->name + "'");
  }
  std::vector<xml::NodeId> bound;
  EvaluatePathFrom(doc, doc.root(), q.source, ctx, &bound);
  std::vector<xml::NodeId> out;
  for (xml::NodeId id : bound) {
    if (q.where == nullptr || EvaluatePredicate(doc, id, *q.where, ctx)) {
      out.push_back(id);
    }
  }
  return out;
}

Result<std::vector<xml::NodeId>> EvaluateBindings(const xml::Document& doc,
                                                  const Query& q,
                                                  bool check_doc_name) {
  EvalContext ctx;
  return EvaluateBindings(doc, q, &ctx, check_doc_name);
}

Result<QueryResult> EvaluateQuery(const xml::Document& doc, const Query& q,
                                  EvalContext* ctx, bool check_doc_name) {
  AXMLX_ASSIGN_OR_RETURN(auto bound,
                         EvaluateBindings(doc, q, ctx, check_doc_name));
  QueryResult result;
  for (xml::NodeId id : bound) {
    QueryResult::Binding binding;
    binding.node = id;
    for (const PathExpr& sel : q.selects) {
      std::vector<xml::NodeId> selected;
      EvaluatePathFrom(doc, id, sel, ctx, &selected);
      binding.selected.push_back(std::move(selected));
    }
    result.bindings.push_back(std::move(binding));
  }
  return result;
}

Result<QueryResult> EvaluateQuery(const xml::Document& doc, const Query& q,
                                  bool check_doc_name) {
  EvalContext ctx;
  return EvaluateQuery(doc, q, &ctx, check_doc_name);
}

}  // namespace axmlx::query
