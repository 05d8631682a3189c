#ifndef AXMLX_QUERY_EVAL_H_
#define AXMLX_QUERY_EVAL_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "query/ast.h"
#include "xml/document.h"

namespace axmlx::query {

/// AXML-aware navigation helpers.
///
/// The evaluator treats `axml:sc` (embedded service call) elements as
/// *transparent containers*: their materialized result children are visible
/// as if they were children of the service call's parent element, while
/// bookkeeping children (`axml:params`, fault handlers) are invisible to
/// queries. This is what makes the paper's Query A see
/// `player/grandslamswon` even though the nodes physically live inside an
/// `<axml:sc>` element (§3.1).
bool IsServiceCallElement(const xml::Node& node);

/// True for `axml:params`, `axml:catch`, `axml:catchAll`, `axml:retry` —
/// service-call bookkeeping that queries must not see.
bool IsBookkeepingElement(const xml::Node& node);

/// Returns the query-visible children of `id` (service calls expanded,
/// bookkeeping skipped). Text and element nodes only.
std::vector<xml::NodeId> QueryChildren(const xml::Document& doc,
                                       xml::NodeId id);

/// Allocation-free form: appends the query-visible children of `id`.
void QueryChildrenInto(const xml::Document& doc, xml::NodeId id,
                       std::vector<xml::NodeId>* out);

/// Returns the query-visible parent of `id`: the nearest ancestor that is
/// neither a service call nor bookkeeping, or kNullNode.
xml::NodeId QueryParent(const xml::Document& doc, xml::NodeId id);

/// Evaluation counters for one or more evaluations sharing an EvalContext.
struct EvalStats {
  int64_t index_hits = 0;        ///< Descendant steps served by the tag index.
  int64_t index_candidates = 0;  ///< Candidate ids pulled from the index.
  int64_t walk_fallbacks = 0;    ///< Descendant steps that walked the tree.
  int64_t text_cache_hits = 0;   ///< TextContent served from the memo.
};

/// Reusable evaluation scratch state: work buffers for the iterative
/// walks, the per-evaluation TextContent memo, and counters. Reusing one
/// EvalContext across evaluations keeps the hot path allocation-free once
/// the buffers are warm. Treat everything except `stats` as opaque.
struct EvalContext {
  EvalStats stats;

  // Scratch (internal): cleared/reused by the evaluator.
  std::vector<xml::NodeId> walk_stack;
  std::vector<xml::NodeId> candidates;
  std::vector<xml::NodeId> step_out;
  std::vector<xml::NodeId> path_current;
  std::vector<xml::NodeId> axis_scratch;
  std::unordered_set<xml::NodeId> seen;
  std::unordered_map<xml::NodeId, std::string> text_cache;
  std::unordered_map<xml::NodeId, uint32_t> sibling_index_cache;
  std::vector<std::pair<std::vector<uint32_t>, xml::NodeId>> order_keys;

  /// Parsed location queries by text, for callers that run the same few
  /// locations over and over (a DurableStore journaling or replaying a
  /// peer's operations). Holds at most kMaxParsedQueries; a full cache
  /// starts over.
  static constexpr size_t kMaxParsedQueries = 64;
  std::map<std::string, Query, std::less<>> parsed_queries;

  /// The parsed form of `text`, from parsed_queries or parsed now.
  Result<const Query*> ParsedQuery(std::string_view text);

  /// Drops memoized per-document state (call after mutating the document).
  void InvalidateCaches() {
    text_cache.clear();
    sibling_index_cache.clear();
  }
};

/// Compares two scalar values under `op`. Both sides are compared
/// numerically when both parse fully as numbers after trimming ASCII
/// whitespace (so " 7" equals "7"); otherwise they compare as raw strings.
bool CompareScalarValues(const std::string& lhs, const std::string& rhs,
                         CompareOp op);

/// Evaluates a path expression from a single context node. Returns matched
/// node ids in document order without duplicates.
std::vector<xml::NodeId> EvaluatePathFrom(const xml::Document& doc,
                                          xml::NodeId context,
                                          const PathExpr& path);

/// As above, appending into `out` and using `ctx` scratch buffers.
void EvaluatePathFrom(const xml::Document& doc, xml::NodeId context,
                      const PathExpr& path, EvalContext* ctx,
                      std::vector<xml::NodeId>* out);

/// Evaluates `pred` for the binding `context`. Comparisons are existential
/// over the path's node set; values compare numerically when both sides
/// (after trimming ASCII whitespace) parse as numbers, else as strings.
bool EvaluatePredicate(const xml::Document& doc, xml::NodeId context,
                       const Predicate& pred);
bool EvaluatePredicate(const xml::Document& doc, xml::NodeId context,
                       const Predicate& pred, EvalContext* ctx);

/// Result of a full query evaluation.
struct QueryResult {
  struct Binding {
    xml::NodeId node = xml::kNullNode;  ///< The bound variable's node.
    /// selected[i] = nodes matched by the i-th select path for this binding.
    std::vector<std::vector<xml::NodeId>> selected;
  };
  std::vector<Binding> bindings;

  /// All selected node ids across bindings and select paths, deduplicated,
  /// in first-seen order.
  std::vector<xml::NodeId> AllSelected() const;
};

/// Evaluates a parsed query against `doc`. The query's `doc_name` must match
/// the root element name of `doc` (the paper addresses documents by name,
/// e.g. `ATPList//player`); pass `check_doc_name=false` to skip that check.
Result<QueryResult> EvaluateQuery(const xml::Document& doc, const Query& q,
                                  bool check_doc_name = true);
Result<QueryResult> EvaluateQuery(const xml::Document& doc, const Query& q,
                                  EvalContext* ctx,
                                  bool check_doc_name = true);

/// Finds the nodes bound by the query's `from ... in <source>` clause that
/// satisfy the `where` clause — i.e. the *target nodes* of a `<location>`
/// expression, before applying select paths.
Result<std::vector<xml::NodeId>> EvaluateBindings(const xml::Document& doc,
                                                  const Query& q,
                                                  bool check_doc_name = true);
Result<std::vector<xml::NodeId>> EvaluateBindings(const xml::Document& doc,
                                                  const Query& q,
                                                  EvalContext* ctx,
                                                  bool check_doc_name = true);

}  // namespace axmlx::query

#endif  // AXMLX_QUERY_EVAL_H_
