#ifndef AXMLX_QUERY_NAIVE_EVAL_H_
#define AXMLX_QUERY_NAIVE_EVAL_H_

#include <vector>

#include "common/status.h"
#include "query/ast.h"
#include "query/eval.h"
#include "xml/document.h"

namespace axmlx::query::naive {

/// Reference evaluator: the straightforward recursive implementation the
/// indexed evaluator in eval.cc replaced. It matches tag names by string
/// comparison, walks the tree for every descendant step, and allocates
/// fresh vectors per step — deliberately independent of the NameId intern
/// table, the document tag index, and EvalContext scratch state.
///
/// Kept for two reasons: differential tests assert the optimized evaluator
/// returns node-for-node identical results, and benchmarks use it as the
/// pre-optimization baseline. Semantics (visibility rules, comparison
/// trimming) are identical to eval.h by construction — both share
/// CompareScalarValues and the §3.1 service-call transparency rules.
std::vector<xml::NodeId> EvaluatePathFrom(const xml::Document& doc,
                                          xml::NodeId context,
                                          const PathExpr& path);

bool EvaluatePredicate(const xml::Document& doc, xml::NodeId context,
                       const Predicate& pred);

Result<std::vector<xml::NodeId>> EvaluateBindings(const xml::Document& doc,
                                                  const Query& q,
                                                  bool check_doc_name = true);

Result<QueryResult> EvaluateQuery(const xml::Document& doc, const Query& q,
                                  bool check_doc_name = true);

}  // namespace axmlx::query::naive

#endif  // AXMLX_QUERY_NAIVE_EVAL_H_
