#include "axml/call_catalog.h"

#include <algorithm>

#include "axml/service_call.h"
#include "query/eval.h"

namespace axmlx::axml {

CallIndex CallIndex::Build(const xml::Document& doc, xml::NodeId from) {
  CallIndex index;
  index.from_ = from;
  index.identity_ = doc.identity();
  index.generation_ = doc.call_shape_generation();
  index.calls_ = FindServiceCalls(doc, from);
  const uint32_t n = static_cast<uint32_t>(index.calls_.size());
  index.positions_.reserve(n);
  index.spans_.push_back({from, 0, n});
  // Visible calls are descendants of `from` in document order, so the calls
  // visible from each node on the way up form one contiguous run. `chain`
  // holds the spans_ slots of the previous call's path, top-down: a node
  // that drops off it is never an ancestor of a later call.
  std::vector<size_t> chain = {0};
  std::vector<xml::NodeId> climbed;
  for (uint32_t pos = 0; pos < n; ++pos) {
    const xml::NodeId sc = index.calls_[pos];
    if (Status status = ValidateServiceCall(doc, sc); !status.ok()) {
      index.malformed_.emplace_back(pos, std::move(status));
    }
    index.positions_.emplace_back(sc, pos);
    const xml::Node* call = doc.Find(sc);
    for (const char* key : {"outputName", "methodName"}) {
      const std::string* v = call->FindAttribute(key);
      if (v != nullptr && !v->empty()) index.named_.emplace_back(*v, pos);
    }
    climbed.clear();
    size_t keep = 0;
    for (xml::NodeId cur = sc;; cur = doc.Find(cur)->parent) {
      auto on_chain = std::find_if(
          chain.rbegin(), chain.rend(),
          [&index, cur](size_t slot) { return index.spans_[slot].node == cur; });
      if (on_chain != chain.rend()) {
        keep = static_cast<size_t>(chain.rend() - on_chain);
        break;
      }
      climbed.push_back(cur);
    }
    chain.resize(keep);
    for (size_t slot : chain) index.spans_[slot].end = pos + 1;
    for (size_t i = climbed.size(); i > 0; --i) {
      chain.push_back(index.spans_.size());
      index.spans_.push_back({climbed[i - 1], pos, pos + 1});
    }
  }
  std::sort(index.positions_.begin(), index.positions_.end());
  std::sort(index.spans_.begin(), index.spans_.end(),
            [](const Span& a, const Span& b) { return a.node < b.node; });
  std::sort(index.named_.begin(), index.named_.end());
  index.named_.erase(std::unique(index.named_.begin(), index.named_.end()),
                     index.named_.end());
  return index;
}

uint32_t CallIndex::PositionOf(xml::NodeId sc) const {
  auto it = std::lower_bound(
      positions_.begin(), positions_.end(), sc,
      [](const std::pair<xml::NodeId, uint32_t>& e, xml::NodeId id) {
        return e.first < id;
      });
  return it != positions_.end() && it->first == sc ? it->second : kNoPosition;
}

bool CallIndex::SpanOf(xml::NodeId node, uint32_t* begin,
                       uint32_t* end) const {
  auto it = std::lower_bound(
      spans_.begin(), spans_.end(), node,
      [](const Span& s, xml::NodeId id) { return s.node < id; });
  if (it == spans_.end() || it->node != node) return false;
  *begin = it->begin;
  *end = it->end;
  return true;
}

void CallIndex::AppendNeeded(const xml::Document& doc,
                             const std::unordered_set<std::string>& wanted,
                             uint32_t begin, uint32_t end,
                             std::vector<uint32_t>* out) const {
  const size_t first = out->size();
  auto add = [begin, end, out](uint32_t pos) {
    if (pos >= begin && pos < end) out->push_back(pos);
  };
  std::vector<xml::NodeId> hits;
  // Order-insensitive: the positions are sorted below. lint:allow(R7)
  for (const std::string& name : wanted) {
    if (name.empty()) continue;
    auto named = std::equal_range(
        named_.begin(), named_.end(), std::make_pair(name, uint32_t{0}),
        [](const std::pair<std::string, uint32_t>& a,
           const std::pair<std::string, uint32_t>& b) {
          return a.first < b.first;
        });
    for (auto it = named.first; it != named.second; ++it) add(it->second);
    const xml::NameId name_id = doc.FindNameId(name);
    if (name_id == xml::kNoName) continue;
    hits.clear();
    doc.CollectElementsNamed(name_id, &hits);
    for (xml::NodeId hit : hits) {
      const xml::Node* n = doc.Find(hit);
      if (IsResultChild(*n)) add(PositionOf(n->parent));
    }
  }
  std::sort(out->begin() + static_cast<std::ptrdiff_t>(first), out->end());
  out->erase(std::unique(out->begin() + static_cast<std::ptrdiff_t>(first),
                         out->end()),
             out->end());
}

CallView CallCatalog::VisibleFrom(xml::Document* doc, xml::NodeId node) {
  const uint64_t generation = doc->WatchCallShape();
  if (root_ == nullptr || root_->identity() != doc->identity() ||
      root_->generation() != generation || root_->from() != doc->root()) {
    root_ = std::make_shared<const CallIndex>(CallIndex::Build(*doc, doc->root()));
    ++builds_;
  }
  uint32_t begin = 0;
  uint32_t end = 0;
  if (root_->SpanOf(node, &begin, &end)) {
    return begin == end ? CallView{} : CallView{root_, begin, end};
  }
  // Off every path to a call: visible from the root (no bookkeeping element
  // on the way up to the root or to a path node) means no calls at all.
  for (xml::NodeId cur = node;;) {
    const xml::Node* n = doc->Find(cur);
    if (n == nullptr || query::IsBookkeepingElement(*n)) break;
    cur = n->parent;
    if (cur == xml::kNullNode) break;
    if (root_->SpanOf(cur, &begin, &end)) return CallView{};
  }
  auto own = std::make_shared<const CallIndex>(CallIndex::Build(*doc, node));
  const auto size = static_cast<uint32_t>(own->calls().size());
  return size == 0 ? CallView{} : CallView{std::move(own), 0, size};
}

}  // namespace axmlx::axml
