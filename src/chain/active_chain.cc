#include "chain/active_chain.h"

#include <string_view>
#include <utility>

namespace axmlx::chain {

namespace {

void AppendNode(const ChainNode& node, std::string* out) {
  out->push_back('[');
  out->append(node.peer);
  if (node.super) out->push_back('*');
  if (!node.service.empty()) {
    out->push_back(':');
    out->append(node.service);
  }
  for (size_t i = 0; i < node.children.size(); ++i) {
    out->append(i == 0 ? " -> " : " || ");
    AppendNode(node.children[i], out);
  }
  out->push_back(']');
}

/// One pass over the bracket syntax. It checks the text, follows it with
/// the canonical spelling (AppendNode's), and with a non-null `tree` also
/// builds the tree. The canonical spelling is copied out only from the
/// first byte where it differs from the input, so canonical input costs no
/// copy here.
class ChainReader {
 public:
  explicit ChainReader(std::string_view text) : text_(text) {}

  Status Run(ChainNode* tree) {
    AXMLX_RETURN_IF_ERROR(ReadNode(tree));
    SkipSpace();
    if (pos_ != text_.size()) {
      return ParseError("chain: trailing characters");
    }
    return Status::Ok();
  }

  /// The canonical spelling of the text Run accepted.
  std::string Canonical() {
    return rewritten_ ? std::move(out_) : std::string(text_.substr(0, kept_));
  }

 private:
  // The "C" locale's isspace and isalnum, spelled out so the per-byte
  // tests inline.
  static bool IsSpace(char c) {
    return c == ' ' || (c >= '\t' && c <= '\r');
  }
  static bool IsLabelChar(char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c == '_';
  }

  void SkipSpace() {
    while (pos_ < text_.size() && IsSpace(text_[pos_])) ++pos_;
  }

  bool Consume(std::string_view token) {
    SkipSpace();
    if (text_.compare(pos_, token.size(), token) == 0) {
      pos_ += token.size();
      return true;
    }
    return false;
  }

  /// Appends `token` to the canonical spelling. While that spelling is a
  /// prefix of the input it is tracked as a length only.
  void Emit(std::string_view token) {
    if (!rewritten_) {
      if (text_.compare(kept_, token.size(), token) == 0) {
        kept_ += token.size();
        return;
      }
      rewritten_ = true;
      out_.assign(text_.substr(0, kept_));
    }
    out_.append(token);
  }

  /// An id or label: letters, digits, '_' and '-', except the '-' of the
  /// "->" child separator.
  std::string_view ReadLabel() {
    const size_t start = pos_;
    while (pos_ < text_.size() &&
           (IsLabelChar(text_[pos_]) ||
            (text_[pos_] == '-' &&
             (pos_ + 1 >= text_.size() || text_[pos_ + 1] != '>')))) {
      ++pos_;
    }
    return text_.substr(start, pos_ - start);
  }

  Status ReadNode(ChainNode* node) {
    if (!Consume("[")) return ParseError("chain: expected '['");
    Emit("[");
    SkipSpace();
    const std::string_view peer = ReadLabel();
    if (peer.empty()) return ParseError("chain: expected a peer id");
    Emit(peer);
    const bool super = pos_ < text_.size() && text_[pos_] == '*';
    if (super) {
      ++pos_;
      Emit("*");
    }
    std::string_view service;
    if (pos_ < text_.size() && text_[pos_] == ':') {
      ++pos_;
      service = ReadLabel();
      if (!service.empty()) {
        Emit(":");
        Emit(service);
      }
    }
    if (node != nullptr) {
      node->peer.assign(peer);
      node->super = super;
      node->service.assign(service);
    }
    if (Consume("->")) {
      Emit(" -> ");
      while (true) {
        ChainNode* child = nullptr;
        if (node != nullptr) child = &node->children.emplace_back();
        AXMLX_RETURN_IF_ERROR(ReadNode(child));
        if (!Consume("||")) break;
        Emit(" || ");
      }
    }
    if (!Consume("]")) return ParseError("chain: expected ']'");
    Emit("]");
    return Status::Ok();
  }

  std::string_view text_;
  size_t pos_ = 0;
  size_t kept_ = 0;  ///< Length of the canonical spelling while it is a
                     ///< prefix of the input.
  bool rewritten_ = false;
  std::string out_;  ///< The canonical spelling once it is not.
};

const ChainNode* FindRec(const ChainNode& node, const overlay::PeerId& peer) {
  if (node.peer == peer) return &node;
  for (const ChainNode& c : node.children) {
    if (const ChainNode* found = FindRec(c, peer)) return found;
  }
  return nullptr;
}

const ChainNode* FindParentRec(const ChainNode& node,
                               const overlay::PeerId& peer) {
  for (const ChainNode& c : node.children) {
    if (c.peer == peer) return &node;
    if (const ChainNode* found = FindParentRec(c, peer)) return found;
  }
  return nullptr;
}

void CollectRec(const ChainNode& node, std::vector<overlay::PeerId>* out) {
  out->push_back(node.peer);
  for (const ChainNode& c : node.children) CollectRec(c, out);
}

bool AllSuperRec(const ChainNode& node) {
  if (!node.super) return false;
  for (const ChainNode& c : node.children) {
    if (!AllSuperRec(c)) return false;
  }
  return true;
}

}  // namespace

ActivePeerChain::ActivePeerChain(ChainNode root) {
  if (root.peer.empty()) return;
  text_.clear();
  AppendNode(root, &text_);
  tree_ = std::move(root);
}

Result<ActivePeerChain> ActivePeerChain::Parse(const std::string& text) {
  ActivePeerChain chain;
  if (text == "[]" || text.empty()) return chain;
  ChainReader reader(text);
  AXMLX_RETURN_IF_ERROR(reader.Run(/*tree=*/nullptr));
  chain.text_ = reader.Canonical();
  return chain;
}

const ChainNode& ActivePeerChain::Tree() const {
  if (!tree_.has_value()) {
    // The text was accepted when it was kept, so reading it again builds
    // the whole tree.
    Status built = ChainReader(text_).Run(&tree_.emplace());
    (void)built;
  }
  return *tree_;
}

const ChainNode* ActivePeerChain::Find(const overlay::PeerId& peer) const {
  if (empty()) return nullptr;
  return FindRec(Tree(), peer);
}

const ChainNode* ActivePeerChain::FindParent(
    const overlay::PeerId& peer) const {
  if (empty()) return nullptr;
  return FindParentRec(Tree(), peer);
}

bool ActivePeerChain::Contains(const overlay::PeerId& peer) const {
  return Find(peer) != nullptr;
}

overlay::PeerId ActivePeerChain::ParentOf(const overlay::PeerId& peer) const {
  const ChainNode* parent = FindParent(peer);
  return parent == nullptr ? overlay::PeerId() : parent->peer;
}

std::vector<overlay::PeerId> ActivePeerChain::ChildrenOf(
    const overlay::PeerId& peer) const {
  std::vector<overlay::PeerId> out;
  const ChainNode* node = Find(peer);
  if (node == nullptr) return out;
  for (const ChainNode& c : node->children) out.push_back(c.peer);
  return out;
}

std::vector<overlay::PeerId> ActivePeerChain::SiblingsOf(
    const overlay::PeerId& peer) const {
  std::vector<overlay::PeerId> out;
  const ChainNode* parent = FindParent(peer);
  if (parent == nullptr) return out;
  for (const ChainNode& c : parent->children) {
    if (c.peer != peer) out.push_back(c.peer);
  }
  return out;
}

std::vector<overlay::PeerId> ActivePeerChain::AncestorsOf(
    const overlay::PeerId& peer) const {
  std::vector<overlay::PeerId> out;
  overlay::PeerId current = peer;
  while (true) {
    const ChainNode* parent = FindParent(current);
    if (parent == nullptr) break;
    out.push_back(parent->peer);
    current = parent->peer;
  }
  return out;
}

overlay::PeerId ActivePeerChain::NearestSuperPeer(
    const overlay::PeerId& peer) const {
  const ChainNode* node = Find(peer);
  if (node != nullptr && node->super) return peer;
  overlay::PeerId current = peer;
  while (true) {
    const ChainNode* parent = FindParent(current);
    if (parent == nullptr) return overlay::PeerId();
    if (parent->super) return parent->peer;
    current = parent->peer;
  }
}

std::vector<overlay::PeerId> ActivePeerChain::AllPeers() const {
  std::vector<overlay::PeerId> out;
  if (!empty()) CollectRec(Tree(), &out);
  return out;
}

std::vector<overlay::PeerId> ActivePeerChain::SubtreeOf(
    const overlay::PeerId& peer) const {
  std::vector<overlay::PeerId> out;
  const ChainNode* node = Find(peer);
  if (node != nullptr) CollectRec(*node, &out);
  return out;
}

bool ActivePeerChain::AtomicityGuaranteed() const {
  if (empty()) return false;
  return AllSuperRec(Tree());
}

std::vector<overlay::PeerId> ActivePeerChain::RelativesByDistance(
    const overlay::PeerId& peer) const {
  std::vector<overlay::PeerId> out;
  if (Find(peer) == nullptr) return out;
  // BFS over the undirected tree induced by parent/child edges.
  std::vector<overlay::PeerId> frontier = {peer};
  std::vector<overlay::PeerId> visited = {peer};
  auto seen = [&visited](const overlay::PeerId& p) {
    for (const overlay::PeerId& v : visited) {
      if (v == p) return true;
    }
    return false;
  };
  while (!frontier.empty()) {
    std::vector<overlay::PeerId> next;
    for (const overlay::PeerId& cur : frontier) {
      std::vector<overlay::PeerId> neighbors = ChildrenOf(cur);
      overlay::PeerId parent = ParentOf(cur);
      if (!parent.empty()) neighbors.push_back(parent);
      for (const overlay::PeerId& n : neighbors) {
        if (seen(n)) continue;
        visited.push_back(n);
        next.push_back(n);
        out.push_back(n);
      }
    }
    frontier = std::move(next);
  }
  return out;
}

}  // namespace axmlx::chain
