#include "xml/element_path.h"

#include <string>

namespace axmlx::xml {

namespace {

bool SpellableInPath(const std::string& name) {
  return !name.empty() && name.find_first_of("/[]") == std::string::npos;
}

}  // namespace

Status AppendElementPath(const Document& doc, NodeId id, std::string* out) {
  const Node* n = doc.Find(id);
  if (n == nullptr) {
    return NotFound("no node " + std::to_string(id) + " to name by path");
  }
  if (!n->is_element()) {
    return FailedPrecondition("node " + std::to_string(id) +
                              " is not an element; paths name elements");
  }
  // Climb to the root, writing each step in front of the ones below it.
  const size_t start = out->size();
  std::string step;
  for (;;) {
    if (!SpellableInPath(n->name)) {
      out->resize(start);
      return FailedPrecondition("element name '" + n->name +
                                "' cannot be spelled in a path");
    }
    step.assign("/").append(n->name);
    const Node* parent = doc.Find(n->parent);
    if (parent == nullptr) break;
    size_t index = 0;
    for (NodeId c : parent->children) {
      if (c == n->id) break;
      const Node* sibling = doc.Find(c);
      if (sibling->is_element() && sibling->name_id == n->name_id) ++index;
    }
    step.append("[").append(std::to_string(index)).append("]");
    out->insert(start, step);
    n = parent;
  }
  if (n->id != doc.root()) {
    out->resize(start);
    return FailedPrecondition("node " + std::to_string(id) +
                              " is not attached to the document");
  }
  out->insert(start, step);
  return Status::Ok();
}

Result<NodeId> ResolveElementPath(const Document& doc, std::string_view path) {
  auto malformed = [path]() {
    return InvalidArgument("malformed element path '" + std::string(path) +
                           "'");
  };
  if (path.size() < 2 || path[0] != '/') return malformed();
  std::string_view rest = path.substr(1);
  size_t slash = rest.find('/');
  const std::string_view root_name = rest.substr(0, slash);
  const Node* node = doc.Find(doc.root());
  if (node == nullptr || node->name != root_name) {
    return NotFound("path '" + std::string(path) +
                    "' names root element '" + std::string(root_name) + "'");
  }
  while (slash != std::string_view::npos) {
    rest.remove_prefix(slash + 1);
    slash = rest.find('/');
    const std::string_view step = rest.substr(0, slash);
    const size_t open = step.find('[');
    if (open == 0 || open == std::string_view::npos || step.back() != ']' ||
        open + 2 >= step.size() || step.size() - open > 12) {
      return malformed();
    }
    size_t index = 0;
    for (char c : step.substr(open + 1, step.size() - open - 2)) {
      if (c < '0' || c > '9') return malformed();
      index = index * 10 + static_cast<size_t>(c - '0');
    }
    const NameId name_id = doc.FindNameId(step.substr(0, open));
    const Node* found = nullptr;
    if (name_id != kNoName) {
      for (NodeId c : node->children) {
        const Node* child = doc.Find(c);
        if (!child->is_element() || child->name_id != name_id) continue;
        if (index == 0) {
          found = child;
          break;
        }
        --index;
      }
    }
    if (found == nullptr) {
      return NotFound("path '" + std::string(path) + "' step '" +
                      std::string(step) + "' names no element");
    }
    node = found;
  }
  return node->id;
}

}  // namespace axmlx::xml
