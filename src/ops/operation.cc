#include "ops/operation.h"

#include <cstdlib>
#include <optional>
#include <string_view>
#include <vector>

#include "common/strings.h"
#include "xml/builder.h"
#include "xml/id_codec.h"
#include "xml/parser.h"

namespace axmlx::ops {

const char* ActionTypeName(ActionType type) {
  switch (type) {
    case ActionType::kQuery:
      return "query";
    case ActionType::kInsert:
      return "insert";
    case ActionType::kDelete:
      return "delete";
    case ActionType::kReplace:
      return "replace";
  }
  return "?";
}

std::string Operation::ToXml() const {
  std::string out;
  out.reserve(64 + data_xml.size() + location.size());
  out.append("<action type=\"").append(ActionTypeName(type)).push_back('"');
  if (target_node != xml::kNullNode) {
    out.append(" targetNode=\"").append(std::to_string(target_node));
    out.push_back('"');
  }
  if (has_position) {
    out.append(" position=\"").append(std::to_string(position));
    out.push_back('"');
  }
  if (anchor == Anchor::kBefore) out.append(" anchor=\"before\"");
  if (anchor == Anchor::kAfter) out.append(" anchor=\"after\"");
  if (eager) out.append(" eval=\"eager\"");
  if (restore != nullptr) {
    // The restored subtree's ids, so a replay re-attaches it exactly as the
    // live run did (xml/id_codec.h). `data_xml` is its serialization.
    std::vector<xml::NodeId> ids = xml::ExactIdsOf(*restore);
    if (!ids.empty()) {
      out.append(" ids=\"").append(xml::EncodeIdList(ids)).push_back('"');
    }
  }
  out.push_back('>');
  if (!data_xml.empty()) out.append("<data>").append(data_xml).append("</data>");
  if (!location.empty()) {
    out.append("<location>");
    AppendXmlEscaped(location, &out);
    out.append("</location>");
  }
  out.append("</action>");
  return out;
}

namespace {

bool ParseActionType(std::string_view name, ActionType* type) {
  if (name == "query") {
    *type = ActionType::kQuery;
  } else if (name == "insert") {
    *type = ActionType::kInsert;
  } else if (name == "delete") {
    *type = ActionType::kDelete;
  } else if (name == "replace") {
    *type = ActionType::kReplace;
  } else {
    return false;
  }
  return true;
}

bool ParseCount(std::string_view text, uint64_t* value) {
  if (text.empty() || text.size() > 18) return false;
  uint64_t v = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<uint64_t>(c - '0');
  }
  *value = v;
  return true;
}

bool Consume(std::string_view* text, std::string_view prefix) {
  if (text->substr(0, prefix.size()) != prefix) return false;
  text->remove_prefix(prefix.size());
  return true;
}

/// Attaches the restore subtree named by an `ids` attribute.
Status AttachRestore(std::string_view id_list, Operation* op) {
  AXMLX_ASSIGN_OR_RETURN(xml::DetachedSubtree subtree,
                         xml::DecodeSubtree(op->data_xml, id_list));
  op->restore = std::make_shared<const xml::DetachedSubtree>(
      std::move(subtree));
  return Status::Ok();
}

/// Decodes exactly the form ToXml writes, without building a Document:
/// attributes in ToXml's order with plain values, then optional <data> and
/// <location>. Returns false (leaving `op` unspecified) for any other
/// spelling, which the general parser then handles. `ids` receives the
/// `ids` attribute when present.
bool ParseCanonical(std::string_view text, Operation* op,
                    std::optional<std::string_view>* ids) {
  if (!Consume(&text, "<action type=\"")) return false;
  size_t quote = text.find('"');
  if (quote == std::string_view::npos ||
      !ParseActionType(text.substr(0, quote), &op->type)) {
    return false;
  }
  text.remove_prefix(quote + 1);
  while (Consume(&text, " ")) {
    size_t eq = text.find("=\"");
    if (eq == std::string_view::npos) return false;
    std::string_view name = text.substr(0, eq);
    text.remove_prefix(eq + 2);
    quote = text.find('"');
    if (quote == std::string_view::npos) return false;
    std::string_view value = text.substr(0, quote);
    text.remove_prefix(quote + 1);
    uint64_t number = 0;
    if (name == "targetNode" && ParseCount(value, &number)) {
      op->target_node = number;
    } else if (name == "position" && ParseCount(value, &number)) {
      op->has_position = true;
      op->position = number;
    } else if (name == "anchor" && value == "before") {
      op->anchor = Operation::Anchor::kBefore;
    } else if (name == "anchor" && value == "after") {
      op->anchor = Operation::Anchor::kAfter;
    } else if (name == "eval" && value == "eager") {
      op->eager = true;
    } else if (name == "ids") {
      *ids = value;
    } else {
      return false;
    }
  }
  if (!Consume(&text, ">") || !EndsWith(text, "</action>")) return false;
  text.remove_suffix(9);
  if (EndsWith(text, "</location>")) {
    size_t open = text.rfind("<location>");
    if (open == std::string_view::npos) return false;
    std::string_view escaped =
        text.substr(open + 10, text.size() - open - 10 - 11);
    if (escaped.find('<') != std::string_view::npos) return false;
    op->location = std::string(StripWhitespace(XmlUnescape(escaped)));
    text = text.substr(0, open);
  }
  if (text.empty()) return true;
  if (!Consume(&text, "<data>") || !EndsWith(text, "</data>")) return false;
  text.remove_suffix(7);
  op->data_xml = std::string(text);
  return true;
}

}  // namespace

Result<Operation> Operation::FromXml(std::string_view xml_text) {
  {
    Operation op;
    std::optional<std::string_view> ids;
    if (ParseCanonical(xml_text, &op, &ids)) {
      if (ids.has_value()) AXMLX_RETURN_IF_ERROR(AttachRestore(*ids, &op));
      return op;
    }
  }
  AXMLX_ASSIGN_OR_RETURN(auto doc, xml::Parse(xml_text));
  const xml::Node* root = doc->Find(doc->root());
  if (root->name != "action") {
    return ParseError("Operation::FromXml: expected an <action> element");
  }
  Operation op;
  const std::string* type = root->FindAttribute("type");
  if (type == nullptr) {
    return ParseError("Operation::FromXml: missing 'type' attribute");
  }
  if (!ParseActionType(*type, &op.type)) {
    return ParseError("Operation::FromXml: unknown action type '" + *type +
                      "'");
  }
  if (const std::string* t = root->FindAttribute("targetNode")) {
    op.target_node = std::strtoull(t->c_str(), nullptr, 10);
  }
  if (const std::string* p = root->FindAttribute("position")) {
    op.has_position = true;
    op.position = std::strtoull(p->c_str(), nullptr, 10);
  }
  if (const std::string* e = root->FindAttribute("eval")) {
    op.eager = (*e == "eager");
  }
  if (const std::string* a = root->FindAttribute("anchor")) {
    if (*a == "before") {
      op.anchor = Operation::Anchor::kBefore;
    } else if (*a == "after") {
      op.anchor = Operation::Anchor::kAfter;
    }
  }
  xml::NodeId loc = xml::FirstChildElement(*doc, doc->root(), "location");
  if (loc != xml::kNullNode) {
    op.location = std::string(StripWhitespace(doc->TextContent(loc)));
  }
  xml::NodeId data = xml::FirstChildElement(*doc, doc->root(), "data");
  if (data != xml::kNullNode) {
    // Re-serialize the data children to get a canonical payload.
    std::string payload;
    for (xml::NodeId c : doc->Find(data)->children) {
      payload += doc->Serialize(c);
    }
    op.data_xml = payload;
  }
  if (const std::string* ids = root->FindAttribute("ids")) {
    AXMLX_RETURN_IF_ERROR(AttachRestore(*ids, &op));
  }
  return op;
}

Operation MakeQuery(std::string location, bool eager) {
  Operation op;
  op.type = ActionType::kQuery;
  op.location = std::move(location);
  op.eager = eager;
  return op;
}

Operation MakeInsert(std::string location, std::string data_xml) {
  Operation op;
  op.type = ActionType::kInsert;
  op.location = std::move(location);
  op.data_xml = std::move(data_xml);
  return op;
}

Operation MakeDelete(std::string location) {
  Operation op;
  op.type = ActionType::kDelete;
  op.location = std::move(location);
  return op;
}

Operation MakeReplace(std::string location, std::string data_xml) {
  Operation op;
  op.type = ActionType::kReplace;
  op.location = std::move(location);
  op.data_xml = std::move(data_xml);
  return op;
}

Operation MakeDeleteById(xml::NodeId node) {
  Operation op;
  op.type = ActionType::kDelete;
  op.target_node = node;
  return op;
}

Operation MakeInsertAt(xml::NodeId parent, size_t position,
                       std::string data_xml) {
  Operation op;
  op.type = ActionType::kInsert;
  op.target_node = parent;
  op.has_position = true;
  op.position = position;
  op.data_xml = std::move(data_xml);
  return op;
}

Operation MakeInsertBefore(std::string location, std::string data_xml) {
  Operation op = MakeInsert(std::move(location), std::move(data_xml));
  op.anchor = Operation::Anchor::kBefore;
  return op;
}

Operation MakeInsertAfter(std::string location, std::string data_xml) {
  Operation op = MakeInsert(std::move(location), std::move(data_xml));
  op.anchor = Operation::Anchor::kAfter;
  return op;
}

}  // namespace axmlx::ops
