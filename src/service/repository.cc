#include "service/repository.h"

#include <utility>

#include "xml/builder.h"

namespace axmlx::service {

Status Repository::AddDocument(std::unique_ptr<xml::Document> doc) {
  const xml::Node* root = doc->Find(doc->root());
  std::string name = root->name;
  if (documents_.count(name) > 0) {
    return AlreadyExists("Repository already hosts a document named " + name);
  }
  documents_[name] = std::move(doc);
  return Status::Ok();
}

void Repository::PutDocument(std::unique_ptr<xml::Document> doc) {
  const xml::Node* root = doc->Find(doc->root());
  documents_[root->name] = std::move(doc);
}

xml::Document* Repository::GetDocument(const std::string& name) {
  auto it = documents_.find(name);
  return it == documents_.end() ? nullptr : it->second.get();
}

const xml::Document* Repository::GetDocument(const std::string& name) const {
  auto it = documents_.find(name);
  return it == documents_.end() ? nullptr : it->second.get();
}

std::vector<std::string> Repository::DocumentNames() const {
  std::vector<std::string> names;
  names.reserve(documents_.size());
  for (const auto& [name, doc] : documents_) names.push_back(name);
  return names;
}

Status Repository::AddService(ServiceDefinition service) {
  if (services_.count(service.name) > 0) {
    return AlreadyExists("Repository already hosts a service named " +
                         service.name);
  }
  services_[service.name] = std::move(service);
  return Status::Ok();
}

void Repository::PutService(ServiceDefinition service) {
  services_[service.name] = std::move(service);
}

const ServiceDefinition* Repository::FindService(
    const std::string& name) const {
  auto it = services_.find(name);
  return it == services_.end() ? nullptr : &it->second;
}

std::vector<std::string> Repository::ServiceNames() const {
  std::vector<std::string> names;
  names.reserve(services_.size());
  for (const auto& [name, def] : services_) names.push_back(name);
  return names;
}

std::string SubstituteParams(
    const std::string& text,
    const std::vector<std::pair<std::string, std::string>>& params) {
  std::string out = text;
  for (const auto& [key, value] : params) {
    std::string token = "${" + key + "}";
    size_t pos = 0;
    while ((pos = out.find(token, pos)) != std::string::npos) {
      out.replace(pos, token.size(), value);
      pos += value.size();
    }
  }
  return out;
}

Result<InvocationOutcome> ServiceHost::Invoke(
    const std::string& name,
    const std::vector<std::pair<std::string, std::string>>& params,
    int64_t lock_id) {
  const ServiceDefinition* service = repo_->FindService(name);
  if (service == nullptr) {
    return NotFound("peer does not host a service named " + name);
  }
  InvocationOutcome outcome;
  outcome.result_fragment = std::make_unique<xml::Document>("result");

  if (service->native) {
    axml::ServiceRequest request;
    request.method_name = name;
    request.params = params;
    AXMLX_ASSIGN_OR_RETURN(axml::ServiceResponse response,
                           service->native(request));
    if (response.fragment != nullptr) {
      const xml::Node* frag_root =
          response.fragment->Find(response.fragment->root());
      for (xml::NodeId c : frag_root->children) {
        AXMLX_ASSIGN_OR_RETURN(
            xml::NodeId copy,
            outcome.result_fragment->ImportSubtree(*response.fragment, c));
        AXMLX_RETURN_IF_ERROR(outcome.result_fragment->AppendChild(
            outcome.result_fragment->root(), copy));
      }
    }
    return outcome;
  }

  xml::Document* doc = repo_->GetDocument(service->document);
  if (doc == nullptr) {
    return NotFound("service " + name + " targets unknown document '" +
                    service->document + "'");
  }
  ops::Executor executor(doc, downstream_);
  executor.SetEvalContext(&eval_ctx_);
  executor.SetCallCatalog(repo_->Catalog(service->document));
  // The locking baseline (when enabled) runs the forward operations under
  // path locks; compensation runs through the plain executor, covered by
  // the locks the transaction already holds.
  const bool locking = locks_ != nullptr && lock_id != 0;
  baseline::LockedExecutor locked(doc, downstream_, locks_);
  for (const auto& [key, value] : params) {
    executor.SetExternal(key, value);
    locked.SetExternal(key, value);
  }
  for (const ops::Operation& op_template : service->ops) {
    ops::Operation op = op_template;
    op.location = SubstituteParams(op.location, params);
    op.data_xml = SubstituteParams(op.data_xml, params);
    auto effect_or = locking ? locked.Execute(lock_id, op)
                             : executor.Execute(op);
    if (!effect_or.ok() &&
        effect_or.status().code() == StatusCode::kConflict) {
      comp::CompensationPlan partial =
          comp::CompensationBuilder::ForLog(outcome.effects);
      Status undo = comp::ApplyPlan(&executor, partial);
      if (!undo.ok()) {
        // The partial rollback itself failed: the document now holds a
        // half-applied invocation, which is worse than the conflict.
        return Internal("partial rollback failed after LockConflict: " +
                        undo.ToString());
      }
      return ServiceFault("LockConflict: " + effect_or.status().message());
    }
    if (!effect_or.ok()) {
      // Undo this service's earlier operations before reporting the fault:
      // the service invocation itself is atomic on its hosting peer.
      comp::CompensationPlan partial =
          comp::CompensationBuilder::ForLog(outcome.effects);
      Status undo = comp::ApplyPlan(&executor, partial);
      if (!undo.ok()) {
        return Internal("partial rollback failed after " +
                        effect_or.status().ToString() + ": " +
                        undo.ToString());
      }
      return effect_or.status();
    }
    ops::OpEffect effect = std::move(effect_or).value();
    // Copy query results / inserted nodes into the result fragment.
    if (op.type == ops::ActionType::kQuery) {
      for (xml::NodeId id : effect.query_result.AllSelected()) {
        AXMLX_ASSIGN_OR_RETURN(xml::NodeId copy,
                               outcome.result_fragment->ImportSubtree(*doc, id));
        AXMLX_RETURN_IF_ERROR(outcome.result_fragment->AppendChild(
            outcome.result_fragment->root(), copy));
      }
    } else {
      for (xml::NodeId id : effect.inserted) {
        xml::NodeId ack = xml::AddElement(outcome.result_fragment.get(),
                                          outcome.result_fragment->root(),
                                          "inserted");
        AXMLX_RETURN_IF_ERROR(outcome.result_fragment->SetAttribute(
            ack, "id", std::to_string(id)));
      }
    }
    outcome.effects.Append(std::move(effect));
  }
  outcome.nodes_affected = outcome.effects.TotalNodesAffected();
  outcome.compensation = comp::CompensationBuilder::ForLog(outcome.effects);
  return outcome;
}

}  // namespace axmlx::service
