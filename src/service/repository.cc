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

/// Collects an invocation's result nodes: as the RESULT text a remote
/// invoker receives, or as the fragment Document a local materialization
/// reads.
class ServiceHost::ResultSink {
 public:
  /// Text mode: `*text` becomes the RESULT body once Finish runs.
  explicit ResultSink(std::string* text) : text_(text) {}
  /// Fragment mode.
  ResultSink() = default;

  /// A native service's response: its fragment's root children are the
  /// result nodes. Fragment mode keeps the fragment as it is.
  Status AddResponse(axml::ServiceResponse response) {
    if (text_ == nullptr) {
      fragment_ = std::move(response.fragment);
      return Status::Ok();
    }
    if (response.fragment == nullptr) return Status::Ok();
    const xml::Document& frag = *response.fragment;
    for (xml::NodeId c : frag.Find(frag.root())->children) {
      AXMLX_RETURN_IF_ERROR(AddCopy(frag, c));
    }
    return Status::Ok();
  }

  /// A copy of the subtree at `id` of `doc`.
  Status AddCopy(const xml::Document& doc, xml::NodeId id) {
    if (text_ != nullptr) {
      if (doc.Find(id) == nullptr) {
        return NotFound("result: unknown source node");
      }
      Open();
      doc.SerializeTo(id, text_);
      return Status::Ok();
    }
    xml::Document* frag = Fragment();
    AXMLX_ASSIGN_OR_RETURN(xml::NodeId copy, frag->ImportSubtree(doc, id));
    return frag->AppendChild(frag->root(), copy);
  }

  /// The `<inserted id="…"/>` acknowledgement of an inserted node.
  Status AddInserted(xml::NodeId id) {
    if (text_ != nullptr) {
      Open();
      text_->append("<inserted id=\"")
          .append(std::to_string(id))
          .append("\"/>");
      return Status::Ok();
    }
    xml::Document* frag = Fragment();
    const xml::NodeId ack = xml::AddElement(frag, frag->root(), "inserted");
    return frag->SetAttribute(ack, "id", std::to_string(id));
  }

  /// Closes the RESULT text: `<result/>` when nothing was added.
  void Finish() {
    if (text_ != nullptr) text_->append(open_ ? "</result>" : "<result/>");
  }

  /// The fragment (fragment mode): an empty `<result/>` when nothing was
  /// added, so a replace-mode call still drops its old results.
  std::unique_ptr<xml::Document> TakeFragment() {
    Fragment();
    return std::move(fragment_);
  }

 private:
  void Open() {
    if (!open_) text_->append("<result>");
    open_ = true;
  }

  xml::Document* Fragment() {
    if (fragment_ == nullptr) {
      fragment_ = std::make_unique<xml::Document>("result");
    }
    return fragment_.get();
  }

  std::string* text_ = nullptr;
  bool open_ = false;
  std::unique_ptr<xml::Document> fragment_;
};

Result<InvocationOutcome> ServiceHost::Invoke(
    const std::string& name,
    const std::vector<std::pair<std::string, std::string>>& params,
    int64_t lock_id) {
  std::string text;
  ResultSink sink(&text);
  AXMLX_ASSIGN_OR_RETURN(InvocationOutcome outcome,
                         Run(name, params, lock_id, &sink));
  sink.Finish();
  outcome.result_xml = std::move(text);
  return outcome;
}

Result<axml::ServiceResponse> ServiceHost::InvokeLocal(
    const std::string& name,
    const std::vector<std::pair<std::string, std::string>>& params) {
  ResultSink sink;
  AXMLX_RETURN_IF_ERROR(Run(name, params, /*lock_id=*/0, &sink).status());
  axml::ServiceResponse response;
  response.fragment = sink.TakeFragment();
  return response;
}

Result<InvocationOutcome> ServiceHost::Run(
    const std::string& name,
    const std::vector<std::pair<std::string, std::string>>& params,
    int64_t lock_id, ResultSink* sink) {
  const ServiceDefinition* service = repo_->FindService(name);
  if (service == nullptr) {
    return NotFound("peer does not host a service named " + name);
  }
  InvocationOutcome outcome;

  if (service->native) {
    axml::ServiceRequest request;
    request.method_name = name;
    request.params = params;
    AXMLX_ASSIGN_OR_RETURN(axml::ServiceResponse response,
                           service->native(request));
    AXMLX_RETURN_IF_ERROR(sink->AddResponse(std::move(response)));
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
    // Query results are copies of the selected nodes; updates acknowledge
    // each inserted node.
    if (op.type == ops::ActionType::kQuery) {
      for (xml::NodeId id : effect.query_result.AllSelected()) {
        AXMLX_RETURN_IF_ERROR(sink->AddCopy(*doc, id));
      }
    } else {
      for (xml::NodeId id : effect.inserted) {
        AXMLX_RETURN_IF_ERROR(sink->AddInserted(id));
      }
    }
    outcome.effects.Append(std::move(effect));
  }
  outcome.nodes_affected = outcome.effects.TotalNodesAffected();
  outcome.compensation = comp::CompensationBuilder::ForLog(outcome.effects);
  return outcome;
}

}  // namespace axmlx::service
