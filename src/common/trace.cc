#include "common/trace.h"

#include <cctype>
#include <sstream>

#include "obs/json.h"

namespace axmlx {

namespace {

/// A Mermaid participant must be a plain identifier; anything else would be
/// spliced into the diagram source and corrupt it.
bool IsMermaidIdent(const std::string& s) {
  if (s.empty()) return false;
  for (char c : s) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' &&
        c != '-') {
      return false;
    }
  }
  return true;
}

/// Keeps labels on one line and free of Mermaid-significant characters.
std::string MermaidLabel(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (static_cast<unsigned char>(c) < 0x20 || c == ';' || c == ':') {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

uint32_t Trace::Intern(std::string_view s) {
  auto [it, inserted] = symbol_index_.try_emplace(
      std::string(s), static_cast<uint32_t>(strings_.size()));
  if (inserted) {
    strings_.push_back(&it->first);
    kind_counts_.push_back(0);
  }
  return it->second;
}

void Trace::Add(int64_t time, std::string_view actor, std::string_view kind,
                std::string_view detail) {
  const uint32_t k = Intern(kind);
  ++kind_counts_[k];
  events_.push_back({time, Intern(actor), k, Intern(detail)});
}

std::vector<TraceEvent> Trace::events() const {
  std::vector<TraceEvent> out;
  out.reserve(events_.size());
  for (const Event& e : events_) {
    out.push_back({e.time, Str(e.actor), Str(e.kind), Str(e.detail)});
  }
  return out;
}

void Trace::Clear() {
  events_.clear();
  strings_.clear();
  symbol_index_.clear();
  kind_counts_.clear();
}

int Trace::CountKind(const std::string& kind) const {
  auto it = symbol_index_.find(kind);
  return it == symbol_index_.end() ? 0 : kind_counts_[it->second];
}

std::string Trace::ToMermaid() const {
  std::ostringstream os;
  os << "sequenceDiagram\n";
  for (const Event& ev : events_) {
    const std::string& actor = Str(ev.actor);
    const std::string& kind = Str(ev.kind);
    const std::string& detail = Str(ev.detail);
    if (kind == "SEND") {
      // detail is "<TYPE> -> <peer>"; skip entries that deviate.
      size_t arrow = detail.find(" -> ");
      if (arrow == std::string::npos) continue;
      std::string type = detail.substr(0, arrow);
      std::string to = detail.substr(arrow + 4);
      if (!IsMermaidIdent(actor) || !IsMermaidIdent(to)) continue;
      os << "  " << actor << "->>" << to << ": " << MermaidLabel(type)
         << " (t=" << ev.time << ")\n";
      continue;
    }
    if (kind == "RECV") continue;  // implied by the arrow
    if (kind == "DISCONNECT" || kind == "RECONNECT" ||
        kind == "PING_TIMEOUT" || kind == "STREAM_SILENCE" ||
        kind == "SEND_FAIL") {
      if (!IsMermaidIdent(actor)) continue;
      os << "  Note over " << actor << ": " << MermaidLabel(kind)
         << " t=" << ev.time << "\n";
    }
  }
  return os.str();
}

std::string Trace::ToJsonl() const {
  std::ostringstream os;
  for (const Event& ev : events_) {
    os << "{\"time\":" << ev.time << ",\"actor\":\""
       << obs::JsonEscape(Str(ev.actor)) << "\",\"kind\":\""
       << obs::JsonEscape(Str(ev.kind)) << "\",\"detail\":\""
       << obs::JsonEscape(Str(ev.detail)) << "\"}\n";
  }
  return os.str();
}

std::string Trace::ToString() const {
  std::ostringstream os;
  for (const Event& ev : events_) {
    os << "[t=" << ev.time << "] " << Str(ev.actor) << " " << Str(ev.kind)
       << " " << Str(ev.detail) << "\n";
  }
  return os.str();
}

}  // namespace axmlx
