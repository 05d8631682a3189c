#include "axmlx_lint/lint.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

namespace axmlx::lint {
namespace {

// ---------------------------------------------------------------------------
// Lightweight tokenizer. Comments are dropped; string/char literals become
// single tokens carrying their value, so identifier rules can never match
// inside a literal and literal rules can never match inside an identifier.
// ---------------------------------------------------------------------------

struct Token {
  enum class Kind { kIdent, kNumber, kString, kChar, kPunct };
  Kind kind = Kind::kPunct;
  std::string text;  ///< Identifier spelling, literal value, or punctuator.
  size_t pos = 0;    ///< Byte offset in the original content.
};

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// Multi-character punctuators the rules care about. Everything else is
/// tokenized one character at a time.
const char* const kPuncts[] = {"::", "->", "==", "!=", "<=", ">=", "&&", "||"};

std::vector<Token> Tokenize(const std::string& s) {
  std::vector<Token> out;
  size_t i = 0;
  const size_t n = s.size();
  while (i < n) {
    const char c = s[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    if (c == '/' && i + 1 < n && s[i + 1] == '/') {
      while (i < n && s[i] != '\n') ++i;
      continue;
    }
    if (c == '/' && i + 1 < n && s[i + 1] == '*') {
      i += 2;
      while (i + 1 < n && !(s[i] == '*' && s[i + 1] == '/')) ++i;
      i = std::min(n, i + 2);
      continue;
    }
    // Raw string literal R"delim( ... )delim".
    if (c == 'R' && i + 1 < n && s[i + 1] == '"') {
      size_t d = i + 2;
      while (d < n && s[d] != '(') ++d;
      const std::string delim = s.substr(i + 2, d - (i + 2));
      const std::string close = ")" + delim + "\"";
      size_t end = s.find(close, d + 1);
      if (end == std::string::npos) end = n;
      out.push_back({Token::Kind::kString,
                     s.substr(d + 1, end - (d + 1)), i});
      i = std::min(n, end + close.size());
      continue;
    }
    if (c == '"' || c == '\'') {
      const char quote = c;
      const size_t start = i++;
      std::string value;
      while (i < n && s[i] != quote) {
        if (s[i] == '\\' && i + 1 < n) {
          value += s[i + 1];
          i += 2;
        } else {
          value += s[i++];
        }
      }
      ++i;  // closing quote
      out.push_back({quote == '"' ? Token::Kind::kString : Token::Kind::kChar,
                     std::move(value), start});
      continue;
    }
    if (IsIdentStart(c)) {
      const size_t start = i;
      while (i < n && IsIdentChar(s[i])) ++i;
      out.push_back({Token::Kind::kIdent, s.substr(start, i - start), start});
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      const size_t start = i;
      while (i < n && (IsIdentChar(s[i]) || s[i] == '.' || s[i] == '\'')) ++i;
      out.push_back({Token::Kind::kNumber, s.substr(start, i - start), start});
      continue;
    }
    for (const char* p : kPuncts) {
      if (s.compare(i, 2, p) == 0) {
        out.push_back({Token::Kind::kPunct, p, i});
        i += 2;
        goto next;
      }
    }
    out.push_back({Token::Kind::kPunct, std::string(1, c), i});
    ++i;
  next:;
  }
  return out;
}

int LineOf(const std::string& content, size_t pos) {
  return 1 + static_cast<int>(
                 std::count(content.begin(),
                            content.begin() +
                                static_cast<std::ptrdiff_t>(
                                    std::min(pos, content.size())),
                            '\n'));
}

/// True when the source line holding `pos` — or the line directly above
/// it, so a finding on a long expression can carry its justification on a
/// comment line of its own — has a `lint:allow(Rn)` comment for `rule`.
bool Suppressed(const std::string& content, size_t pos,
                const std::string& rule) {
  const std::string marker = "lint:allow(" + rule + ")";
  size_t begin = content.rfind('\n', pos);
  begin = begin == std::string::npos ? 0 : begin + 1;
  size_t end = content.find('\n', pos);
  if (end == std::string::npos) end = content.size();
  if (content.substr(begin, end - begin).find(marker) != std::string::npos) {
    return true;
  }
  if (begin >= 2) {
    const size_t prev_end = begin - 1;  // the '\n' ending the previous line
    size_t prev_begin = content.rfind('\n', prev_end - 1);
    prev_begin = prev_begin == std::string::npos ? 0 : prev_begin + 1;
    if (content.substr(prev_begin, prev_end - prev_begin).find(marker) !=
        std::string::npos) {
      return true;
    }
  }
  return false;
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

bool IsHeader(const std::string& path) { return EndsWith(path, ".h"); }

bool IsAllCaps(const std::string& s) {
  if (s.size() < 3) return false;
  if (!std::isupper(static_cast<unsigned char>(s[0]))) return false;
  for (char c : s) {
    if (!std::isupper(static_cast<unsigned char>(c)) &&
        !std::isdigit(static_cast<unsigned char>(c)) && c != '_') {
      return false;
    }
  }
  return true;
}

/// Index of the token matching the opener at `open` ("(" / "{"), or the
/// token count when unbalanced.
size_t MatchForward(const std::vector<Token>& toks, size_t open) {
  const std::string& o = toks[open].text;
  const std::string c = o == "(" ? ")" : "}";
  int depth = 0;
  for (size_t i = open; i < toks.size(); ++i) {
    if (toks[i].kind != Token::Kind::kPunct) continue;
    if (toks[i].text == o) ++depth;
    if (toks[i].text == c && --depth == 0) return i;
  }
  return toks.size();
}

/// Pre-tokenized file.
struct File {
  const SourceFile* src = nullptr;
  std::vector<Token> toks;
};

void Report(std::vector<Finding>* findings, const File& f,
            const std::string& rule, size_t pos, std::string message) {
  if (Suppressed(f.src->content, pos, rule)) return;
  findings->push_back(
      {rule, f.src->path, LineOf(f.src->content, pos), std::move(message)});
}

// ---------------------------------------------------------------------------
// Scope analysis: classifies every brace so R4 can tell namespace scope
// from function bodies and R5 knows the return type of the innermost
// enclosing function. Single forward pass.
// ---------------------------------------------------------------------------

struct Scope {
  enum class Kind { kNamespace, kFunction, kType, kInitializer, kBlock };
  Kind kind = Kind::kBlock;
  bool returns_status = false;  ///< Function scope returning Status/Result.
};

bool TokIs(const std::vector<Token>& toks, size_t i, const char* text) {
  return i < toks.size() && toks[i].text == text;
}

/// Skips trailing function-signature qualifiers backwards from `i`
/// (exclusive). Returns the index of the last token of the declarator core.
size_t SkipQualifiersBack(const std::vector<Token>& toks, size_t i) {
  static const std::set<std::string> kQuals = {"const",    "noexcept",
                                               "override", "final",
                                               "mutable",  "&", "&&"};
  while (i > 0 && kQuals.count(toks[i - 1].text) > 0) --i;
  return i;
}

/// True when the return type spelled by tokens starting at `i` is Status or
/// Result<...> (optionally axmlx:: / lint:: qualified).
bool TypeIsStatusLike(const std::vector<Token>& toks, size_t i) {
  while (i + 1 < toks.size() &&
         (toks[i + 1].text == "::" ||
          (toks[i].kind == Token::Kind::kIdent && TokIs(toks, i + 1, "::")))) {
    if (!TokIs(toks, i + 1, "::")) break;
    i += 2;  // consume `ns ::`
  }
  return i < toks.size() && (toks[i].text == "Status" ||
                             toks[i].text == "Result");
}

/// Classifies the `{` at token index `open`. `matching_paren` receives the
/// index of the `(` opening the parameter list when the brace starts a
/// function body.
Scope ClassifyBrace(const std::vector<Token>& toks, size_t open,
                    const std::vector<Scope>& stack) {
  Scope scope;
  size_t i = SkipQualifiersBack(toks, open);
  // `extern "C" {` behaves like a namespace.
  if (i >= 2 && toks[i - 1].kind == Token::Kind::kString &&
      TokIs(toks, i - 2, "extern")) {
    scope.kind = Scope::Kind::kNamespace;
    return scope;
  }
  // Trailing return type: `) -> Type... {`.
  {
    size_t j = i;
    while (j > 0 && (toks[j - 1].kind == Token::Kind::kIdent ||
                     toks[j - 1].text == "::" || toks[j - 1].text == "<" ||
                     toks[j - 1].text == ">" || toks[j - 1].text == "*" ||
                     toks[j - 1].text == "&")) {
      --j;
    }
    if (j > 1 && TokIs(toks, j - 1, "->") &&
        SkipQualifiersBack(toks, j - 1) >= 1 &&
        TokIs(toks, SkipQualifiersBack(toks, j - 1) - 1, ")")) {
      scope.kind = Scope::Kind::kFunction;
      scope.returns_status = TypeIsStatusLike(toks, j);
      return scope;
    }
  }
  if (i == 0) {
    scope.kind = Scope::Kind::kBlock;
    return scope;
  }
  const Token& prev = toks[i - 1];
  if (prev.text == ")") {
    // Function body, lambda body, or a control statement (`if (...) {`);
    // control statements only occur inside functions, where the enclosing
    // scope already carries the return type, so treat uniformly.
    scope.kind = Scope::Kind::kFunction;
    // Find the matching `(` backwards, then the return type before the
    // declarator name.
    int depth = 0;
    size_t j = i - 1;
    for (;; --j) {
      if (toks[j].text == ")") ++depth;
      if (toks[j].text == "(" && --depth == 0) break;
      if (j == 0) return scope;
    }
    // j is the `(` of the parameter list; before it: the declarator name —
    // the maximal `id(::id)*` chain immediately left of the paren — and
    // before that the return type tokens.
    size_t name_end = j;  // exclusive
    size_t k = name_end;
    if (k > 0 && (toks[k - 1].kind == Token::Kind::kIdent ||
                  toks[k - 1].text == "~")) {
      --k;
      if (k > 0 && toks[k - 1].text == "~") --k;  // destructor
      while (k > 1 && toks[k - 1].text == "::" &&
             toks[k - 2].kind == Token::Kind::kIdent) {
        k -= 2;
      }
    }
    // Control statements (`if`, `for`, `while`, `switch`) inherit status
    // context from the enclosing function; mark as plain block instead.
    static const std::set<std::string> kControl = {"if",     "for", "while",
                                                   "switch", "catch"};
    if (k < name_end && kControl.count(toks[k].text) > 0) {
      scope.kind = Scope::Kind::kBlock;
      return scope;
    }
    // Scan back from the name over the return-type spelling to its first
    // token, then test whether that type is Status/Result.
    if (k >= 1) {
      size_t t = k;
      // Walk back over the full return type spelling (`Result < T > ` etc.).
      int angle = 0;
      while (t > 0) {
        const std::string& txt = toks[t - 1].text;
        if (txt == ">") ++angle;
        if (txt == "<") --angle;
        if (angle == 0 && (txt == ";" || txt == "}" || txt == "{" ||
                           txt == ":" || txt == "(" || txt == ",")) {
          break;
        }
        --t;
      }
      static const std::set<std::string> kDeclQuals = {
          "inline", "static", "virtual", "constexpr", "explicit", "friend"};
      while (t < k && (kDeclQuals.count(toks[t].text) > 0 ||
                       toks[t].text == "[" || toks[t].text == "]" ||
                       toks[t].text == "nodiscard")) {
        ++t;
      }
      scope.returns_status = t < k && TypeIsStatusLike(toks, t);
    }
    return scope;
  }
  if (prev.text == "else" || prev.text == "do" || prev.text == "try") {
    scope.kind = Scope::Kind::kBlock;
    return scope;
  }
  if (prev.text == "=" || prev.text == "," || prev.text == "(" ||
      prev.text == "{" || prev.text == "return") {
    scope.kind = Scope::Kind::kInitializer;
    return scope;
  }
  // `namespace foo {`, `namespace a::b {`, or anonymous `namespace {`.
  {
    size_t j = i;
    while (j > 0 && (toks[j - 1].kind == Token::Kind::kIdent ||
                     toks[j - 1].text == "::")) {
      --j;
    }
    if ((j < i && TokIs(toks, j - 1, "namespace")) ||
        TokIs(toks, i - 1, "namespace")) {
      scope.kind = Scope::Kind::kNamespace;
      return scope;
    }
  }
  if (!stack.empty() && (stack.back().kind == Scope::Kind::kFunction ||
                         stack.back().kind == Scope::Kind::kBlock)) {
    scope.kind = Scope::Kind::kBlock;
    return scope;
  }
  scope.kind = Scope::Kind::kType;
  return scope;
}

/// True when any enclosing scope is a function/block (i.e. NOT namespace or
/// type scope all the way down).
bool InsideFunction(const std::vector<Scope>& stack) {
  for (const Scope& s : stack) {
    if (s.kind == Scope::Kind::kFunction ||
        s.kind == Scope::Kind::kBlock ||
        s.kind == Scope::Kind::kInitializer) {
      return true;
    }
  }
  return false;
}

/// Innermost function scope's returns_status, or false when not in one.
bool InnermostReturnsStatus(const std::vector<Scope>& stack) {
  for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
    if (it->kind == Scope::Kind::kFunction) return it->returns_status;
    if (it->kind == Scope::Kind::kInitializer) continue;
    if (it->kind == Scope::Kind::kType ||
        it->kind == Scope::Kind::kNamespace) {
      return false;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// R1: protocol message dispatch.
// ---------------------------------------------------------------------------

void CheckMessageDispatch(const std::vector<File>& files,
                          std::vector<Finding>* findings) {
  const File* payload = nullptr;
  const File* peer = nullptr;
  for (const File& f : files) {
    if (EndsWith(f.src->path, "txn/payload.h")) payload = &f;
    if (EndsWith(f.src->path, "txn/peer.cc")) peer = &f;
  }

  // Declared constants: `kMsgX[] = "..."` or the alias form `kMsgX = ...`.
  std::map<std::string, size_t> declared;  // name -> pos in payload.h
  if (payload != nullptr) {
    const std::vector<Token>& toks = payload->toks;
    for (size_t i = 0; i + 1 < toks.size(); ++i) {
      if (toks[i].kind == Token::Kind::kIdent &&
          StartsWith(toks[i].text, "kMsg") &&
          (toks[i + 1].text == "[" || toks[i + 1].text == "=")) {
        declared.emplace(toks[i].text, toks[i].pos);
      }
    }
  }

  // Dispatch arms: every kMsg* identifier inside AxmlPeer::OnMessage.
  std::set<std::string> handled;
  bool found_dispatcher = false;
  if (peer != nullptr) {
    const std::vector<Token>& toks = peer->toks;
    for (size_t i = 0; i + 2 < toks.size(); ++i) {
      if (toks[i].text != "OnMessage" || !TokIs(toks, i + 1, "(")) continue;
      size_t close = MatchForward(toks, i + 1);
      // Skip declarations (`OnMessage(...);`): need a body.
      size_t body = close + 1;
      while (body < toks.size() && toks[body].text != "{" &&
             toks[body].text != ";") {
        ++body;
      }
      if (body >= toks.size() || toks[body].text != "{") continue;
      found_dispatcher = true;
      size_t end = MatchForward(toks, body);
      for (size_t j = body; j < end && j < toks.size(); ++j) {
        if (toks[j].kind == Token::Kind::kIdent &&
            StartsWith(toks[j].text, "kMsg")) {
          handled.insert(toks[j].text);
        }
      }
    }
  }

  if (payload != nullptr && peer != nullptr && found_dispatcher) {
    for (const auto& [name, pos] : declared) {
      if (handled.count(name) == 0) {
        Report(findings, *payload, "R1", pos,
               name + " is declared but has no dispatch arm in "
                      "AxmlPeer::OnMessage (txn/peer.cc)");
      }
    }
  }

  for (const File& f : files) {
    const bool dispatcher_dir = StartsWith(f.src->path, "txn/") ||
                                StartsWith(f.src->path, "recovery/") ||
                                StartsWith(f.src->path, "repo/") ||
                                StartsWith(f.src->path, "overlay/");
    if (!dispatcher_dir) continue;
    const std::vector<Token>& toks = f.toks;
    for (size_t i = 0; i < toks.size(); ++i) {
      // Undeclared kMsg* identifier (only meaningful with a payload.h in
      // the file set; overlay/ owns its own constants and is exempt).
      if (payload != nullptr && !StartsWith(f.src->path, "overlay/") &&
          toks[i].kind == Token::Kind::kIdent &&
          StartsWith(toks[i].text, "kMsg") &&
          declared.count(toks[i].text) == 0) {
        Report(findings, f, "R1", toks[i].pos,
               toks[i].text +
                   " is not declared in txn/payload.h — dispatching on an "
                   "undeclared message kind");
      }
      // Raw string literal compared with / assigned to a message type:
      // `x.type == "INVOKE"`, `m.type = "ABORT"`.
      if (toks[i].text == "type" && i >= 2 && TokIs(toks, i - 1, ".") &&
          i + 2 < toks.size() &&
          (toks[i + 1].text == "==" || toks[i + 1].text == "!=" ||
           toks[i + 1].text == "=") &&
          toks[i + 2].kind == Token::Kind::kString) {
        Report(findings, f, "R1", toks[i + 2].pos,
               "message type " + std::string("\"") + toks[i + 2].text +
                   "\" spelled as a raw literal; use the kMsg* constant "
                   "from txn/payload.h");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// R2: [[nodiscard]] on Status / Result.
// ---------------------------------------------------------------------------

void CheckNodiscard(const std::vector<File>& files,
                    std::vector<Finding>* findings) {
  for (const File& f : files) {
    if (!EndsWith(f.src->path, "common/status.h")) continue;
    const std::vector<Token>& toks = f.toks;
    for (size_t i = 0; i + 1 < toks.size(); ++i) {
      if (toks[i].text != "class") continue;
      // `class [[nodiscard]] Name` or `class Name`.
      bool has_attr = false;
      size_t j = i + 1;
      if (TokIs(toks, j, "[") && TokIs(toks, j + 1, "[") &&
          TokIs(toks, j + 2, "nodiscard") && TokIs(toks, j + 3, "]") &&
          TokIs(toks, j + 4, "]")) {
        has_attr = true;
        j += 5;
      }
      if (j >= toks.size() || toks[j].kind != Token::Kind::kIdent) continue;
      const std::string& name = toks[j].text;
      if (name != "Status" && name != "Result") continue;
      // Only the definition counts (next significant token `{` or `:`), so
      // forward declarations and `enum class StatusCode` stay exempt.
      if (j + 1 < toks.size() &&
          (toks[j + 1].text == "{" || toks[j + 1].text == ":")) {
        if (!has_attr) {
          Report(findings, f, "R2", toks[i].pos,
                 "class " + name +
                     " must be declared [[nodiscard]]: a silently dropped "
                     "abort status is a partial-effects bug (§3.2)");
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// R3: StatusCodeName completeness + declared trace-kind and span-kind tables.
// ---------------------------------------------------------------------------

void CheckNameTables(const std::vector<File>& files,
                     std::vector<Finding>* findings) {
  const File* status_h = nullptr;
  const File* status_cc = nullptr;
  const File* trace_h = nullptr;
  const File* span_h = nullptr;
  const File* recorder_h = nullptr;
  const File* timeline_h = nullptr;
  for (const File& f : files) {
    if (EndsWith(f.src->path, "common/status.h")) status_h = &f;
    if (EndsWith(f.src->path, "common/status.cc")) status_cc = &f;
    if (EndsWith(f.src->path, "common/trace.h")) trace_h = &f;
    if (EndsWith(f.src->path, "obs/span.h")) span_h = &f;
    if (EndsWith(f.src->path, "obs/flight_recorder.h")) recorder_h = &f;
    if (EndsWith(f.src->path, "obs/timeline.h")) timeline_h = &f;
  }

  // --- StatusCode enumerators vs StatusCodeName cases ---
  if (status_h != nullptr && status_cc != nullptr) {
    std::map<std::string, size_t> enumerators;
    const std::vector<Token>& ht = status_h->toks;
    for (size_t i = 0; i + 3 < ht.size(); ++i) {
      if (ht[i].text == "enum" && TokIs(ht, i + 1, "class") &&
          TokIs(ht, i + 2, "StatusCode")) {
        size_t open = i + 3;
        while (open < ht.size() && ht[open].text != "{") ++open;
        if (open >= ht.size()) break;
        size_t end = MatchForward(ht, open);
        for (size_t j = open + 1; j < end; ++j) {
          if (ht[j].kind == Token::Kind::kIdent &&
              (TokIs(ht, j + 1, ",") || TokIs(ht, j + 1, "=") ||
               TokIs(ht, j + 1, "}"))) {
            enumerators.emplace(ht[j].text, ht[j].pos);
          }
        }
        break;
      }
    }
    std::set<std::string> cased;
    const std::vector<Token>& ct = status_cc->toks;
    for (size_t i = 0; i + 3 < ct.size(); ++i) {
      if (ct[i].text == "case" && TokIs(ct, i + 1, "StatusCode") &&
          TokIs(ct, i + 2, "::")) {
        cased.insert(ct[i + 3].text);
      }
    }
    for (const auto& [name, pos] : enumerators) {
      if (cased.count(name) == 0) {
        Report(findings, *status_h, "R3", pos,
               "StatusCode::" + name +
                   " has no case in StatusCodeName (common/status.cc); its "
                   "diagnostics would print UNKNOWN");
      }
    }
  }

  // --- Trace kinds: literals at emit sites must be in the kEv* table ---
  std::set<std::string> declared_kinds;
  bool have_table = false;
  if (trace_h != nullptr) {
    const std::vector<Token>& tt = trace_h->toks;
    for (size_t i = 0; i + 3 < tt.size(); ++i) {
      if (tt[i].kind == Token::Kind::kIdent &&
          StartsWith(tt[i].text, "kEv") && TokIs(tt, i + 1, "[") &&
          TokIs(tt, i + 2, "]") && TokIs(tt, i + 3, "=") &&
          i + 4 < tt.size() && tt[i + 4].kind == Token::Kind::kString) {
        declared_kinds.insert(tt[i + 4].text);
        have_table = true;
      }
    }
  }
  // --- Span kinds: literals at OpenSpan sites must be in the kSpan* table ---
  std::set<std::string> declared_span_kinds;
  bool have_span_table = false;
  if (span_h != nullptr) {
    const std::vector<Token>& st = span_h->toks;
    for (size_t i = 0; i + 4 < st.size(); ++i) {
      if (st[i].kind == Token::Kind::kIdent &&
          StartsWith(st[i].text, "kSpan") && TokIs(st, i + 1, "[") &&
          TokIs(st, i + 2, "]") && TokIs(st, i + 3, "=") &&
          st[i + 4].kind == Token::Kind::kString) {
        declared_span_kinds.insert(st[i + 4].text);
        have_span_table = true;
      }
    }
  }

  // --- Recorder kinds: literals at Record sites must be in kEvFr* ---
  std::set<std::string> declared_rec_kinds;
  bool have_rec_table = false;
  if (recorder_h != nullptr) {
    const std::vector<Token>& rt = recorder_h->toks;
    for (size_t i = 0; i + 4 < rt.size(); ++i) {
      if (rt[i].kind == Token::Kind::kIdent &&
          StartsWith(rt[i].text, "kEvFr") && TokIs(rt, i + 1, "[") &&
          TokIs(rt, i + 2, "]") && TokIs(rt, i + 3, "=") &&
          rt[i + 4].kind == Token::Kind::kString) {
        declared_rec_kinds.insert(rt[i + 4].text);
        have_rec_table = true;
      }
    }
  }

  // --- Phase names: literals at Timeline Enter/Exit sites must be in the
  // kPhase* table (off-table spellings silently fall out of attribution) ---
  std::set<std::string> declared_phases;
  bool have_phase_table = false;
  if (timeline_h != nullptr) {
    const std::vector<Token>& pt = timeline_h->toks;
    for (size_t i = 0; i + 4 < pt.size(); ++i) {
      if (pt[i].kind == Token::Kind::kIdent &&
          StartsWith(pt[i].text, "kPhase") && TokIs(pt, i + 1, "[") &&
          TokIs(pt, i + 2, "]") && TokIs(pt, i + 3, "=") &&
          pt[i + 4].kind == Token::Kind::kString) {
        declared_phases.insert(pt[i + 4].text);
        have_phase_table = true;
      }
    }
  }

  if (!have_table && !have_span_table && !have_rec_table &&
      !have_phase_table) {
    return;
  }
  for (const File& f : files) {
    const std::vector<Token>& toks = f.toks;
    for (size_t i = 0; i + 1 < toks.size(); ++i) {
      if (toks[i].kind != Token::Kind::kIdent || !TokIs(toks, i + 1, "(")) {
        continue;
      }
      const bool member_call =
          i > 0 && (toks[i - 1].text == "." || toks[i - 1].text == "->");
      const bool trace_site =
          have_table &&
          (toks[i].text == "TraceEventf" ||
           // `Add` must be a member call on a trace (`.Add(` / `->Add(`) so
           // unrelated Add methods are not inspected.
           (toks[i].text == "Add" && member_call));
      // `OpenSpan` / `Record` must likewise be member calls so the tracker
      // and recorder definitions (and forward declarations) stay exempt.
      const bool span_site =
          have_span_table && toks[i].text == "OpenSpan" && member_call;
      const bool rec_site =
          have_rec_table && toks[i].text == "Record" && member_call;
      // Timeline phase claims (`.Enter(` / `->Exit(`): the phase argument.
      const bool phase_site =
          have_phase_table &&
          (toks[i].text == "Enter" || toks[i].text == "Exit") && member_call;
      if (!trace_site && !span_site && !rec_site && !phase_site) continue;
      const std::set<std::string>& table =
          span_site ? declared_span_kinds
          : rec_site ? declared_rec_kinds
          : phase_site ? declared_phases
                       : declared_kinds;
      size_t close = MatchForward(toks, i + 1);
      for (size_t j = i + 2; j < close; ++j) {
        if (toks[j].kind == Token::Kind::kString && IsAllCaps(toks[j].text) &&
            table.count(toks[j].text) == 0) {
          Report(findings, f, "R3", toks[j].pos,
                 span_site
                     ? "span kind \"" + toks[j].text +
                           "\" is not declared in the kSpan* table "
                           "(obs/span.h); axmlx_report rollups cannot "
                           "group it"
                 : rec_site
                     ? "flight-recorder kind \"" + toks[j].text +
                           "\" is not declared in the kEvFr* table "
                           "(obs/flight_recorder.h); forensic timelines "
                           "cannot group it"
                 : phase_site
                     ? "phase \"" + toks[j].text +
                           "\" is not declared in the kPhase* table "
                           "(obs/timeline.h); off-table phases fall out "
                           "of critical-path attribution"
                     : "trace kind \"" + toks[j].text +
                           "\" is not declared in the kEv* table "
                           "(common/trace.h); CountKind assertions cannot "
                           "see it");
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// R4: header hygiene.
// ---------------------------------------------------------------------------

std::string ExpectedGuard(const std::string& path) {
  std::string g = "AXMLX_";
  for (char c : path) {
    if (c == '/' || c == '.' || c == '-') {
      g += '_';
    } else {
      g += static_cast<char>(
          std::toupper(static_cast<unsigned char>(c)));
    }
  }
  g += '_';
  return g;
}

void CheckHeaderHygiene(const std::vector<File>& files,
                        std::vector<Finding>* findings) {
  for (const File& f : files) {
    if (!IsHeader(f.src->path)) continue;
    const std::vector<Token>& toks = f.toks;

    // Include guard: the first two directives must be
    // `#ifndef <guard>` / `#define <guard>` with the path-derived name.
    const std::string guard = ExpectedGuard(f.src->path);
    bool guard_ok = false;
    if (toks.size() >= 6 && toks[0].text == "#" &&
        TokIs(toks, 1, "ifndef") && toks[2].kind == Token::Kind::kIdent &&
        toks[3].text == "#" && TokIs(toks, 4, "define") &&
        toks[5].text == toks[2].text) {
      guard_ok = toks[2].text == guard;
    }
    if (!guard_ok) {
      Report(findings, f, "R4", toks.empty() ? 0 : toks[0].pos,
             "include guard must be `#ifndef " + guard + "` / `#define " +
                 guard + "` derived from the header path");
    }

    // `using namespace` at namespace scope leaks into every includer.
    std::vector<Scope> stack;
    for (size_t i = 0; i < toks.size(); ++i) {
      if (toks[i].text == "{") {
        stack.push_back(ClassifyBrace(toks, i, stack));
      } else if (toks[i].text == "}") {
        if (!stack.empty()) stack.pop_back();
      } else if (toks[i].text == "using" && TokIs(toks, i + 1, "namespace") &&
                 !InsideFunction(stack)) {
        Report(findings, f, "R4", toks[i].pos,
               "`using namespace` at namespace scope in a header leaks the "
               "namespace into every includer");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// R5: assert() inside Status/Result-returning library functions.
// ---------------------------------------------------------------------------

void CheckAsserts(const std::vector<File>& files,
                  std::vector<Finding>* findings) {
  for (const File& f : files) {
    const std::vector<Token>& toks = f.toks;
    std::vector<Scope> stack;
    for (size_t i = 0; i < toks.size(); ++i) {
      if (toks[i].text == "{") {
        stack.push_back(ClassifyBrace(toks, i, stack));
      } else if (toks[i].text == "}") {
        if (!stack.empty()) stack.pop_back();
      } else if (toks[i].text == "assert" && TokIs(toks, i + 1, "(") &&
                 InnermostReturnsStatus(stack)) {
        Report(findings, f, "R5", toks[i].pos,
               "assert() inside a Status/Result-returning function; return "
               "the error instead so the recovery protocol can propagate "
               "and compensate it (§3.2)");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Pass 1: cross-translation-unit fact collection. Every file is tokenized
// once; facts are global observations the per-file rules cannot make —
// which names were declared with unordered container types, which WAL tags
// the storage layer writes vs. replays, which xml::Document members mutate
// vs. record versions, and where every registry constant is defined.
// ---------------------------------------------------------------------------

struct Facts {
  /// R7: every variable/member name declared with a std::unordered_* type
  /// anywhere in the tree. Iterating one of these is hash-order dependent.
  std::set<std::string> unordered_names;

  /// R8: WAL record tags (first word of the record literal) appended via
  /// AppendWal, and tags parsed by a `kind == "TAG"` arm inside ReplayWal.
  /// First site wins; tags map to the file/pos used for reporting.
  struct WalSite {
    const File* file = nullptr;
    size_t pos = 0;
  };
  std::map<std::string, WalSite> wal_written;
  std::map<std::string, WalSite> wal_replayed;
  bool wal_replayer_found = false;

  /// R6: one entry per `Document::Name(...) { ... }` definition in
  /// xml/document.cc: whether the body touches mutable node state (calls
  /// FindMutable/NodeAt), which members it calls (for the recording
  /// fixpoint), and whether it records directly.
  struct DocDef {
    std::string name;
    const File* file = nullptr;
    size_t name_pos = 0;
    bool mutates = false;
    std::string mutate_marker;  ///< "FindMutable" or "NodeAt".
    bool records_direct = false;
    std::set<std::string> calls;
  };
  std::vector<DocDef> doc_defs;

  /// R10: every `kFamilyX[] = "VALUE"` registry-constant definition in the
  /// tree, classified by longest-prefix family match.
  struct TableDef {
    std::string family;  ///< "kMetric", "kEvFr", "kSpan", or "kEv".
    std::string name;
    std::string value;
    const File* file = nullptr;
    size_t pos = 0;
  };
  std::vector<TableDef> table_defs;
};

const std::set<std::string>& UnorderedTypeNames() {
  static const std::set<std::string> kTypes = {
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset"};
  return kTypes;
}

/// Collects names declared with an unordered container type:
/// `std::unordered_map<K, V> name` (member, local, or parameter). Skips
/// function declarators (`unordered_set<T> Collect(...)`) and nested-type
/// uses (`unordered_map<K, V>::iterator`).
void CollectUnorderedNames(const File& f, Facts* facts) {
  const std::vector<Token>& toks = f.toks;
  for (size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != Token::Kind::kIdent ||
        UnorderedTypeNames().count(toks[i].text) == 0 ||
        !TokIs(toks, i + 1, "<")) {
      continue;
    }
    // Skip the template argument list; `>>` tokenizes as two `>`.
    size_t j = i + 2;
    int angle = 1;
    while (j < toks.size() && angle > 0) {
      if (toks[j].text == "<") ++angle;
      if (toks[j].text == ">") --angle;
      ++j;
    }
    while (j < toks.size() && (toks[j].text == "*" || toks[j].text == "&" ||
                               toks[j].text == "const")) {
      ++j;
    }
    if (j + 1 >= toks.size() || toks[j].kind != Token::Kind::kIdent) continue;
    if (toks[j + 1].text == "(") continue;  // function returning the type
    facts->unordered_names.insert(toks[j].text);
  }
}

/// Finds the body `{` of the definition whose parameter list closes at
/// token `close` ( the `)` ). Walks over cv/ref/noexcept qualifiers and
/// constructor initializer lists. Returns the token count when the tokens
/// spell a declaration (`;`) instead of a definition.
size_t FindBodyBrace(const std::vector<Token>& toks, size_t close) {
  size_t j = close + 1;
  bool in_init_list = false;
  while (j < toks.size()) {
    const std::string& t = toks[j].text;
    if (t == ";") return toks.size();
    if (t == "(") {  // noexcept(...) or a ctor-init item `member_(expr)`
      j = MatchForward(toks, j) + 1;
      continue;
    }
    if (t == "{") {
      // In a ctor-init list, `member_{expr}` braces follow an identifier;
      // the body brace follows `)` / `}` of the previous item (or `:` for
      // an empty-but-odd spelling).
      if (in_init_list && j > 0 && toks[j - 1].kind == Token::Kind::kIdent) {
        j = MatchForward(toks, j) + 1;
        continue;
      }
      return j;
    }
    if (t == ":") in_init_list = true;
    ++j;
  }
  return toks.size();
}

/// R6 facts: `Document::Name(...) { body }` definitions in xml/document.cc,
/// their mutation markers, and their intra-class call graph.
void CollectDocDefs(const File& f, Facts* facts) {
  if (!EndsWith(f.src->path, "xml/document.cc")) return;
  const std::vector<Token>& toks = f.toks;
  for (size_t i = 0; i + 3 < toks.size(); ++i) {
    if (toks[i].text != "Document" || !TokIs(toks, i + 1, "::") ||
        toks[i + 2].kind != Token::Kind::kIdent || !TokIs(toks, i + 3, "(")) {
      continue;
    }
    const size_t close = MatchForward(toks, i + 3);
    const size_t body = FindBodyBrace(toks, close);
    if (body >= toks.size()) continue;  // declaration, not a definition
    const size_t end = MatchForward(toks, body);
    Facts::DocDef def;
    def.name = toks[i + 2].text;
    def.file = &f;
    def.name_pos = toks[i + 2].pos;
    for (size_t j = body + 1; j < end && j + 1 < toks.size(); ++j) {
      if (toks[j].kind != Token::Kind::kIdent || !TokIs(toks, j + 1, "(")) {
        continue;
      }
      const std::string& callee = toks[j].text;
      def.calls.insert(callee);
      if (!def.mutates && (callee == "FindMutable" || callee == "NodeAt")) {
        def.mutates = true;
        def.mutate_marker = callee;
      }
      if (callee == "RecordVersion" || callee == "NewNode") {
        def.records_direct = true;
      }
    }
    facts->doc_defs.push_back(std::move(def));
    i = body;  // resume after the header; nested lambdas are rare here
  }
}

/// R8 facts: WAL tags written vs. replayed. Only src/storage owns the WAL,
/// so other directories never contribute (a test fixture exercising R8
/// places its files under storage/ too).
void CollectWalGrammar(const File& f, Facts* facts) {
  if (f.src->path.find("storage/") == std::string::npos) return;
  const std::vector<Token>& toks = f.toks;
  for (size_t i = 0; i + 2 < toks.size(); ++i) {
    // Writer: `AppendWal("TAG ..." ...)`. The record literal leads the
    // argument expression by convention; a non-literal first argument is
    // invisible to the rule (and worth keeping lintable).
    if (toks[i].text == "AppendWal" && TokIs(toks, i + 1, "(") &&
        toks[i + 2].kind == Token::Kind::kString) {
      const std::string& lit = toks[i + 2].text;
      const std::string tag = lit.substr(0, lit.find(' '));
      if (!tag.empty()) {
        facts->wal_written.emplace(tag,
                                   Facts::WalSite{&f, toks[i + 2].pos});
      }
    }
    // Replayer: `kind == "TAG"` comparisons inside the body of ReplayWal.
    // The record kind is always parsed into a variable named `kind` — that
    // naming is part of the WAL-grammar convention this rule enforces.
    if (toks[i].text == "ReplayWal" && TokIs(toks, i + 1, "(")) {
      const size_t close = MatchForward(toks, i + 1);
      size_t body = close + 1;
      while (body < toks.size() && toks[body].text != "{" &&
             toks[body].text != ";") {
        ++body;
      }
      if (body >= toks.size() || toks[body].text != "{") continue;
      facts->wal_replayer_found = true;
      const size_t end = MatchForward(toks, body);
      for (size_t j = body; j + 2 < end; ++j) {
        if (toks[j].text == "kind" && TokIs(toks, j + 1, "==") &&
            toks[j + 2].kind == Token::Kind::kString) {
          facts->wal_replayed.emplace(
              toks[j + 2].text, Facts::WalSite{&f, toks[j + 2].pos});
        }
      }
    }
  }
}

/// R10 facts: registry-constant definitions `kFamilyX[] = "VALUE"`,
/// classified by longest family prefix (kMetric / kPhase / kEvFr / kSpan /
/// kEv) so kEvFr* constants never land in the kEv family.
void CollectTableDefs(const File& f, Facts* facts) {
  static const char* const kFamilies[] = {"kMetric", "kPhase", "kEvFr",
                                          "kSpan", "kEv"};
  const std::vector<Token>& toks = f.toks;
  for (size_t i = 0; i + 4 < toks.size(); ++i) {
    if (toks[i].kind != Token::Kind::kIdent || !TokIs(toks, i + 1, "[") ||
        !TokIs(toks, i + 2, "]") || !TokIs(toks, i + 3, "=") ||
        toks[i + 4].kind != Token::Kind::kString) {
      continue;
    }
    for (const char* fam : kFamilies) {
      if (StartsWith(toks[i].text, fam)) {
        facts->table_defs.push_back(
            {fam, toks[i].text, toks[i + 4].text, &f, toks[i].pos});
        break;
      }
    }
  }
}

Facts CollectFacts(const std::vector<File>& files) {
  Facts facts;
  for (const File& f : files) {
    CollectUnorderedNames(f, &facts);
    CollectDocDefs(f, &facts);
    CollectWalGrammar(f, &facts);
    CollectTableDefs(f, &facts);
  }
  return facts;
}

// ---------------------------------------------------------------------------
// R6: versioning discipline on xml::Document mutators.
// ---------------------------------------------------------------------------

void CheckVersioningDiscipline(const Facts& facts,
                               std::vector<Finding>* findings) {
  // Fixpoint: a member "records" when it calls RecordVersion/NewNode
  // directly or calls a member already known to record. RecordVersion and
  // NewNode themselves are the recording primitives.
  std::set<std::string> recording = {"RecordVersion", "NewNode"};
  for (const Facts::DocDef& d : facts.doc_defs) {
    if (d.records_direct) recording.insert(d.name);
  }
  bool grew = true;
  while (grew) {
    grew = false;
    for (const Facts::DocDef& d : facts.doc_defs) {
      if (recording.count(d.name) > 0) continue;
      for (const std::string& callee : d.calls) {
        if (recording.count(callee) > 0) {
          recording.insert(d.name);
          grew = true;
          break;
        }
      }
    }
  }
  for (const Facts::DocDef& d : facts.doc_defs) {
    if (!d.mutates || recording.count(d.name) > 0) continue;
    Report(findings, *d.file, "R6", d.name_pos,
           "xml::Document::" + d.name + " mutates node state (calls " +
               d.mutate_marker +
               ") but records no version chain entry — call "
               "RecordVersion/NewNode (directly or via a recording member) "
               "or MVCC snapshots will miss the mutation");
  }
}

/// R6, outside the class: a FindMutable write anywhere but xml::Document's
/// own files bypasses RecordVersion, so MVCC snapshots and delta replica
/// sync both miss it. Writes into a document no one else has seen yet
/// carry lint:allow(R6) with the reason.
void CheckFindMutableOutsideDocument(const std::vector<File>& files,
                                     std::vector<Finding>* findings) {
  for (const File& f : files) {
    if (EndsWith(f.src->path, "xml/document.cc") ||
        EndsWith(f.src->path, "xml/document.h")) {
      continue;
    }
    const std::vector<Token>& toks = f.toks;
    for (size_t i = 0; i + 1 < toks.size(); ++i) {
      if (toks[i].text != "FindMutable" || !TokIs(toks, i + 1, "(")) continue;
      Report(findings, f, "R6", toks[i].pos,
             "FindMutable outside xml::Document writes node state without a "
             "version chain entry — use a Document mutator, or justify a "
             "write into an unshared document with lint:allow(R6)");
    }
  }
}

// ---------------------------------------------------------------------------
// R7: determinism — no wall clocks, no unseeded randomness, no hash-order
// iteration. Seeded interleavings are the differential oracle for the
// parallel runtime; anything nondeterministic on a protocol, serialization,
// or WAL path silently breaks replay.
// ---------------------------------------------------------------------------

void CheckDeterminism(const std::vector<File>& files, const Facts& facts,
                      std::vector<Finding>* findings) {
  static const std::map<std::string, std::string> kBannedClocks = {
      {"system_clock", "wall-clock time"},
      {"steady_clock", "wall-clock time"},
      {"high_resolution_clock", "wall-clock time"},
      {"gettimeofday", "wall-clock time"},
      {"clock_gettime", "wall-clock time"},
      {"getpid", "process-id nondeterminism"},
  };
  static const std::map<std::string, std::string> kBannedRandom = {
      {"random_device", "unseeded randomness"},
      {"srand", "global-state randomness"},
      {"rand_r", "unseeded randomness"},
      {"drand48", "global-state randomness"},
      {"lrand48", "global-state randomness"},
      {"mrand48", "global-state randomness"},
  };
  for (const File& f : files) {
    const std::vector<Token>& toks = f.toks;
    for (size_t i = 0; i < toks.size(); ++i) {
      if (toks[i].kind != Token::Kind::kIdent) continue;
      const std::string& t = toks[i].text;
      if (auto it = kBannedClocks.find(t); it != kBannedClocks.end()) {
        Report(findings, f, "R7", toks[i].pos,
               "`" + t + "` is " + it->second +
                   ": protocol, serialization, and WAL paths must use "
                   "simulator time (overlay ticks) so seeded runs replay "
                   "byte-identically");
        continue;
      }
      if (auto it = kBannedRandom.find(t); it != kBannedRandom.end()) {
        Report(findings, f, "R7", toks[i].pos,
               "`" + t + "` is " + it->second +
                   ": use the seeded axmlx::Rng (common/rng.h) so runs "
                   "replay under the same seed");
        continue;
      }
      // Bare `rand(` — but not a member spelled `.rand(`.
      if (t == "rand" && TokIs(toks, i + 1, "(") &&
          (i == 0 ||
           (toks[i - 1].text != "." && toks[i - 1].text != "->"))) {
        Report(findings, f, "R7", toks[i].pos,
               "`rand()` is global-state randomness: use the seeded "
               "axmlx::Rng (common/rng.h) so runs replay under the same "
               "seed");
        continue;
      }
      // `name.begin(` / `name->begin(` on an unordered container.
      if ((t == "begin" || t == "cbegin") && TokIs(toks, i + 1, "(") &&
          i >= 2 &&
          (toks[i - 1].text == "." || toks[i - 1].text == "->") &&
          toks[i - 2].kind == Token::Kind::kIdent &&
          facts.unordered_names.count(toks[i - 2].text) > 0) {
        Report(findings, f, "R7", toks[i - 2].pos,
               "iterating unordered container `" + toks[i - 2].text +
                   "` is hash-order nondeterministic; sort first, or mark "
                   "an order-insensitive fold with lint:allow(R7)");
        continue;
      }
      // Range-for whose range expression ends in an unordered name:
      // `for (auto& [k, v] : history_)`, `for (auto& x : doc.members_)`.
      if (t == "for" && TokIs(toks, i + 1, "(")) {
        const size_t close = MatchForward(toks, i + 1);
        size_t colon = 0;
        int depth = 1;
        for (size_t j = i + 2; j < close; ++j) {
          if (toks[j].text == "(") ++depth;
          if (toks[j].text == ")") --depth;
          if (depth == 1 && toks[j].text == ";") break;  // classic for
          if (depth == 1 && toks[j].text == ":") {
            colon = j;
            break;
          }
        }
        if (colon == 0) continue;
        size_t last_ident = 0;
        bool have_last = false;
        for (size_t j = colon + 1; j < close; ++j) {
          if (toks[j].kind == Token::Kind::kIdent) {
            last_ident = j;
            have_last = true;
          }
        }
        if (have_last &&
            facts.unordered_names.count(toks[last_ident].text) > 0) {
          Report(findings, f, "R7", toks[last_ident].pos,
                 "iterating unordered container `" + toks[last_ident].text +
                     "` is hash-order nondeterministic; sort first, or mark "
                     "an order-insensitive fold with lint:allow(R7)");
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// R8: WAL grammar completeness — writer and replayer checked against each
// other (the TxFS lesson: journal grammars rot one-sidedly).
// ---------------------------------------------------------------------------

void CheckWalGrammar(const Facts& facts, std::vector<Finding>* findings) {
  // Only meaningful when both halves are in the file set; a fixture (or a
  // partial tree) with writers but no ReplayWal body is not lintable.
  if (facts.wal_written.empty() || !facts.wal_replayer_found) return;
  for (const auto& [tag, site] : facts.wal_written) {
    if (facts.wal_replayed.count(tag) == 0) {
      Report(findings, *site.file, "R8", site.pos,
             "WAL record tag \"" + tag +
                 "\" is appended but ReplayWal has no `kind == \"" + tag +
                 "\"` arm; recovery would reject the log as an unknown "
                 "record");
    }
  }
  for (const auto& [tag, site] : facts.wal_replayed) {
    if (facts.wal_written.count(tag) == 0) {
      Report(findings, *site.file, "R8", site.pos,
             "ReplayWal parses WAL tag \"" + tag +
                 "\" that no AppendWal call writes; a dead grammar arm "
                 "usually hides a renamed writer");
    }
  }
}

// ---------------------------------------------------------------------------
// R9: thread-safety annotations on shared mutable state. Only the layers
// the worker-pool runtime will share across threads are in scope.
// ---------------------------------------------------------------------------

bool IsMutexTypeName(const std::string& t) {
  return t == "mutex" || t == "shared_mutex" || t == "recursive_mutex" ||
         t == "timed_mutex" || t == "recursive_timed_mutex";
}

/// Name of the class/struct whose body opens at token `open`, or "type".
std::string TypeNameAt(const std::vector<Token>& toks, size_t open) {
  size_t k = open;
  for (size_t back = 0; k > 0 && back < 64; ++back) {
    --k;
    const std::string& t = toks[k].text;
    if (t == "class" || t == "struct" || t == "union") {
      for (size_t m = k + 1; m < open; ++m) {
        if (toks[m].kind == Token::Kind::kIdent &&
            toks[m].text != "nodiscard" &&
            !(m + 1 < open && toks[m + 1].text == "(")) {
          return toks[m].text;
        }
      }
      break;
    }
    if (t == ";" || t == "}" || t == "{") break;
  }
  return "type";
}

/// Lints one type body [open, end] for R9: if a mutex member is declared,
/// every other mutable data member at the same depth must carry
/// AXMLX_GUARDED_BY / AXMLX_PT_GUARDED_BY.
void CheckTypeBodyAnnotations(const File& f, size_t open, size_t end,
                              std::vector<Finding>* findings) {
  const std::vector<Token>& toks = f.toks;
  // Segment the body into depth-1 member statements, skipping function
  // bodies (a `{...}` not followed by `;`) and access specifiers.
  std::vector<std::pair<size_t, size_t>> stmts;
  size_t j = open + 1;
  size_t start = j;
  while (j < end) {
    const std::string& t = toks[j].text;
    if (t == "(") {
      j = MatchForward(toks, j) + 1;
      continue;
    }
    if (t == "{") {
      const size_t m = MatchForward(toks, j);
      if (m + 1 < end && toks[m + 1].text == ";") {
        j = m + 1;  // brace initializer: `int x{0};` — the `;` ends it
        continue;
      }
      j = m + 1;  // function/nested-type body ends the statement
      start = j;
      continue;
    }
    if (t == ";") {
      if (j > start) stmts.push_back({start, j});
      ++j;
      start = j;
      continue;
    }
    if ((t == "public" || t == "private" || t == "protected") &&
        TokIs(toks, j + 1, ":")) {
      j += 2;
      start = j;
      continue;
    }
    ++j;
  }

  static const std::set<std::string> kNonMemberKeywords = {
      "static", "constexpr", "using",    "typedef", "friend",
      "enum",   "class",     "struct",   "union",   "operator",
      "template"};

  bool has_mutex = false;
  std::vector<std::pair<size_t, size_t>> candidates;
  for (const auto& [s, e] : stmts) {
    bool annotated = false;
    bool skip = false;
    bool is_mutex = false;
    bool has_paren = false;
    for (size_t m = s; m < e; ++m) {
      const std::string& t = toks[m].text;
      if (t == "AXMLX_GUARDED_BY" || t == "AXMLX_PT_GUARDED_BY") {
        annotated = true;
      }
      if (toks[m].kind == Token::Kind::kIdent &&
          (kNonMemberKeywords.count(t) > 0 || t == "atomic" ||
           t == "const")) {
        skip = true;
      }
      if (t == "const") skip = true;
      if (toks[m].kind == Token::Kind::kIdent && IsMutexTypeName(t)) {
        is_mutex = true;
      }
      if (t == "(" && !annotated) has_paren = true;
    }
    if (is_mutex) {
      has_mutex = true;
      continue;
    }
    if (annotated || skip || has_paren) continue;
    candidates.push_back({s, e});
  }
  if (!has_mutex || candidates.empty()) return;

  const std::string cname = TypeNameAt(toks, open);
  for (const auto& [s, e] : candidates) {
    // Declared name: last identifier before the initializer (if any).
    size_t name_tok = 0;
    bool have_name = false;
    for (size_t m = s; m < e; ++m) {
      const std::string& t = toks[m].text;
      if (t == "=" || t == "{" || t == "[") break;
      if (toks[m].kind == Token::Kind::kIdent) {
        name_tok = m;
        have_name = true;
      }
    }
    if (!have_name) continue;
    Report(findings, f, "R9", toks[name_tok].pos,
           "member `" + toks[name_tok].text + "` of " + cname +
               " shares the class with a mutex but carries no "
               "AXMLX_GUARDED_BY(...) annotation "
               "(common/thread_annotations.h); the worker-pool runtime "
               "cannot prove its lock discipline");
  }
}

void CheckThreadAnnotations(const std::vector<File>& files,
                            std::vector<Finding>* findings) {
  for (const File& f : files) {
    if (!StartsWith(f.src->path, "obs/") &&
        !StartsWith(f.src->path, "storage/") &&
        !StartsWith(f.src->path, "compensation/") &&
        !StartsWith(f.src->path, "runtime/")) {
      continue;
    }
    const std::vector<Token>& toks = f.toks;
    std::vector<Scope> stack;
    for (size_t i = 0; i < toks.size(); ++i) {
      if (toks[i].text == "{") {
        Scope s = ClassifyBrace(toks, i, stack);
        if (s.kind == Scope::Kind::kType) {
          CheckTypeBodyAnnotations(f, i, MatchForward(toks, i), findings);
        }
        stack.push_back(s);
      } else if (toks[i].text == "}") {
        if (!stack.empty()) stack.pop_back();
      }
    }
  }
}

// ---------------------------------------------------------------------------
// R10: name-registry consistency — registry constants live in exactly one
// home table, values are unique within a family, and metric-name literals
// at Get{Counter,Gauge,Histogram} sites are declared in the kMetric* table.
// ---------------------------------------------------------------------------

const std::map<std::string, std::string>& RegistryHomes() {
  static const std::map<std::string, std::string> kHomes = {
      {"kEv", "common/trace.h"},
      {"kEvFr", "obs/flight_recorder.h"},
      {"kSpan", "obs/span.h"},
      {"kMetric", "obs/metric_names.h"},
      {"kPhase", "obs/timeline.h"},
  };
  return kHomes;
}

void CheckNameRegistry(const std::vector<File>& files, const Facts& facts,
                       std::vector<Finding>* findings) {
  std::map<std::string, std::string> first_def_of_name;   // name -> file
  std::map<std::string, std::string> first_name_of_value; // fam\0value -> name
  std::set<std::string> metric_values;
  bool have_metric_table = false;

  for (const Facts::TableDef& d : facts.table_defs) {
    const std::string& home = RegistryHomes().at(d.family);
    if (!EndsWith(d.file->src->path, home)) {
      Report(findings, *d.file, "R10", d.pos,
             d.name + " (family " + d.family +
                 "*) is defined outside its home table " + home +
                 "; registry constants live in exactly one table");
    } else if (d.family == "kMetric") {
      have_metric_table = true;
      metric_values.insert(d.value);
    }
    if (auto [it, inserted] =
            first_def_of_name.emplace(d.name, d.file->src->path);
        !inserted) {
      Report(findings, *d.file, "R10", d.pos,
             d.name + " is defined more than once (first in " + it->second +
                 "); a registry constant has exactly one definition");
    }
    const std::string value_key = d.family + '\0' + d.value;
    if (auto [it, inserted] = first_name_of_value.emplace(value_key, d.name);
        !inserted && it->second != d.name) {
      Report(findings, *d.file, "R10", d.pos,
             d.name + " reuses registry value \"" + d.value +
                 "\" already named by " + it->second +
                 "; two constants for one string silently split a series");
    }
  }

  if (!have_metric_table) return;
  for (const File& f : files) {
    const std::vector<Token>& toks = f.toks;
    for (size_t i = 1; i + 2 < toks.size(); ++i) {
      if (toks[i].kind != Token::Kind::kIdent) continue;
      const std::string& t = toks[i].text;
      if (t != "GetCounter" && t != "GetGauge" && t != "GetHistogram") {
        continue;
      }
      if (toks[i - 1].text != "." && toks[i - 1].text != "->") continue;
      if (!TokIs(toks, i + 1, "(") ||
          toks[i + 2].kind != Token::Kind::kString) {
        continue;
      }
      if (metric_values.count(toks[i + 2].text) == 0) {
        Report(findings, f, "R10", toks[i + 2].pos,
               "metric name \"" + toks[i + 2].text +
                   "\" is not declared in the kMetric* table "
                   "(obs/metric_names.h); AxmlStats and axmlx_report "
                   "aggregate by these strings");
      }
    }
    // Any txn.latency.* / runtime.* / job.* literal — even away from a
    // Get* site (report filters, bench extractors) — must name a registered
    // series: the phase accounting, the worker-pool gauges/histograms,
    // AxmlStats, and axmlx_report tables all join on them.
    for (const Token& tok : f.toks) {
      if (tok.kind != Token::Kind::kString) continue;
      const bool latency_family = StartsWith(tok.text, "txn.latency.");
      const bool runtime_family =
          StartsWith(tok.text, "runtime.") || StartsWith(tok.text, "job.");
      if (!latency_family && !runtime_family) continue;
      if (metric_values.count(tok.text) != 0) continue;
      Report(findings, f, "R10", tok.pos,
             latency_family
                 ? "latency series \"" + tok.text +
                       "\" is not declared in the kMetric* table "
                       "(obs/metric_names.h); every txn.latency.* name is "
                       "registered so phase histograms stay joinable"
                 : "worker-pool series \"" + tok.text +
                       "\" is not declared in the kMetric* table "
                       "(obs/metric_names.h); every runtime.* / job.* name "
                       "is registered so pool metrics stay joinable");
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// R11: keepalive watch ownership — ChildEdge::invoked_peer is written only
// inside AxmlPeer::SetEdgeTarget, which releases the edge's watch on the old
// target first. A write anywhere else can leak a watch, and a leaked watch
// keeps the keepalive monitor (and with it the simulated clock) running
// after its transaction resolved.
// ---------------------------------------------------------------------------

/// Token ranges [begin, end) of every `AxmlPeer::SetEdgeTarget(...) {...}`
/// definition body in `f`.
std::vector<std::pair<size_t, size_t>> EdgeTargetHelperBodies(const File& f) {
  std::vector<std::pair<size_t, size_t>> bodies;
  const std::vector<Token>& toks = f.toks;
  for (size_t i = 0; i + 3 < toks.size(); ++i) {
    if (toks[i].text != "AxmlPeer" || !TokIs(toks, i + 1, "::") ||
        !TokIs(toks, i + 2, "SetEdgeTarget") || !TokIs(toks, i + 3, "(")) {
      continue;
    }
    const size_t body = FindBodyBrace(toks, MatchForward(toks, i + 3));
    if (body >= toks.size()) continue;
    bodies.emplace_back(body, MatchForward(toks, body));
  }
  return bodies;
}

void CheckEdgeTargetOwnership(const std::vector<File>& files,
                              std::vector<Finding>* findings) {
  static const std::set<std::string> kMutators = {
      "clear", "assign", "swap", "append", "insert", "erase",
      "push_back", "pop_back", "replace", "resize"};
  for (const File& f : files) {
    const std::vector<Token>& toks = f.toks;
    const auto bodies = EdgeTargetHelperBodies(f);
    for (size_t i = 0; i + 1 < toks.size(); ++i) {
      if (toks[i].text != "invoked_peer" ||
          toks[i].kind != Token::Kind::kIdent) {
        continue;
      }
      // `=` and `+=` (the tokenizer splits compound operators).
      const bool assigns = TokIs(toks, i + 1, "=") ||
                           (TokIs(toks, i + 1, "+") && TokIs(toks, i + 2, "="));
      const bool mutates = TokIs(toks, i + 1, ".") && i + 2 < toks.size() &&
                           kMutators.count(toks[i + 2].text) > 0;
      // An argument of swap(...): step back over the member-access chain,
      // then out to the enclosing call's parenthesis.
      bool swapped = false;
      size_t j = i;
      while (j > 0 && (toks[j - 1].kind == Token::Kind::kIdent ||
                       TokIs(toks, j - 1, "->") || TokIs(toks, j - 1, ".") ||
                       TokIs(toks, j - 1, "::"))) {
        --j;
      }
      for (int depth = 0; j > 1; --j) {
        const std::string& t = toks[j - 1].text;
        if (t == ")") ++depth;
        if (t == "(" && depth-- == 0) {
          swapped = toks[j - 2].text == "swap";
          break;
        }
        if (t == ";" || t == "{" || t == "}") break;
      }
      if (!assigns && !mutates && !swapped) continue;
      bool inside_helper = false;
      for (const auto& [begin, end] : bodies) {
        inside_helper = inside_helper || (i > begin && i < end);
      }
      if (inside_helper) continue;
      Report(findings, f, "R11", toks[i].pos,
             "write to ChildEdge::invoked_peer outside "
             "AxmlPeer::SetEdgeTarget can leak the edge's keepalive watch — "
             "route it through SetEdgeTarget");
    }
  }
}

std::vector<Finding> RunLint(const std::vector<SourceFile>& files) {
  std::vector<File> prepared;
  prepared.reserve(files.size());
  for (const SourceFile& src : files) {
    prepared.push_back({&src, Tokenize(src.content)});
  }
  const Facts facts = CollectFacts(prepared);
  std::vector<Finding> findings;
  CheckMessageDispatch(prepared, &findings);
  CheckNodiscard(prepared, &findings);
  CheckNameTables(prepared, &findings);
  CheckHeaderHygiene(prepared, &findings);
  CheckAsserts(prepared, &findings);
  CheckVersioningDiscipline(facts, &findings);
  CheckFindMutableOutsideDocument(prepared, &findings);
  CheckDeterminism(prepared, facts, &findings);
  CheckWalGrammar(facts, &findings);
  CheckThreadAnnotations(prepared, &findings);
  CheckNameRegistry(prepared, facts, &findings);
  CheckEdgeTargetOwnership(prepared, &findings);
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              // Numeric rule order, so R10 sorts after R9, not after R1.
              const auto rank = [](const std::string& r) {
                return r.size() > 1 ? std::atoi(r.c_str() + 1) : 0;
              };
              if (rank(a.rule) != rank(b.rule)) {
                return rank(a.rule) < rank(b.rule);
              }
              if (a.rule != b.rule) return a.rule < b.rule;
              if (a.file != b.file) return a.file < b.file;
              return a.line < b.line;
            });
  return findings;
}

std::string FormatFindings(const std::vector<Finding>& findings) {
  std::ostringstream os;
  for (const Finding& f : findings) {
    os << f.file << ":" << f.line << ": [" << f.rule << "] " << f.message
       << "\n";
  }
  return os.str();
}

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;  // UTF-8 passes through verbatim
        }
    }
  }
  return out;
}

}  // namespace

std::string FormatFindingsJson(const std::vector<Finding>& findings) {
  if (findings.empty()) return "[]\n";
  std::ostringstream os;
  os << "[\n";
  for (size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    os << "  {\"rule\": \"" << JsonEscape(f.rule) << "\", \"file\": \""
       << JsonEscape(f.file) << "\", \"line\": " << f.line
       << ", \"message\": \"" << JsonEscape(f.message) << "\"}"
       << (i + 1 < findings.size() ? "," : "") << "\n";
  }
  os << "]\n";
  return os.str();
}

bool LoadTree(const std::string& root, std::vector<SourceFile>* files,
              std::string* error) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::is_directory(root, ec)) {
    if (error != nullptr) *error = "not a directory: " + root;
    return false;
  }
  std::vector<fs::path> paths;
  for (auto it = fs::recursive_directory_iterator(root, ec);
       !ec && it != fs::recursive_directory_iterator(); ++it) {
    if (!it->is_regular_file()) continue;
    const std::string ext = it->path().extension().string();
    if (ext == ".h" || ext == ".cc") paths.push_back(it->path());
  }
  std::sort(paths.begin(), paths.end());
  for (const fs::path& p : paths) {
    std::ifstream in(p, std::ios::binary);
    if (!in) {
      if (error != nullptr) *error = "cannot read " + p.string();
      return false;
    }
    std::ostringstream content;
    content << in.rdbuf();
    files->push_back({fs::relative(p, root).generic_string(),
                      content.str()});
  }
  return true;
}

}  // namespace axmlx::lint
