#include "obs/json.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>

namespace axmlx::obs {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  AppendJsonEscaped(s, &out);
  return out;
}

void AppendJsonEscaped(std::string_view s, std::string* out) {
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
}

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (type != Type::kObject) return nullptr;
  for (const auto& [k, v] : members) {
    if (k == key) return &v;
  }
  return nullptr;
}

int64_t JsonValue::AsInt() const {
  if (type != Type::kNumber) return 0;
  return static_cast<int64_t>(number < 0 ? number - 0.5 : number + 0.5);
}

namespace {

/// Recursive-descent parser state over the raw text.
class Parser {
 public:
  Parser(const std::string& text, std::string* error)
      : s_(text), error_(error) {}

  std::optional<JsonValue> Parse() {
    SkipSpace();
    JsonValue v;
    if (!ParseValue(&v)) return std::nullopt;
    SkipSpace();
    if (i_ != s_.size()) {
      Fail("trailing characters after JSON document");
      return std::nullopt;
    }
    return v;
  }

 private:
  void Fail(const std::string& message) {
    if (error_ != nullptr && error_->empty()) {
      *error_ = message + " (at byte " + std::to_string(i_) + ")";
    }
  }

  void SkipSpace() {
    while (i_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[i_]))) {
      ++i_;
    }
  }

  bool Literal(const char* word, size_t len) {
    if (s_.compare(i_, len, word) != 0) {
      Fail("invalid literal");
      return false;
    }
    i_ += len;
    return true;
  }

  bool ParseValue(JsonValue* out) {
    if (depth_ > 64) {
      Fail("nesting too deep");
      return false;
    }
    if (i_ >= s_.size()) {
      Fail("unexpected end of input");
      return false;
    }
    const char c = s_[i_];
    if (c == '{') return ParseObject(out);
    if (c == '[') return ParseArray(out);
    if (c == '"') {
      out->type = JsonValue::Type::kString;
      return ParseString(&out->str);
    }
    if (c == 't') {
      out->type = JsonValue::Type::kBool;
      out->boolean = true;
      return Literal("true", 4);
    }
    if (c == 'f') {
      out->type = JsonValue::Type::kBool;
      out->boolean = false;
      return Literal("false", 5);
    }
    if (c == 'n') {
      out->type = JsonValue::Type::kNull;
      return Literal("null", 4);
    }
    return ParseNumber(out);
  }

  bool ParseNumber(JsonValue* out) {
    const char* begin = s_.c_str() + i_;
    char* end = nullptr;
    const double v = std::strtod(begin, &end);
    if (end == begin) {
      Fail("invalid number");
      return false;
    }
    out->type = JsonValue::Type::kNumber;
    out->number = v;
    i_ += static_cast<size_t>(end - begin);
    return true;
  }

  bool ParseString(std::string* out) {
    ++i_;  // opening quote
    while (i_ < s_.size() && s_[i_] != '"') {
      char c = s_[i_];
      if (c == '\\') {
        if (i_ + 1 >= s_.size()) {
          Fail("unterminated escape");
          return false;
        }
        const char esc = s_[i_ + 1];
        i_ += 2;
        switch (esc) {
          case '"':
          case '\\':
          case '/':
            *out += esc;
            break;
          case 'n':
            *out += '\n';
            break;
          case 't':
            *out += '\t';
            break;
          case 'r':
            *out += '\r';
            break;
          case 'b':
            *out += '\b';
            break;
          case 'f':
            *out += '\f';
            break;
          case 'u': {
            if (i_ + 4 > s_.size()) {
              Fail("truncated \\u escape");
              return false;
            }
            unsigned code = 0;
            for (int k = 0; k < 4; ++k) {
              const char h = s_[i_ + static_cast<size_t>(k)];
              code <<= 4;
              if (h >= '0' && h <= '9') {
                code |= static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                code |= static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                code |= static_cast<unsigned>(h - 'A' + 10);
              } else {
                Fail("invalid \\u escape");
                return false;
              }
            }
            i_ += 4;
            // UTF-8 encode the code point (surrogate pairs are not combined
            // — the emitters here only produce ASCII escapes).
            if (code < 0x80) {
              *out += static_cast<char>(code);
            } else if (code < 0x800) {
              *out += static_cast<char>(0xC0 | (code >> 6));
              *out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              *out += static_cast<char>(0xE0 | (code >> 12));
              *out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              *out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default:
            Fail("unknown escape");
            return false;
        }
        continue;
      }
      *out += c;
      ++i_;
    }
    if (i_ >= s_.size()) {
      Fail("unterminated string");
      return false;
    }
    ++i_;  // closing quote
    return true;
  }

  bool ParseArray(JsonValue* out) {
    out->type = JsonValue::Type::kArray;
    ++i_;  // '['
    ++depth_;
    SkipSpace();
    if (i_ < s_.size() && s_[i_] == ']') {
      ++i_;
      --depth_;
      return true;
    }
    while (true) {
      JsonValue item;
      if (!ParseValue(&item)) return false;
      out->items.push_back(std::move(item));
      SkipSpace();
      if (i_ < s_.size() && s_[i_] == ',') {
        ++i_;
        SkipSpace();
        continue;
      }
      if (i_ < s_.size() && s_[i_] == ']') {
        ++i_;
        --depth_;
        return true;
      }
      Fail("expected ',' or ']' in array");
      return false;
    }
  }

  bool ParseObject(JsonValue* out) {
    out->type = JsonValue::Type::kObject;
    ++i_;  // '{'
    ++depth_;
    SkipSpace();
    if (i_ < s_.size() && s_[i_] == '}') {
      ++i_;
      --depth_;
      return true;
    }
    while (true) {
      SkipSpace();
      if (i_ >= s_.size() || s_[i_] != '"') {
        Fail("expected object key string");
        return false;
      }
      std::string key;
      if (!ParseString(&key)) return false;
      SkipSpace();
      if (i_ >= s_.size() || s_[i_] != ':') {
        Fail("expected ':' after object key");
        return false;
      }
      ++i_;
      SkipSpace();
      JsonValue value;
      if (!ParseValue(&value)) return false;
      if (out->Find(key) == nullptr) {
        out->members.emplace_back(std::move(key), std::move(value));
      }
      SkipSpace();
      if (i_ < s_.size() && s_[i_] == ',') {
        ++i_;
        continue;
      }
      if (i_ < s_.size() && s_[i_] == '}') {
        ++i_;
        --depth_;
        return true;
      }
      Fail("expected ',' or '}' in object");
      return false;
    }
  }

  const std::string& s_;
  std::string* error_;
  size_t i_ = 0;
  int depth_ = 0;
};

}  // namespace

std::optional<JsonValue> ParseJson(const std::string& text,
                                   std::string* error) {
  return Parser(text, error).Parse();
}

}  // namespace axmlx::obs
