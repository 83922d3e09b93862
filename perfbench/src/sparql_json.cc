#include "sparql_json.h"

#include <map>

namespace perfbench {

namespace {

/// Minimal recursive-descent JSON reader over the subset the results
/// format uses: objects, arrays and strings (numbers/literals skipped).
class JsonReader {
 public:
  explicit JsonReader(std::string_view text) : text_(text) {}

  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' || text_[pos_] == '\r' ||
            text_[pos_] == '\t')) {
      ++pos_;
    }
  }
  bool Consume(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool Peek(char c) {
    SkipSpace();
    return pos_ < text_.size() && text_[pos_] == c;
  }

  bool String(std::string* out) {
    if (!Consume('"')) return false;
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return false;
      const char e = text_[pos_++];
      switch (e) {
        case 'n': out->push_back('\n'); break;
        case 't': out->push_back('\t'); break;
        case 'r': out->push_back('\r'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return false;
          const unsigned code =
              std::stoul(std::string(text_.substr(pos_, 4)), nullptr, 16);
          pos_ += 4;
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (code >> 6)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xE0 | (code >> 12)));
            out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: out->push_back(e); break;
      }
    }
    return false;
  }

  /// Skips any value.
  bool Skip() {
    SkipSpace();
    if (pos_ >= text_.size()) return false;
    const char c = text_[pos_];
    std::string scratch;
    if (c == '"') return String(&scratch);
    if (c == '{' || c == '[') {
      const char close = c == '{' ? '}' : ']';
      ++pos_;
      if (Consume(close)) return true;
      do {
        if (c == '{' && !(String(&scratch) && Consume(':'))) return false;
        if (!Skip()) return false;
      } while (Consume(','));
      return Consume(close);
    }
    while (pos_ < text_.size() && text_[pos_] != ',' && text_[pos_] != '}' &&
           text_[pos_] != ']') {
      ++pos_;
    }
    return true;
  }

  /// Reads an object of string-valued members into `out`.
  bool FlatObject(std::map<std::string, std::string>* out) {
    if (!Consume('{')) return false;
    if (Consume('}')) return true;
    std::string key, value;
    do {
      if (!String(&key) || !Consume(':') || !String(&value)) return false;
      (*out)[key] = value;
    } while (Consume(','));
    return Consume('}');
  }

 private:
  std::string_view text_;
  size_t pos_ = 0;
};

std::string BindingToCanonical(const std::map<std::string, std::string>& b) {
  const auto get = [&](const char* key) -> std::string {
    const auto it = b.find(key);
    return it == b.end() ? std::string() : it->second;
  };
  const std::string type = get("type");
  if (type == "uri") return "<" + get("value") + ">";
  if (type == "bnode") return "_:" + get("value");
  std::string out = "\"" + get("value") + "\"";
  if (b.count("xml:lang")) return out + "@" + get("xml:lang");
  if (b.count("datatype")) return out + "^^<" + get("datatype") + ">";
  return out;
}

}  // namespace

bool ParseSparqlJson(std::string_view body, std::vector<Row>* rows) {
  JsonReader r(body);
  std::vector<std::string> vars;
  std::string key;
  if (!r.Consume('{')) return false;
  do {
    if (!r.String(&key) || !r.Consume(':')) return false;
    if (key == "head") {
      if (!r.Consume('{')) return false;
      do {
        if (!r.String(&key) || !r.Consume(':')) return false;
        if (key != "vars") {
          if (!r.Skip()) return false;
          continue;
        }
        if (!r.Consume('[')) return false;
        if (!r.Consume(']')) {
          std::string var;
          do {
            if (!r.String(&var)) return false;
            vars.push_back(var);
          } while (r.Consume(','));
          if (!r.Consume(']')) return false;
        }
      } while (r.Consume(','));
      if (!r.Consume('}')) return false;
    } else if (key == "results") {
      if (!r.Consume('{')) return false;
      do {
        if (!r.String(&key) || !r.Consume(':')) return false;
        if (key != "bindings") {
          if (!r.Skip()) return false;
          continue;
        }
        if (!r.Consume('[')) return false;
        if (r.Consume(']')) continue;
        do {
          Row row(vars.size());
          if (!r.Consume('{')) return false;
          if (!r.Peek('}')) {
            do {
              std::string var;
              std::map<std::string, std::string> binding;
              if (!r.String(&var) || !r.Consume(':') ||
                  !r.FlatObject(&binding)) {
                return false;
              }
              for (size_t i = 0; i < vars.size(); ++i) {
                if (vars[i] == var) row[i] = BindingToCanonical(binding);
              }
            } while (r.Consume(','));
          }
          if (!r.Consume('}')) return false;
          rows->push_back(std::move(row));
        } while (r.Consume(','));
        if (!r.Consume(']')) return false;
      } while (r.Consume(','));
      if (!r.Consume('}')) return false;
    } else if (!r.Skip()) {
      return false;
    }
  } while (r.Consume(','));
  return r.Consume('}');
}

std::string CanonicalTerm(std::string_view lexical) {
  if (lexical.empty() || lexical.front() != '"') return std::string(lexical);
  size_t close = std::string_view::npos;
  for (size_t i = 1; i < lexical.size(); ++i) {
    if (lexical[i] == '\\') {
      ++i;
    } else if (lexical[i] == '"') {
      close = i;
      break;
    }
  }
  if (close == std::string_view::npos) return std::string(lexical);
  std::string out = "\"";
  const std::string_view body = lexical.substr(1, close - 1);
  for (size_t i = 0; i < body.size(); ++i) {
    if (body[i] != '\\' || i + 1 >= body.size()) {
      out.push_back(body[i]);
      continue;
    }
    const char e = body[++i];
    switch (e) {
      case 't': out.push_back('\t'); break;
      case 'n': out.push_back('\n'); break;
      case 'r': out.push_back('\r'); break;
      case '"': out.push_back('"'); break;
      case '\\': out.push_back('\\'); break;
      default:
        out.push_back('\\');
        out.push_back(e);
        break;
    }
  }
  out.push_back('"');
  out.append(lexical.substr(close + 1));
  return out;
}

}  // namespace perfbench
