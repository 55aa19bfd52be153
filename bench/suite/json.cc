#include "json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace suite {

const Json* Json::Find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [name, value] : object) {
    if (name == key) return &value;
  }
  return nullptr;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<Json> Document(std::string* error) {
    std::optional<Json> value = Value();
    SkipSpace();
    if (value && pos_ != text_.size()) Fail("trailing characters");
    if (!error_.empty()) {
      if (error != nullptr) *error = error_;
      return std::nullopt;
    }
    return value;
  }

 private:
  static constexpr int kMaxDepth = 64;

  void Fail(const std::string& what) {
    if (error_.empty()) {
      error_ = what + " at offset " + std::to_string(pos_);
    }
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  bool Consume(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  std::optional<Json> Value() {
    if (++depth_ > kMaxDepth) {
      Fail("nesting too deep");
      return std::nullopt;
    }
    SkipSpace();
    std::optional<Json> out;
    Json value;
    if (pos_ >= text_.size()) {
      Fail("unexpected end");
    } else if (text_[pos_] == '{') {
      out = Object();
    } else if (text_[pos_] == '[') {
      out = Array();
    } else if (text_[pos_] == '"') {
      if (auto s = String()) {
        value.kind = Json::Kind::kString;
        value.string = std::move(*s);
        out = std::move(value);
      }
    } else if (Consume("true")) {
      value.kind = Json::Kind::kBool;
      value.boolean = true;
      out = std::move(value);
    } else if (Consume("false")) {
      value.kind = Json::Kind::kBool;
      out = std::move(value);
    } else if (Consume("null")) {
      out = std::move(value);
    } else {
      out = Number();
    }
    --depth_;
    return out;
  }

  std::optional<Json> Number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double parsed = std::strtod(token.c_str(), &end);
    if (token.empty() || end != token.c_str() + token.size()) {
      Fail("bad value");
      return std::nullopt;
    }
    Json value;
    value.kind = Json::Kind::kNumber;
    value.number = parsed;
    return value;
  }

  std::optional<std::string> String() {
    ++pos_;  // opening quote
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) break;
        const char esc = text_[pos_++];
        switch (esc) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'u': {
            const unsigned long code =
                pos_ + 4 <= text_.size()
                    ? std::strtoul(std::string(text_.substr(pos_, 4)).c_str(),
                                   nullptr, 16)
                    : 0x80;
            if (code >= 0x80) {
              Fail("unsupported \\u escape");
              return std::nullopt;
            }
            pos_ += 4;
            c = static_cast<char>(code);
            break;
          }
          default: c = esc; break;  // \" \\ \/
        }
      }
      out += c;
    }
    if (pos_ >= text_.size()) {
      Fail("unterminated string");
      return std::nullopt;
    }
    ++pos_;  // closing quote
    return out;
  }

  std::optional<Json> Array() {
    ++pos_;
    Json value;
    value.kind = Json::Kind::kArray;
    SkipSpace();
    if (Consume("]")) return value;
    for (;;) {
      std::optional<Json> element = Value();
      if (!element) return std::nullopt;
      value.array.push_back(std::move(*element));
      SkipSpace();
      if (Consume("]")) return value;
      if (!Consume(",")) {
        Fail("expected ',' or ']'");
        return std::nullopt;
      }
    }
  }

  std::optional<Json> Object() {
    ++pos_;
    Json value;
    value.kind = Json::Kind::kObject;
    SkipSpace();
    if (Consume("}")) return value;
    for (;;) {
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        Fail("expected a key");
        return std::nullopt;
      }
      std::optional<std::string> key = String();
      if (!key) return std::nullopt;
      SkipSpace();
      if (!Consume(":")) {
        Fail("expected ':'");
        return std::nullopt;
      }
      std::optional<Json> member = Value();
      if (!member) return std::nullopt;
      value.object.emplace_back(std::move(*key), std::move(*member));
      SkipSpace();
      if (Consume("}")) return value;
      if (!Consume(",")) {
        Fail("expected ',' or '}'");
        return std::nullopt;
      }
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  std::string error_;
};

}  // namespace

std::optional<Json> ParseJson(std::string_view text, std::string* error) {
  return Parser(text).Document(error);
}

std::optional<Json> LoadJsonFile(const std::string& path, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) *error = "cannot open " + path;
    return std::nullopt;
  }
  std::ostringstream text;
  text << in.rdbuf();
  std::string parse_error;
  std::optional<Json> doc = ParseJson(text.str(), &parse_error);
  if (!doc && error != nullptr) *error = path + ": " + parse_error;
  return doc;
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[32];
  for (int precision = 6; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
    if (std::strtod(buf, nullptr) == value) break;
  }
  return buf;
}

}  // namespace suite
