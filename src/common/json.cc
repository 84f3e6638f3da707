#include "common/json.h"

#include <cctype>
#include <charconv>
#include <cstdlib>

namespace aaws {
namespace json {

void
appendString(std::string &out, std::string_view s)
{
    out.push_back('"');
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
          default: {
            const auto code = static_cast<unsigned char>(c);
            if (code < 0x20) {
                out += "\\u00";
                out.push_back("0123456789abcdef"[code >> 4]);
                out.push_back("0123456789abcdef"[code & 0xf]);
            } else {
                out.push_back(c);
            }
          }
        }
    }
    out.push_back('"');
}

void
appendDouble(std::string &out, double value)
{
    // Longest %.17g: sign, 17 digits, point, "e-308".
    char buf[32];
    char *end = std::to_chars(buf, buf + sizeof buf, value,
                              std::chars_format::general, 17)
                    .ptr;
    out.append(buf, end);
}

void
appendFloat(std::string &out, float value)
{
    char buf[24];
    char *end = std::to_chars(buf, buf + sizeof buf,
                              static_cast<double>(value),
                              std::chars_format::general, 9)
                    .ptr;
    out.append(buf, end);
}

void
appendU64(std::string &out, uint64_t value)
{
    char buf[24];
    char *end = std::to_chars(buf, buf + sizeof buf, value).ptr;
    out.append(buf, end);
}

std::string
encodeString(std::string_view s)
{
    std::string out;
    out.reserve(s.size() + 2);
    appendString(out, s);
    return out;
}

std::string
encodeDouble(double value)
{
    std::string out;
    appendDouble(out, value);
    return out;
}

const Value *
Value::find(std::string_view key) const
{
    if (kind != Kind::object)
        return nullptr;
    for (const auto &[name, value] : members)
        if (name == key)
            return &value;
    return nullptr;
}

bool
Value::getDouble(double &out) const
{
    if (kind != Kind::number)
        return false;
    char *end = nullptr;
    out = std::strtod(scalar.c_str(), &end);
    return end == scalar.c_str() + scalar.size();
}

bool
Value::getFloat(float &out) const
{
    double d = 0.0;
    if (!getDouble(d))
        return false;
    out = static_cast<float>(d);
    return true;
}

bool
Value::getU64(uint64_t &out) const
{
    if (kind != Kind::number || scalar.empty())
        return false;
    // Only plain non-negative integer tokens keep full 64-bit precision.
    for (char c : scalar)
        if (!std::isdigit(static_cast<unsigned char>(c)))
            return false;
    char *end = nullptr;
    out = std::strtoull(scalar.c_str(), &end, 10);
    return end == scalar.c_str() + scalar.size();
}

bool
Value::getI64(int64_t &out) const
{
    if (kind != Kind::number || scalar.empty())
        return false;
    size_t start = scalar[0] == '-' ? 1 : 0;
    if (start == scalar.size())
        return false;
    for (size_t i = start; i < scalar.size(); ++i)
        if (!std::isdigit(static_cast<unsigned char>(scalar[i])))
            return false;
    char *end = nullptr;
    out = std::strtoll(scalar.c_str(), &end, 10);
    return end == scalar.c_str() + scalar.size();
}

bool
Value::getString(std::string &out) const
{
    if (kind != Kind::string)
        return false;
    out = scalar;
    return true;
}

bool
Value::getBool(bool &out) const
{
    if (kind != Kind::boolean)
        return false;
    out = bool_value;
    return true;
}

namespace {

/** Guard against pathological nesting in corrupt cache files. */
constexpr int kMaxDepth = 64;

class Parser
{
  public:
    explicit Parser(std::string_view text) : text_(text) {}

    bool
    run(Value &out)
    {
        if (!parseValue(out, 0))
            return false;
        skipSpace();
        return pos_ == text_.size();
    }

  private:
    void
    skipSpace()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            pos_++;
    }

    bool
    consume(char c)
    {
        skipSpace();
        if (pos_ >= text_.size() || text_[pos_] != c)
            return false;
        pos_++;
        return true;
    }

    bool
    literal(std::string_view word)
    {
        if (text_.substr(pos_, word.size()) != word)
            return false;
        pos_ += word.size();
        return true;
    }

    bool
    parseValue(Value &out, int depth)
    {
        if (depth > kMaxDepth)
            return false;
        skipSpace();
        if (pos_ >= text_.size())
            return false;
        char c = text_[pos_];
        switch (c) {
          case '{':
            return parseObject(out, depth);
          case '[':
            return parseArray(out, depth);
          case '"':
            out.kind = Value::Kind::string;
            return parseString(out.scalar);
          case 't':
            out.kind = Value::Kind::boolean;
            out.bool_value = true;
            return literal("true");
          case 'f':
            out.kind = Value::Kind::boolean;
            out.bool_value = false;
            return literal("false");
          case 'n':
            out.kind = Value::Kind::null_value;
            return literal("null");
          default:
            return parseNumber(out);
        }
    }

    bool
    parseString(std::string &out)
    {
        if (!consume('"'))
            return false;
        out.clear();
        while (pos_ < text_.size()) {
            char c = text_[pos_++];
            if (c == '"')
                return true;
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (pos_ >= text_.size())
                return false;
            char esc = text_[pos_++];
            switch (esc) {
              case '"':
              case '\\':
              case '/':
                out.push_back(esc);
                break;
              case 'n':
                out.push_back('\n');
                break;
              case 'r':
                out.push_back('\r');
                break;
              case 't':
                out.push_back('\t');
                break;
              case 'b':
                out.push_back('\b');
                break;
              case 'f':
                out.push_back('\f');
                break;
              case 'u': {
                if (pos_ + 4 > text_.size())
                    return false;
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    char h = text_[pos_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        return false;
                }
                // The writer only emits \u for C0 controls; decode the
                // Latin-1 range and reject anything wider (our own
                // format never produces it).
                if (code > 0xFF)
                    return false;
                out.push_back(static_cast<char>(code));
                break;
              }
              default:
                return false;
            }
        }
        return false; // unterminated
    }

    bool
    parseNumber(Value &out)
    {
        size_t start = pos_;
        if (pos_ < text_.size() &&
            (text_[pos_] == '-' || text_[pos_] == '+'))
            pos_++;
        // Accept inf/nan alongside standard JSON numbers: %.17g emits
        // them for non-finite doubles and strtod parses them back.
        if (pos_ < text_.size() && std::isalpha(static_cast<unsigned char>(
                                       text_[pos_]))) {
            while (pos_ < text_.size() &&
                   std::isalpha(static_cast<unsigned char>(text_[pos_])))
                pos_++;
        } else {
            while (pos_ < text_.size()) {
                char c = text_[pos_];
                if (std::isdigit(static_cast<unsigned char>(c)) ||
                    c == '.' || c == 'e' || c == 'E' || c == '+' ||
                    c == '-')
                    pos_++;
                else
                    break;
            }
        }
        if (pos_ == start)
            return false;
        out.kind = Value::Kind::number;
        out.scalar = std::string(text_.substr(start, pos_ - start));
        // Validate the token parses as a double at all.
        char *end = nullptr;
        std::strtod(out.scalar.c_str(), &end);
        return end == out.scalar.c_str() + out.scalar.size();
    }

    bool
    parseArray(Value &out, int depth)
    {
        if (!consume('['))
            return false;
        out.kind = Value::Kind::array;
        skipSpace();
        if (consume(']'))
            return true;
        while (true) {
            Value item;
            if (!parseValue(item, depth + 1))
                return false;
            out.items.push_back(std::move(item));
            if (consume(','))
                continue;
            return consume(']');
        }
    }

    bool
    parseObject(Value &out, int depth)
    {
        if (!consume('{'))
            return false;
        out.kind = Value::Kind::object;
        skipSpace();
        if (consume('}'))
            return true;
        while (true) {
            std::string key;
            skipSpace();
            if (!parseString(key) || !consume(':'))
                return false;
            Value item;
            if (!parseValue(item, depth + 1))
                return false;
            out.members.emplace_back(std::move(key), std::move(item));
            if (consume(','))
                continue;
            return consume('}');
        }
    }

    std::string_view text_;
    size_t pos_ = 0;
};

} // namespace

bool
parse(std::string_view text, Value &out)
{
    return Parser(text).run(out);
}

} // namespace json
} // namespace aaws
