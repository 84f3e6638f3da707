/**
 * @file
 * Minimal dependency-free JSON reader/writer for serialized results and
 * the aaws-results/v1 artifacts.
 *
 * The writer emits compact one-line JSON; doubles are printed with 17
 * significant digits so parsing them back yields the bit-identical
 * value (the simulator's determinism contract extends to serialized
 * results).  It appends to a caller's buffer, so a record is built in
 * one string, and spells every number with std::to_chars, whose general
 * format at a given precision is printf's %.*g in the C locale, byte for
 * byte, without a format string, a locale or a temporary.  The reader
 * is a small recursive-descent parser that keeps
 * number tokens as raw text, so integer fields can be converted with
 * full 64-bit precision instead of losing bits through a double.
 *
 * parse() returns false on malformed input rather than throwing or
 * aborting: the artifact loader (exp/results.h) reports the file and
 * line it could not read.
 */

#ifndef AAWS_COMMON_JSON_H
#define AAWS_COMMON_JSON_H

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace aaws {
namespace json {

// --- writing ------------------------------------------------------------

/** Append `s` quoted and escaped as a JSON string literal. */
void appendString(std::string &out, std::string_view s);

/** Append `value` as %.17g spells it, which round-trips bit-exactly. */
void appendDouble(std::string &out, double value);

/** Append `value` as %.9g spells it, which round-trips every binary32. */
void appendFloat(std::string &out, float value);

/** Append `value` in decimal. */
void appendU64(std::string &out, uint64_t value);

/** appendString into a new string. */
std::string encodeString(std::string_view s);

/** appendDouble into a new string. */
std::string encodeDouble(double value);

// --- parsing ------------------------------------------------------------

/** One parsed JSON value (tree-owning). */
struct Value
{
    enum class Kind
    {
        null_value,
        boolean,
        number,
        string,
        array,
        object,
    };

    Kind kind = Kind::null_value;
    bool bool_value = false;
    /** Decoded string payload, or the raw number token. */
    std::string scalar;
    /** Array elements (kind == array). */
    std::vector<Value> items;
    /** Object members in file order (kind == object). */
    std::vector<std::pair<std::string, Value>> members;

    /** Member lookup; nullptr when absent or not an object. */
    const Value *find(std::string_view key) const;

    /** Number -> double via strtod; false when not a number. */
    bool getDouble(double &out) const;
    /** String payload; false when not a string. */
    bool getString(std::string &out) const;
};

/**
 * Parse a complete JSON document.  Trailing non-whitespace, nesting
 * deeper than an internal sanity limit, or any syntax error returns
 * false and leaves `out` unspecified.
 */
bool parse(std::string_view text, Value &out);

} // namespace json
} // namespace aaws

#endif // AAWS_COMMON_JSON_H
