/**
 * @file
 * Bit-exact JSON round-tripping for SimResult.
 *
 * The experiment engine's content-addressed cache stores one compact
 * JSON record per simulation; the format must reproduce every field
 * bit-identically on parse (doubles via 17-significant-digit decimal,
 * 64-bit counters via integer tokens), because cached results feed the
 * same golden-file and determinism checks as live simulations.
 */

#ifndef AAWS_SIM_RESULT_JSON_H
#define AAWS_SIM_RESULT_JSON_H

#include <string>

#include "common/json.h"
#include "sim/result.h"

namespace aaws {

/**
 * Append a SimResult to `out` as one compact JSON object (no newline),
 * reserving room for all of it first.
 */
void appendSimResultJson(std::string &out, const SimResult &result);

/** appendSimResultJson into a new string. */
std::string simResultToJson(const SimResult &result);

/**
 * Rebuild a SimResult from a parsed JSON value.  Strict: every field
 * the writer emits must be present and well-typed; returns false (with
 * `out` unspecified) otherwise, so corrupt cache records read as
 * misses.
 */
bool simResultFromJson(const json::Value &value, SimResult &out);

/** Convenience: parse text then rebuild; false on any failure. */
bool simResultFromJson(const std::string &text, SimResult &out);

} // namespace aaws

#endif // AAWS_SIM_RESULT_JSON_H
