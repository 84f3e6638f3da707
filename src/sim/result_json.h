/**
 * @file
 * JSON serialization of a SimResult.
 *
 * One compact JSON object per simulation, every field spelled so it
 * reads back bit-identically (doubles with 17 significant digits, 64-bit
 * counters as integer tokens).  The end-to-end benchmark times this
 * writer, and the serialized-result golden pins its text.
 */

#ifndef AAWS_SIM_RESULT_JSON_H
#define AAWS_SIM_RESULT_JSON_H

#include <string>

#include "sim/result.h"

namespace aaws {

/**
 * Append a SimResult to `out` as one compact JSON object (no newline),
 * reserving room for all of it first.
 */
void appendSimResultJson(std::string &out, const SimResult &result);

/** appendSimResultJson into a new string. */
std::string simResultToJson(const SimResult &result);

} // namespace aaws

#endif // AAWS_SIM_RESULT_JSON_H
