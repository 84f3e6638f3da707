/**
 * @file
 * Content-addressed on-disk result cache for the experiment engine.
 *
 * Each RunSpec hashes to `<dir>/<16-hex-fnv1a>.json` holding one
 * compact JSON record: the engine schema version, the spec's canonical
 * string (full integrity check -- a hash collision or schema drift
 * reads as a miss, never as a wrong result), and the serialized
 * RunResult.  Writes go through a temp file + rename so concurrent
 * writers and crashes can only ever leave a complete record or a
 * harmless temp file behind; corrupt or truncated records are treated
 * as misses and rewritten by the next run.
 *
 * The cache honors exactly what it is constructed with; the benches
 * set it from their --no-cache and --cache-dir flags (exp/cli.h).
 */

#ifndef AAWS_EXP_CACHE_H
#define AAWS_EXP_CACHE_H

#include <atomic>
#include <string>

#include "exp/run_spec.h"

namespace aaws {
namespace exp {

/** Default cache directory when no option overrides it. */
inline constexpr const char *kDefaultCacheDir = ".aaws-cache";

class ResultCache
{
  public:
    /**
     * @param enabled Master switch; honored as given (the environment
     *        is the CLI layer's business, see the file comment).
     * @param dir Cache directory; empty selects kDefaultCacheDir.
     */
    explicit ResultCache(bool enabled = true, const std::string &dir = "");

    bool enabled() const { return enabled_; }
    const std::string &dir() const { return dir_; }

    /** Cache file path a spec addresses (valid even when disabled). */
    std::string pathFor(const RunSpec &spec) const;

    /**
     * Load a cached result.  False when disabled, absent, unparsable,
     * truncated, schema-mismatched, or recorded for a different
     * canonical spec.
     */
    bool lookup(const RunSpec &spec, RunResult &out) const;

    /**
     * Persist a result (atomic write).  Best effort: I/O failures warn
     * once and report false, they never abort an experiment run.
     */
    bool store(const RunSpec &spec, const RunResult &result) const;

  private:
    bool enabled_ = true;
    std::string dir_;
    /** Distinguishes temp files of concurrent writers in one process. */
    mutable std::atomic<uint64_t> temp_counter_{0};
};

} // namespace exp
} // namespace aaws

#endif // AAWS_EXP_CACHE_H
