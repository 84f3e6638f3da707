/**
 * @file
 * Fixed-bucket log-scale latency histogram for the serving benches.
 *
 * Buckets are defined purely by the bit pattern of the recorded double
 * (IEEE-754 exponent plus the top kSubBits mantissa bits), so indexing
 * needs no libm call and is bit-deterministic on every platform: the
 * regular range [2^-30 s, 2^10 s) — just under a nanosecond to ~17
 * minutes — is covered by 8 sub-buckets per octave (worst-case relative
 * width 12.5%), with explicit underflow and overflow buckets outside
 * it.  Histograms merge by adding counts, so per-worker histograms
 * collapse into one whole-stream histogram without any ordering
 * sensitivity, and quantile extraction is exact in the bucketed sense:
 * quantile(q) returns the lower edge of the bucket holding the
 * nearest-rank sample, which equals bucketLowerEdge(bucketIndex(s))
 * for the sample s a sorted-sample oracle would pick.
 *
 * JSON round-trips bit-exactly (%.17g doubles, integer counts), and a
 * parsed histogram is validated against its own total (fail-closed like
 * every other cache/artifact parser in the tree).
 */

#ifndef AAWS_COMMON_HISTOGRAM_H
#define AAWS_COMMON_HISTOGRAM_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.h"

namespace aaws {

class LatencyHistogram
{
  public:
    /** Mantissa bits per bucket: 2^3 = 8 sub-buckets per octave. */
    static constexpr int kSubBits = 3;
    /** Smallest regular-bucket value, 2^kMinExp seconds (~0.93 ns). */
    static constexpr int kMinExp = -30;
    /** First value past the regular range, 2^kMaxExp seconds (1024 s). */
    static constexpr int kMaxExp = 10;
    /** Regular buckets (octaves x sub-buckets), excluding under/over. */
    static constexpr int kRegularBuckets = (kMaxExp - kMinExp)
                                           << kSubBits;
    /** Total buckets: underflow + regular + overflow. */
    static constexpr int kNumBuckets = kRegularBuckets + 2;

    LatencyHistogram() : counts_(kNumBuckets, 0) {}

    /**
     * Bucket index of a latency in seconds: 0 is the underflow bucket
     * (negative, NaN, or < 2^kMinExp), kNumBuckets-1 the overflow
     * bucket (>= 2^kMaxExp, including +inf).
     */
    static int bucketIndex(double seconds);

    /** Inclusive lower edge of a bucket (0 for the underflow bucket). */
    static double bucketLowerEdge(int index);

    /**
     * Exclusive upper edge (lower edge of the next bucket); the
     * overflow bucket reports +inf.
     */
    static double bucketUpperEdge(int index);

    /** Record one latency observation. */
    void record(double seconds);

    /** Add another histogram's counts (and min/max) into this one. */
    void merge(const LatencyHistogram &other);

    /** Total observations recorded. */
    uint64_t count() const { return count_; }

    /** Raw per-bucket counts (size kNumBuckets). */
    const std::vector<uint64_t> &counts() const { return counts_; }

    /**
     * Nearest-rank quantile, q in (0, 1]: the lower edge of the bucket
     * containing the ceil(q*n)-th smallest observation (0 when empty).
     */
    double quantile(double q) const;

    /** Bucket-midpoint mean: sum(mid_i * n_i) / n (0 when empty). */
    double mean() const;

    /** Smallest / largest raw value recorded (0 when empty). */
    double minValue() const { return count_ ? min_ : 0.0; }
    double maxValue() const { return count_ ? max_ : 0.0; }

    bool operator==(const LatencyHistogram &other) const;

    /** Append compact one-line JSON (sparse nonzero buckets) to `out`. */
    void appendJson(std::string &out) const;

    /** appendJson into a new string. */
    std::string
    toJson() const
    {
        std::string out;
        appendJson(out);
        return out;
    }

    /**
     * Rebuild from JSON; strict (false on malformed/unknown content,
     * inconsistent totals, or out-of-range bucket indices).
     */
    static bool fromJson(const json::Value &value, LatencyHistogram &out);
    static bool fromJson(const std::string &text, LatencyHistogram &out);

  private:
    std::vector<uint64_t> counts_;
    uint64_t count_ = 0;
    double min_ = 0.0;
    double max_ = 0.0;
};

} // namespace aaws

#endif // AAWS_COMMON_HISTOGRAM_H
