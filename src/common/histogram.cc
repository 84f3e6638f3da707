#include "common/histogram.h"

#include <bit>
#include <cmath>
#include <limits>

#include "common/json.h"

namespace aaws {

namespace {

constexpr int kSubMask = (1 << LatencyHistogram::kSubBits) - 1;
constexpr int kMantissaShift = 52 - LatencyHistogram::kSubBits;
constexpr int kExpBias = 1023;

double
edgeOfRegular(int regular)
{
    int octave = regular >> LatencyHistogram::kSubBits;
    int sub = regular & kSubMask;
    uint64_t biased = static_cast<uint64_t>(kExpBias +
                                            LatencyHistogram::kMinExp +
                                            octave);
    uint64_t bits = (biased << 52) |
                    (static_cast<uint64_t>(sub) << kMantissaShift);
    return std::bit_cast<double>(bits);
}

} // namespace

int
LatencyHistogram::bucketIndex(double seconds)
{
    // NaN and negatives fall through the first comparison into the
    // underflow bucket; +inf lands in overflow.
    if (!(seconds >= edgeOfRegular(0)))
        return 0;
    if (seconds >= bucketLowerEdge(kNumBuckets - 1))
        return kNumBuckets - 1;
    uint64_t bits = std::bit_cast<uint64_t>(seconds);
    int octave = static_cast<int>(bits >> 52) - (kExpBias + kMinExp);
    int sub = static_cast<int>(bits >> kMantissaShift) & kSubMask;
    return 1 + (octave << kSubBits) + sub;
}

double
LatencyHistogram::bucketLowerEdge(int index)
{
    if (index <= 0)
        return 0.0;
    if (index >= kNumBuckets - 1)
        return edgeOfRegular(kRegularBuckets);
    return edgeOfRegular(index - 1);
}

double
LatencyHistogram::bucketUpperEdge(int index)
{
    if (index >= kNumBuckets - 1)
        return std::numeric_limits<double>::infinity();
    return bucketLowerEdge(index + 1);
}

void
LatencyHistogram::record(double seconds)
{
    int index = bucketIndex(seconds);
    ++counts_[index];
    if (count_ == 0) {
        min_ = seconds;
        max_ = seconds;
    } else {
        if (seconds < min_)
            min_ = seconds;
        if (seconds > max_)
            max_ = seconds;
    }
    ++count_;
}

void
LatencyHistogram::merge(const LatencyHistogram &other)
{
    for (int i = 0; i < kNumBuckets; ++i)
        counts_[i] += other.counts_[i];
    if (other.count_ > 0) {
        if (count_ == 0) {
            min_ = other.min_;
            max_ = other.max_;
        } else {
            if (other.min_ < min_)
                min_ = other.min_;
            if (other.max_ > max_)
                max_ = other.max_;
        }
    }
    count_ += other.count_;
}

double
LatencyHistogram::quantile(double q) const
{
    if (count_ == 0)
        return 0.0;
    double scaled = std::ceil(q * static_cast<double>(count_));
    uint64_t rank = 1;
    if (scaled > 1.0)
        rank = static_cast<uint64_t>(scaled);
    if (rank > count_)
        rank = count_;
    uint64_t cumulative = 0;
    for (int i = 0; i < kNumBuckets; ++i) {
        cumulative += counts_[i];
        if (cumulative >= rank)
            return bucketLowerEdge(i);
    }
    return bucketLowerEdge(kNumBuckets - 1);
}

double
LatencyHistogram::mean() const
{
    if (count_ == 0)
        return 0.0;
    double sum = 0.0;
    for (int i = 0; i < kNumBuckets; ++i) {
        if (counts_[i] == 0)
            continue;
        double lo = bucketLowerEdge(i);
        // The overflow bucket has no finite width; charge its edge.
        double mid = i >= kNumBuckets - 1
                         ? lo
                         : lo + (bucketUpperEdge(i) - lo) * 0.5;
        sum += mid * static_cast<double>(counts_[i]);
    }
    return sum / static_cast<double>(count_);
}

bool
LatencyHistogram::operator==(const LatencyHistogram &other) const
{
    return counts_ == other.counts_ && count_ == other.count_ &&
           std::bit_cast<uint64_t>(minValue()) ==
               std::bit_cast<uint64_t>(other.minValue()) &&
           std::bit_cast<uint64_t>(maxValue()) ==
               std::bit_cast<uint64_t>(other.maxValue());
}

void
LatencyHistogram::appendJson(std::string &out) const
{
    out += "{\"count\":";
    json::appendU64(out, count_);
    out += ",\"min\":";
    json::appendDouble(out, minValue());
    out += ",\"max\":";
    json::appendDouble(out, maxValue());
    out += ",\"buckets\":[";
    bool first = true;
    for (int i = 0; i < kNumBuckets; ++i) {
        if (counts_[i] == 0)
            continue;
        if (!first)
            out.push_back(',');
        first = false;
        out.push_back('[');
        json::appendU64(out, static_cast<uint64_t>(i));
        out.push_back(',');
        json::appendU64(out, counts_[i]);
        out.push_back(']');
    }
    out += "]}";
}

} // namespace aaws
