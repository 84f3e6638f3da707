#include "serve/spec.h"

#include "common/logging.h"

namespace aaws {
namespace serve {

const char *
arrivalKindName(ArrivalKind kind)
{
    switch (kind) {
    case ArrivalKind::poisson:
        return "poisson";
    case ArrivalKind::mmpp:
        return "mmpp";
    }
    return "?";
}

MmppRates
mmppRates(const ArrivalSpec &spec)
{
    AAWS_ASSERT(spec.mean_burst_s > 0.0 && spec.mean_idle_s > 0.0,
                "MMPP dwell means must be positive");
    AAWS_ASSERT(spec.burst_factor >= 1.0,
                "MMPP burst factor must be >= 1");
    // Long-run burst-state fraction, then split the target mean rate:
    //   rate = p_burst * r_burst + (1 - p_burst) * r_idle,
    //   r_burst = burst_factor * r_idle.
    double p_burst =
        spec.mean_burst_s / (spec.mean_burst_s + spec.mean_idle_s);
    MmppRates rates;
    rates.idle_hz = spec.rate_hz /
                    (p_burst * spec.burst_factor + (1.0 - p_burst));
    rates.burst_hz = spec.burst_factor * rates.idle_hz;
    return rates;
}

uint64_t
deriveSeed(uint64_t base, uint64_t salt)
{
    uint64_t z = base + (salt + 1) * 0x9E3779B97F4A7C15ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

} // namespace serve
} // namespace aaws
