#include "serve/spec.h"

#include "common/json.h"
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

bool
arrivalKindFromName(const std::string &name, ArrivalKind &out)
{
    for (ArrivalKind kind : {ArrivalKind::poisson, ArrivalKind::mmpp}) {
        if (name == arrivalKindName(kind)) {
            out = kind;
            return true;
        }
    }
    return false;
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

std::string
canonicalServeFragment(const ServeSpec &spec)
{
    std::string out = ";serve.kind=";
    out += arrivalKindName(spec.arrival.kind);
    out += ";serve.rate_hz=";
    json::appendDouble(out, spec.arrival.rate_hz);
    if (spec.arrival.kind == ArrivalKind::mmpp) {
        out += ";serve.burst_factor=";
        json::appendDouble(out, spec.arrival.burst_factor);
        out += ";serve.mean_burst_s=";
        json::appendDouble(out, spec.arrival.mean_burst_s);
        out += ";serve.mean_idle_s=";
        json::appendDouble(out, spec.arrival.mean_idle_s);
    }
    out += ";serve.requests=";
    json::appendU64(out, spec.requests);
    out += ";serve.tenants=";
    json::appendU64(out, spec.tenants);
    out += ";serve.queue_cap=";
    json::appendU64(out, spec.queue_cap);
    out += ";serve.deadline_s=";
    json::appendDouble(out, spec.deadline_s);
    out += ";serve.service_samples=";
    json::appendU64(out, spec.service_samples);
    return out;
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
