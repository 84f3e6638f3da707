/**
 * @file
 * Declarative description of one open-loop serving experiment.
 *
 * A ServeSpec says how requests arrive (Poisson or two-state MMPP, per
 * tenant), how many, how the service is provisioned (admission-queue
 * bound, per-request deadline), and how the simulator-side engine
 * samples service times.  The experiment engine embeds an optional
 * ServeSpec in every RunSpec (exp/run_spec.h).
 */

#ifndef AAWS_SERVE_SPEC_H
#define AAWS_SERVE_SPEC_H

#include <cstdint>

namespace aaws {
namespace serve {

/** How a tenant's requests arrive. */
enum class ArrivalKind
{
    poisson, ///< Memoryless stream at rate_hz.
    mmpp     ///< Two-state Markov-modulated Poisson (bursty).
};

/** Display name ("poisson" / "mmpp"). */
const char *arrivalKindName(ArrivalKind kind);

/**
 * One tenant's arrival process.  For MMPP the *mean* rate equals
 * rate_hz: the burst-state rate is burst_factor times the idle-state
 * rate, and the two dwell times weight them so the long-run average
 * still comes out at rate_hz (see mmppRates()).
 */
struct ArrivalSpec
{
    ArrivalKind kind = ArrivalKind::poisson;
    /** Mean arrivals per second, per tenant. */
    double rate_hz = 1000.0;
    /** Burst-state rate multiplier over the idle-state rate (MMPP). */
    double burst_factor = 4.0;
    /** Mean dwell in the burst state, seconds (MMPP). */
    double mean_burst_s = 0.01;
    /** Mean dwell in the idle state, seconds (MMPP). */
    double mean_idle_s = 0.04;
};

/** The per-state rates an ArrivalSpec's MMPP parameters imply. */
struct MmppRates
{
    double burst_hz = 0.0;
    double idle_hz = 0.0;
};

/** Solve burst/idle rates so the long-run mean rate is rate_hz. */
MmppRates mmppRates(const ArrivalSpec &spec);

/** One open-loop serving experiment. */
struct ServeSpec
{
    ArrivalSpec arrival;
    /** Total requests to generate across all tenants. */
    uint64_t requests = 100000;
    /** Concurrent arrival streams (>= 1). */
    uint32_t tenants = 2;
    /** Admission bound: max requests in the system (queued + served). */
    uint32_t queue_cap = 64;
    /** Per-request completion deadline, seconds (0 = no deadline). */
    double deadline_s = 0.0;
    /** Simulator engine: seeded Machine runs in the service table. */
    uint32_t service_samples = 3;
};

/** Derive an independent sub-seed (splitmix64 step over base + salt). */
uint64_t deriveSeed(uint64_t base, uint64_t salt);

/**
 * Shared seed salts: tenant t's arrival stream always derives from
 * deriveSeed(seed, kTenantSeedSalt + t) in both engines, so the sim
 * and native servers replay the *same* arrival-time schedule for a
 * given (spec, seed); the service-draw stream uses its own salt.
 */
inline constexpr uint64_t kTenantSeedSalt = 0x7E00ull;
inline constexpr uint64_t kServiceSeedSalt = 0x5E21ull;

} // namespace serve
} // namespace aaws

#endif // AAWS_SERVE_SPEC_H
