/**
 * @file
 * The one place that knows every concrete RuntimeBackend.
 *
 * Lives in src/chan/ (not src/runtime/) so the runtime library never
 * depends on the channel backend: code that only ever wants a
 * WorkerPool keeps constructing one directly, while benches, examples,
 * and the serving layer construct whatever `--backend=` selected
 * through this factory.
 */

#ifndef AAWS_CHAN_BACKEND_FACTORY_H
#define AAWS_CHAN_BACKEND_FACTORY_H

#include <memory>

#include "runtime/backend.h"

namespace aaws::chan {

/**
 * Construct the selected backend.  The constructing thread becomes
 * worker 0 (the master) of the returned pool, exactly as when
 * constructing WorkerPool or ChannelPool directly.  The channel
 * backend uses adaptive stealing (its best general-purpose setting);
 * construct a ChannelPool directly to pin steal-one/steal-half.
 */
std::unique_ptr<RuntimeBackend> makeBackend(BackendKind kind, int threads,
                                            const PoolOptions &options);

} // namespace aaws::chan

#endif // AAWS_CHAN_BACKEND_FACTORY_H
