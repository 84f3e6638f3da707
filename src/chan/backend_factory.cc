#include "chan/backend_factory.h"

#include "chan/channel_pool.h"
#include "runtime/worker_pool.h"

namespace aaws::chan {

std::unique_ptr<RuntimeBackend>
makeBackend(BackendKind kind, int threads, const PoolOptions &options)
{
    switch (kind) {
    case BackendKind::deque:
        return std::make_unique<WorkerPool>(threads, options);
    case BackendKind::chan:
        return std::make_unique<ChannelPool>(threads, options,
                                             StealKind::adaptive);
    }
    return nullptr;
}

} // namespace aaws::chan
