#include "exp/cache.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <unistd.h>

#include "common/json.h"
#include "common/logging.h"

namespace aaws {
namespace exp {

ResultCache::ResultCache(bool enabled, const std::string &dir)
    : enabled_(enabled), dir_(dir.empty() ? kDefaultCacheDir : dir)
{
}

std::string
ResultCache::pathFor(const RunSpec &spec) const
{
    return strfmt("%s/%016llx.json", dir_.c_str(),
                  static_cast<unsigned long long>(specHash(spec)));
}

bool
ResultCache::lookup(const RunSpec &spec, RunResult &out) const
{
    if (!enabled_)
        return false;
    std::ifstream in(pathFor(spec), std::ios::binary);
    if (!in)
        return false;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    if (!in.good() && !in.eof())
        return false;
    std::string text = buffer.str();

    json::Value record;
    if (!json::parse(text, record) ||
        record.kind != json::Value::Kind::object)
        return false;
    const json::Value *schema = record.find("schema");
    uint64_t version = 0;
    if (!schema || !schema->getU64(version) ||
        version != kCacheSchemaVersion)
        return false;
    // The canonical spec inside the record is the integrity check: a
    // hash collision, a renamed file, or a stale record from an older
    // spec layout all fail here and read as a miss.
    const json::Value *canonical = record.find("spec");
    std::string recorded_spec;
    if (!canonical || !canonical->getString(recorded_spec) ||
        recorded_spec != canonicalSpec(spec))
        return false;
    const json::Value *result = record.find("result");
    RunResult parsed;
    if (!result || !runResultFromJson(*result, parsed))
        return false;
    if (parsed.kernel != spec.kernel || parsed.variant != spec.variant)
        return false;
    out = std::move(parsed);
    return true;
}

bool
ResultCache::store(const RunSpec &spec, const RunResult &result) const
{
    if (!enabled_)
        return false;
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec) {
        warn("exp cache: cannot create '%s': %s", dir_.c_str(),
             ec.message().c_str());
        return false;
    }

    std::string record = "{\"schema\":";
    json::appendU64(record, kCacheSchemaVersion);
    record += ",\"spec\":";
    json::appendString(record, canonicalSpec(spec));
    record += ",\"result\":";
    appendRunResultJson(record, result);
    record += "}\n";

    std::string path = pathFor(spec);
    // Unique temp name per process and per in-process writer; rename
    // within one directory is atomic, so readers only ever see whole
    // records.
    std::string temp = strfmt(
        "%s.tmp.%llu.%llu", path.c_str(),
        static_cast<unsigned long long>(::getpid()),
        static_cast<unsigned long long>(
            temp_counter_.fetch_add(1, std::memory_order_relaxed)));
    {
        std::ofstream out_file(temp, std::ios::binary | std::ios::trunc);
        if (!out_file) {
            warn("exp cache: cannot write '%s': %s", temp.c_str(),
                 std::strerror(errno));
            return false;
        }
        out_file << record;
        out_file.flush();
        if (!out_file.good()) {
            warn("exp cache: short write to '%s'", temp.c_str());
            out_file.close();
            std::filesystem::remove(temp, ec);
            return false;
        }
    }
    std::filesystem::rename(temp, path, ec);
    if (ec) {
        warn("exp cache: rename '%s' failed: %s", temp.c_str(),
             ec.message().c_str());
        std::filesystem::remove(temp, ec);
        return false;
    }
    return true;
}

} // namespace exp
} // namespace aaws
