#include "exp/results.h"

#include <cstdio>
#include <fstream>
#include <utility>

#include "common/json.h"
#include "common/logging.h"

namespace aaws {
namespace exp {

bool
ResultPoint::sameKey(const ResultPoint &other) const
{
    return bench == other.bench && series == other.series &&
           kernel == other.kernel && shape == other.shape &&
           variant == other.variant && metric == other.metric;
}

std::string
resultPointToJson(const ResultPoint &point)
{
    std::string out = "{\"schema\":";
    json::appendString(out, kResultsSchema);
    out += ",\"bench\":";
    json::appendString(out, point.bench);
    out += ",\"series\":";
    json::appendString(out, point.series);
    if (!point.kernel.empty()) {
        out += ",\"kernel\":";
        json::appendString(out, point.kernel);
    }
    if (!point.shape.empty()) {
        out += ",\"shape\":";
        json::appendString(out, point.shape);
    }
    if (!point.variant.empty()) {
        out += ",\"variant\":";
        json::appendString(out, point.variant);
    }
    out += ",\"metric\":";
    json::appendString(out, point.metric);
    out += ",\"value\":";
    json::appendDouble(out, point.value);
    out += "}";
    return out;
}

namespace {

/** Required string member; false when absent or not a string. */
bool
readString(const json::Value &value, const char *key, std::string &out)
{
    const json::Value *member = value.find(key);
    return member != nullptr && member->getString(out);
}

} // namespace

bool
resultPointFromJson(const std::string &line, ResultPoint &out)
{
    json::Value value;
    if (!json::parse(line, value))
        return false;
    std::string schema;
    if (!readString(value, "schema", schema) || schema != kResultsSchema)
        return false;
    ResultPoint point;
    if (!readString(value, "bench", point.bench) ||
        !readString(value, "series", point.series) ||
        !readString(value, "metric", point.metric))
        return false;
    // Optional identity fields default to "".
    readString(value, "kernel", point.kernel);
    readString(value, "shape", point.shape);
    readString(value, "variant", point.variant);
    const json::Value *v = value.find("value");
    if (v == nullptr || !v->getDouble(point.value))
        return false;
    out = std::move(point);
    return true;
}

bool
loadResults(const std::string &path, std::vector<ResultPoint> &out)
{
    std::ifstream in(path);
    if (!in.good()) {
        warn("cannot open results artifact '%s'", path.c_str());
        return false;
    }
    std::string line;
    size_t line_no = 0;
    while (std::getline(in, line)) {
        line_no++;
        if (line.empty())
            continue;
        ResultPoint point;
        if (!resultPointFromJson(line, point)) {
            warn("%s:%zu: not an %s datapoint", path.c_str(), line_no,
                 kResultsSchema);
            return false;
        }
        out.push_back(std::move(point));
    }
    return true;
}

ResultsWriter::~ResultsWriter()
{
    close();
}

void
ResultsWriter::open(std::string path, std::string bench)
{
    path_ = std::move(path);
    bench_ = std::move(bench);
    closed_ = false;
}

void
ResultsWriter::add(ResultPoint point)
{
    if (!enabled())
        return;
    point.bench = bench_;
    points_.push_back(std::move(point));
}

void
ResultsWriter::add(const std::string &series, const std::string &metric,
                   double value)
{
    ResultPoint point;
    point.series = series;
    point.metric = metric;
    point.value = value;
    add(std::move(point));
}

bool
ResultsWriter::close()
{
    if (!enabled() || closed_)
        return true;
    closed_ = true;
    std::string out;
    for (const ResultPoint &point : points_) {
        out += resultPointToJson(point);
        out += '\n';
    }
    std::FILE *f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
        warn("cannot write results artifact '%s'", path_.c_str());
        return false;
    }
    size_t written = std::fwrite(out.data(), 1, out.size(), f);
    bool ok = std::fclose(f) == 0 && written == out.size();
    if (!ok)
        warn("short write on results artifact '%s'", path_.c_str());
    return ok;
}

} // namespace exp
} // namespace aaws
