#include "kernels/registry.h"

#include "common/logging.h"
#include "common/rng.h"
#include "kernels/generators.h"

namespace aaws {

namespace {

using Generator = TaskDag (*)(Rng &);

struct Entry
{
    const char *name;
    Generator generate;
};

const Entry kEntries[] = {
    {"bfs-d", genBfsD},       {"bfs-nd", genBfsNd},
    {"qsort-1", genQsort1},   {"qsort-2", genQsort2},
    {"sampsort", genSampsort}, {"dict", genDict},
    {"hull", genHull},        {"radix-1", genRadix1},
    {"radix-2", genRadix2},   {"knn", genKnn},
    {"mis", genMis},          {"nbody", genNbody},
    {"rdups", genRdups},      {"sarray", genSarray},
    {"sptree", genSptree},    {"clsky", genClsky},
    {"cilksort", genCilksort}, {"heat", genHeat},
    {"ksack", genKsack},      {"matmul", genMatmul},
    {"bscholes", genBscholes}, {"uts", genUts},
};

} // namespace

std::vector<std::string>
kernelNames()
{
    std::vector<std::string> names;
    for (const auto &row : table3())
        names.push_back(row.name);
    return names;
}

Kernel
makeKernel(const std::string &name, uint64_t seed)
{
    for (const auto &entry : kEntries) {
        if (name == entry.name) {
            // Mix the kernel name into the seed so different kernels
            // draw independent streams from the same experiment seed.
            uint64_t mixed = seed;
            for (const char *c = entry.name; *c; ++c)
                mixed = mixed * 1099511628211ull + static_cast<uint8_t>(*c);
            Rng rng(mixed);
            Kernel kernel{table3Row(name), entry.generate(rng)};
            kernel.dag.validate();
            // Freeze the DAG: builds the packed op view once and makes
            // the kernel safely shareable across concurrent simulations
            // (the experiment engine memoizes kernels per batch).
            kernel.dag.seal();
            return kernel;
        }
    }
    fatal("unknown kernel '%s'", name.c_str());
}

} // namespace aaws
