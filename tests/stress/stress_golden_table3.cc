/**
 * @file
 * Golden-file regression for the Table III per-kernel statistics: every
 * registered kernel is simulated at the default workload seed under the
 * full AAWS variant (base+psm, 4B4L) and its gem5-style stats dump is
 * compared line-by-line against tests/stress/golden/table3_stats.txt.
 *
 * Any behavioural drift in the simulator, cost model, DVFS controller,
 * or workload generators shows up here at PR time as a readable diff of
 * exactly which statistic moved for which kernel.
 *
 * After an *intentional* behaviour change, regenerate with
 *
 *   AAWS_UPDATE_GOLDEN=1 ./tests/stress/stress_golden_table3
 *
 * and commit the diff alongside the change that explains it.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "aaws/experiment.h"
#include "sim/stats_writer.h"

namespace aaws {
namespace {

std::string
renderAllKernels()
{
    std::string out;
    for (const auto &name : kernelNames()) {
        Kernel kernel = makeKernel(name);
        MachineConfig config = configFor(kernel, Variant::base_psm);
        SimResult result = Machine(config, kernel.dag).run();
        out += "==== kernel " + name + " ====\n";
        out += formatStats(config, result);
    }
    return out;
}

TEST(GoldenTable3, StatsMatchGoldenFile)
{
    const char *path = AAWS_GOLDEN_FILE;
    std::string rendered = renderAllKernels();

    if (std::getenv("AAWS_UPDATE_GOLDEN")) {
        std::ofstream out(path, std::ios::trunc);
        ASSERT_TRUE(out) << "cannot write " << path;
        out << rendered;
        GTEST_SKIP() << "golden file regenerated: " << path;
    }

    std::ifstream in(path);
    ASSERT_TRUE(in) << "missing golden file " << path
                    << " (regenerate with AAWS_UPDATE_GOLDEN=1)";
    std::stringstream buffer;
    buffer << in.rdbuf();
    std::string golden = buffer.str();

    if (rendered == golden) {
        SUCCEED();
        return;
    }

    // Report the first diverging line with its kernel section so the
    // diff is actionable without running a local diff tool.
    std::istringstream got(rendered);
    std::istringstream want(golden);
    std::string got_line;
    std::string want_line;
    std::string section = "<preamble>";
    int line_no = 0;
    while (true) {
        bool more_got = static_cast<bool>(std::getline(got, got_line));
        bool more_want = static_cast<bool>(std::getline(want, want_line));
        if (!more_got && !more_want)
            break;
        line_no++;
        if (more_got && got_line.rfind("==== kernel", 0) == 0)
            section = got_line;
        if (!more_got || !more_want || got_line != want_line) {
            FAIL() << "stats drifted from golden file at line " << line_no
                   << " (" << section << ")\n  golden: "
                   << (more_want ? want_line : "<eof>")
                   << "\n  actual: " << (more_got ? got_line : "<eof>")
                   << "\nIf the change is intentional, regenerate with "
                      "AAWS_UPDATE_GOLDEN=1 and commit the diff.";
        }
    }
}

} // namespace
} // namespace aaws
