/**
 * @file
 * Tests of the reproduction gate: registry sanity (unique ids, sound
 * tolerances, enough coverage, every bench read by some claim), the
 * claim evaluator's verdict logic for every claim kind, and the
 * perturbation property the CI gate relies on — a datapoint pushed
 * outside its fail tolerance must flip the scoreboard to failing.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <set>

#include "exp/results.h"
#include "repro/check.h"
#include "repro/claims.h"

namespace aaws {
namespace {

repro::Claim
bandClaim(double expected, double warn_tol, double fail_tol)
{
    repro::Claim c;
    c.id = "test/band";
    c.kind = repro::ClaimKind::band;
    c.where = {"b", "s", "", "", "", "m"};
    c.expected = expected;
    c.warn_tol = warn_tol;
    c.fail_tol = fail_tol;
    return c;
}

exp::ResultPoint
point(double value)
{
    exp::ResultPoint p;
    p.bench = "b";
    p.series = "s";
    p.metric = "m";
    p.value = value;
    return p;
}

TEST(ClaimRegistry, HasBroadUniqueCoverage)
{
    const std::vector<repro::Claim> &claims = repro::paperClaims();
    EXPECT_GE(claims.size(), 25u)
        << "the gate must cover a representative slice of the paper";

    std::set<std::string> ids;
    std::set<std::string> benches;
    for (const repro::Claim &c : claims) {
        EXPECT_TRUE(ids.insert(c.id).second)
            << "duplicate claim id: " << c.id;
        EXPECT_FALSE(c.source.empty()) << c.id;
        EXPECT_FALSE(c.note.empty()) << c.id;
        EXPECT_FALSE(c.where.bench.empty()) << c.id;
        EXPECT_FALSE(c.where.series.empty()) << c.id;
        EXPECT_FALSE(c.where.metric.empty()) << c.id;
        benches.insert(c.where.bench);
        switch (c.kind) {
        case repro::ClaimKind::exact:
            EXPECT_GT(c.fail_tol, 0.0) << c.id;
            break;
        case repro::ClaimKind::band:
            EXPECT_NE(c.expected, 0.0)
                << c.id << ": relative bands need a nonzero anchor";
            EXPECT_GT(c.warn_tol, 0.0) << c.id;
            EXPECT_GE(c.fail_tol, c.warn_tol)
                << c.id << ": the warn radius must not exceed fail";
            break;
        case repro::ClaimKind::direction:
            EXPECT_NE(c.expected, 0.0)
                << c.id << ": slack is relative to the threshold";
            EXPECT_GE(c.fail_tol, 0.0) << c.id;
            break;
        }
    }
    EXPECT_GE(benches.size(), 10u)
        << "claims must span the bench suite, not one binary";
}

TEST(ClaimRegistry, EveryBenchFeedsAClaim)
{
    // CI's gate runs the bench built from each top-level bench/*.cc; a
    // bench that no claim reads is mechanism the gate never checks.
    std::set<std::string> claimed;
    for (const repro::Claim &c : repro::paperClaims())
        claimed.insert(c.where.bench);
    int benches = 0;
    for (const auto &entry :
         std::filesystem::directory_iterator(AAWS_BENCH_DIR)) {
        if (!entry.is_regular_file() || entry.path().extension() != ".cc")
            continue;
        ++benches;
        const std::string name = entry.path().stem().string();
        EXPECT_TRUE(claimed.count(name))
            << "bench/" << name << ".cc feeds no claim";
    }
    EXPECT_GE(benches, 10) << "too few bench sources under " AAWS_BENCH_DIR;
}

TEST(Evaluate, BandVerdictsFollowTolerances)
{
    repro::Claim c = bandClaim(2.0, 0.05, 0.20);
    auto verdictFor = [&](double value) {
        repro::Scoreboard board = repro::evaluate({c}, {point(value)});
        return board.outcomes.at(0).verdict;
    };
    EXPECT_EQ(verdictFor(2.0), repro::Verdict::pass);
    EXPECT_EQ(verdictFor(2.09), repro::Verdict::pass) << "4.5% in";
    EXPECT_EQ(verdictFor(2.3), repro::Verdict::warn) << "15% off";
    EXPECT_EQ(verdictFor(1.7), repro::Verdict::warn) << "15% under";
    EXPECT_EQ(verdictFor(2.5), repro::Verdict::fail) << "25% off";
    EXPECT_EQ(verdictFor(0.5), repro::Verdict::fail);
}

TEST(Evaluate, ExactRequiresNearEquality)
{
    repro::Claim c = bandClaim(3.0, 0.0, 1e-9);
    c.kind = repro::ClaimKind::exact;
    repro::Scoreboard hit = repro::evaluate({c}, {point(3.0)});
    EXPECT_EQ(hit.outcomes.at(0).verdict, repro::Verdict::pass);
    repro::Scoreboard miss = repro::evaluate({c}, {point(3.0001)});
    EXPECT_EQ(miss.outcomes.at(0).verdict, repro::Verdict::fail);
}

TEST(Evaluate, DirectionVerdictsWithSlack)
{
    repro::Claim c = bandClaim(1.0, 0.0, 0.02);
    c.kind = repro::ClaimKind::direction;
    c.direction = repro::Direction::at_least;
    auto verdictFor = [&](double value) {
        repro::Scoreboard board = repro::evaluate({c}, {point(value)});
        return board.outcomes.at(0).verdict;
    };
    EXPECT_EQ(verdictFor(1.5), repro::Verdict::pass);
    EXPECT_EQ(verdictFor(1.0), repro::Verdict::pass) << "boundary holds";
    EXPECT_EQ(verdictFor(0.99), repro::Verdict::warn) << "within slack";
    EXPECT_EQ(verdictFor(0.9), repro::Verdict::fail);

    c.direction = repro::Direction::at_most;
    EXPECT_EQ(verdictFor(0.5), repro::Verdict::pass);
    EXPECT_EQ(verdictFor(1.01), repro::Verdict::warn);
    EXPECT_EQ(verdictFor(1.5), repro::Verdict::fail);
}

TEST(Evaluate, UnmatchedClaimIsMissingAndGatedSeparately)
{
    repro::Claim c = bandClaim(1.0, 0.05, 0.10);
    repro::Scoreboard board = repro::evaluate({c}, {});
    EXPECT_EQ(board.outcomes.at(0).verdict, repro::Verdict::missing);
    EXPECT_TRUE(board.ok()) << "missing tolerated by default";
    EXPECT_FALSE(board.ok(/*require_all=*/true));
}

TEST(Evaluate, AmbiguousSelectorFails)
{
    repro::Claim c = bandClaim(1.0, 0.05, 0.10);
    repro::Scoreboard board =
        repro::evaluate({c}, {point(1.0), point(1.0)});
    EXPECT_EQ(board.outcomes.at(0).verdict, repro::Verdict::fail);
    EXPECT_EQ(board.outcomes.at(0).matches, 2u);
    EXPECT_FALSE(board.ok());
}

TEST(Evaluate, SelectorFieldsMustMatchExactly)
{
    repro::Claim c = bandClaim(1.0, 0.05, 0.10);
    // Same series/metric but a kernel-tagged datapoint: an aggregate
    // selector (empty kernel) must not match it.
    exp::ResultPoint tagged = point(1.0);
    tagged.kernel = "dict";
    repro::Scoreboard board = repro::evaluate({c}, {tagged});
    EXPECT_EQ(board.outcomes.at(0).verdict, repro::Verdict::missing);
}

TEST(Evaluate, PerturbedDatapointFlipsTheGate)
{
    // The end-to-end property CI relies on: feed every claim its
    // expected value -> green; push one datapoint outside its fail
    // tolerance -> red.
    const std::vector<repro::Claim> &claims = repro::paperClaims();
    std::vector<exp::ResultPoint> points;
    std::set<std::string> seen;
    for (const repro::Claim &c : claims) {
        exp::ResultPoint p;
        p.bench = c.where.bench;
        p.series = c.where.series;
        p.kernel = c.where.kernel;
        p.shape = c.where.shape;
        p.variant = c.where.variant;
        p.metric = c.where.metric;
        p.value = c.expected;
        // Direction thresholds are boundaries, not targets; sit
        // clearly on the passing side.
        if (c.kind == repro::ClaimKind::direction)
            p.value = c.direction == repro::Direction::at_least
                          ? c.expected * 1.5
                          : c.expected * 0.5;
        // Several claims may constrain the same datapoint (e.g. a
        // band and a direction check on one aggregate); artifacts
        // hold it once, so synthesize it once.
        std::string key = p.bench + '\0' + p.series + '\0' + p.kernel +
                          '\0' + p.shape + '\0' + p.variant + '\0' +
                          p.metric;
        if (seen.insert(std::move(key)).second)
            points.push_back(std::move(p));
    }
    repro::Scoreboard green = repro::evaluate(claims, points);
    EXPECT_TRUE(green.ok(/*require_all=*/true));
    EXPECT_EQ(green.count(repro::Verdict::fail), 0u);
    EXPECT_EQ(green.count(repro::Verdict::missing), 0u);

    std::vector<exp::ResultPoint> perturbed = points;
    perturbed.at(0).value *= 10.0;
    repro::Scoreboard red = repro::evaluate(claims, perturbed);
    EXPECT_FALSE(red.ok());
    EXPECT_EQ(red.count(repro::Verdict::fail), 1u);
}

TEST(Render, ScoreboardAndMarkdownMentionEveryVerdict)
{
    repro::Claim c = bandClaim(2.0, 0.05, 0.20);
    repro::Scoreboard board = repro::evaluate({c}, {point(2.5)});
    std::string text = repro::renderScoreboard(board, /*verbose=*/true);
    EXPECT_NE(text.find("FAIL"), std::string::npos);
    EXPECT_NE(text.find("test/band"), std::string::npos);
    EXPECT_NE(text.find("1 fail"), std::string::npos);

    std::string md = repro::renderMarkdown(board);
    EXPECT_NE(md.find("| Claim |"), std::string::npos);
    EXPECT_NE(md.find("`test/band`"), std::string::npos);
    EXPECT_NE(md.find("| fail |"), std::string::npos);
}

} // namespace
} // namespace aaws
