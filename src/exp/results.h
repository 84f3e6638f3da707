/**
 * @file
 * Structured bench results: the `aaws-results/v1` artifact.
 *
 * Every table/figure bench can emit, next to its human-readable stdout,
 * a machine-checkable artifact: one JSON object per line, one line per
 * datapoint.  Each line is self-contained:
 *
 *   {"schema":"aaws-results/v1","bench":"table3_kernel_stats",
 *    "series":"vs_serial_io","kernel":"dict","shape":"4B4L",
 *    "variant":"base","metric":"speedup","value":9.34}
 *
 * `kernel`, `shape`, and `variant` are omitted when they do not apply
 * (aggregates, model-only datapoints).  Values are encoded with
 * round-tripping precision, so the artifact inherits the simulator's
 * determinism contract: identical runs produce byte-identical files.
 *
 * `tools/repro_check` consumes one or more of these artifacts and
 * evaluates the paper-expectation registry in src/repro/ against them,
 * turning "does this tree still reproduce the paper?" into a
 * machine-checked, CI-gated property.
 */

#ifndef AAWS_EXP_RESULTS_H
#define AAWS_EXP_RESULTS_H

#include <string>
#include <vector>

namespace aaws {
namespace exp {

/** Schema tag stamped on (and required of) every artifact line. */
inline constexpr const char *kResultsSchema = "aaws-results/v1";

/** One datapoint of one bench run. */
struct ResultPoint
{
    std::string bench;   ///< Emitting binary (argv[0] basename).
    std::string series;  ///< Datapoint group within the bench.
    std::string kernel;  ///< Application kernel ("" when n/a).
    std::string shape;   ///< Machine shape, e.g. "4B4L" ("" when n/a).
    std::string variant; ///< Runtime variant, e.g. "base+psm" ("").
    std::string metric;  ///< Quantity name ("speedup", "v_big", ...).
    double value = 0.0;

    /** All identity fields (everything but `value`) equal? */
    bool sameKey(const ResultPoint &other) const;
};

/** One artifact line (no trailing newline). */
std::string resultPointToJson(const ResultPoint &point);

/**
 * Parse one artifact line; false on malformed JSON, a missing/foreign
 * schema tag, or missing required members (never fatal()s).
 */
bool resultPointFromJson(const std::string &line, ResultPoint &out);

/**
 * Load a whole artifact, appending to `out`.  Blank lines are ignored;
 * any unparsable line fails the load (false), leaving `out` with the
 * points parsed so far.
 */
bool loadResults(const std::string &path, std::vector<ResultPoint> &out);

/**
 * Collects datapoints and writes them as one artifact file.
 *
 * Disabled (default-constructed) writers swallow add() calls, so bench
 * code records datapoints unconditionally and only `--results-json=F`
 * turns the recording into a file, written on close() or destruction.
 */
class ResultsWriter
{
  public:
    ResultsWriter() = default;
    ~ResultsWriter();
    ResultsWriter(const ResultsWriter &) = delete;
    ResultsWriter &operator=(const ResultsWriter &) = delete;

    /** Enable writing to `path`, stamping `bench` on every point. */
    void open(std::string path, std::string bench);

    bool enabled() const { return !path_.empty(); }

    /** Record one datapoint (the writer fills in the bench field). */
    void add(ResultPoint point);

    /** Aggregate shorthand: no kernel/shape/variant. */
    void add(const std::string &series, const std::string &metric,
             double value);

    /**
     * Write the artifact.  True when disabled (nothing to do) or the
     * file was written; false (with a warn()) on IO failure.  Idempotent;
     * also invoked by the destructor.
     */
    bool close();

    const std::vector<ResultPoint> &points() const { return points_; }

  private:
    std::string path_;
    std::string bench_;
    std::vector<ResultPoint> points_;
    bool closed_ = false;
};

} // namespace exp
} // namespace aaws

#endif // AAWS_EXP_RESULTS_H
