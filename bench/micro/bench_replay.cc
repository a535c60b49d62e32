/// Trace-replay macro-bench: wall time of the full Figure 14 sweep
/// (`figure --figure 14`: IS on Full, execution time, classic machine
/// trio at every P, read from its core::kFigures row)
/// executed vs replayed from recorded traces — the number behind the
/// ROADMAP's "replay makes model-space sweeps cheap" claim.
///
/// Emits BENCH_replay.json via the shared bench_common harness:
///   exec_sweep_s      execution-driven sweep wall time
///   replay_sweep_s    same sweep replayed from the trace store
///   replay_speedup_x  exec / replay (higher is better; the gate pins
///                     the committed baseline's ratio within its band)
/// The simulated figure values are published as counters on both
/// benches (their sum) and must agree exactly: replay byte-identity is
/// enforced inside the bench before the speedup means anything.  The
/// machine-readable execution-vs-replay comparison additionally lands
/// next to the JSON as replay_divergence.json (see docs/TRACING.md).
///
/// Knobs: ABSIM_BENCH_SWEEP_SIZE (IS keys, default 16384),
///        ABSIM_BENCH_SWEEP_PROCS (max P, default 32).
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "bench_common.hh"
#include "check/check.hh"
#include "core/experiment.hh"
#include "core/figures.hh"
#include "trace_replay/divergence.hh"

int
main(int argc, char **argv)
{
    using absim::bench::MicroSuite;
    using absim::bench::wallNow;

    MicroSuite suite("replay", argc, argv);

    const absim::core::FigureSpec &fig14 = absim::core::kFigures[13];
    absim::core::RunConfig base;
    base.app = fig14.app;
    base.params.n = static_cast<std::uint32_t>(
        absim::core::envUint("ABSIM_BENCH_SWEEP_SIZE", 16384, 256));
    base.checkResult = false; // Time the sweep, not the validator.

    const std::vector<std::uint32_t> procs = absim::core::procCountsUpTo(
        static_cast<std::uint32_t>(absim::core::envUint(
            "ABSIM_BENCH_SWEEP_PROCS", 32, 1, 1u << 10)));

    const std::filesystem::path trace_dir =
        std::filesystem::temp_directory_path() /
        ("absim-bench-replay-" + std::to_string(base.params.n));
    std::filesystem::remove_all(trace_dir);

    auto sweepOnce = [&](absim::core::RunMode mode) {
        absim::core::RunConfig config = base;
        config.mode = mode;
        config.traceDir = trace_dir.string();
        absim::core::SweepResult result = absim::core::sweepFigureSafe(
            "bench: Figure 14 sweep", config, fig14.topology,
            fig14.metric, procs);
        ABSIM_CHECK(result.complete(), "fig14 sweep failed at P="
                                           << result.failures[0].procs
                                           << ": "
                                           << result.failures[0].message);
        return std::move(result.figure);
    };

    auto valueSum = [](const absim::core::Figure &figure) {
        double sum = 0.0;
        for (const auto &point : figure.points)
            for (double v : point.values)
                sum += v;
        return sum;
    };

    // Prime the trace store once (record-on-miss), outside any timed
    // region, and keep the figures for the divergence report.
    const absim::core::Figure executed = sweepOnce(
        absim::core::RunMode::Record);
    const absim::core::Figure replayed = sweepOnce(
        absim::core::RunMode::Replay);
    const absim::trace::DivergenceReport report =
        absim::core::compareFigures(executed, replayed);
    ABSIM_CHECK(report.identical,
                "replayed fig14 sweep diverged from execution (max abs "
                    << report.maxAbs << ")");

    double exec_s = 0.0;
    suite.setCounter("value_sum_us", valueSum(executed));
    suite.setCounter("cells",
                     static_cast<double>(executed.points.size() * 3));
    suite.setCounter("is_keys", static_cast<double>(base.params.n));
    suite.run("exec_sweep_s", "s", false, [&] {
        const double begin = wallNow();
        const absim::core::Figure figure =
            sweepOnce(absim::core::RunMode::Execute);
        exec_s = wallNow() - begin;
        ABSIM_CHECK(valueSum(figure) == valueSum(executed),
                    "execution sweep results drifted between runs");
        return exec_s;
    });

    double replay_s = 0.0;
    suite.setCounter("value_sum_us", valueSum(replayed));
    suite.run("replay_sweep_s", "s", false, [&] {
        const double begin = wallNow();
        const absim::core::Figure figure =
            sweepOnce(absim::core::RunMode::Replay);
        replay_s = wallNow() - begin;
        ABSIM_CHECK(valueSum(figure) == valueSum(executed),
                    "replayed sweep results diverged from execution");
        return replay_s;
    });

    // Medians of the last repeats are what the gate compares, but the
    // speedup bench re-times one fresh pair so its reps are themselves
    // honest measurements rather than a ratio of two medians.
    suite.run("replay_speedup_x", "x", true, [&] {
        double begin = wallNow();
        (void)sweepOnce(absim::core::RunMode::Execute);
        const double e = wallNow() - begin;
        begin = wallNow();
        (void)sweepOnce(absim::core::RunMode::Replay);
        const double r = wallNow() - begin;
        return e / r;
    });

    // The machine-readable comparison artifact, next to the JSON.
    std::string report_dir = ".";
    if (const char *dir = absim::core::envString("ABSIM_BENCH_JSON_DIR"))
        report_dir = dir;
    const std::string report_path = report_dir + "/replay_divergence.json";
    std::ofstream out(report_path, std::ios::trunc);
    if (out)
        out << absim::trace::toJson(report);
    else
        std::fprintf(stderr, "bench: cannot write %s\n",
                     report_path.c_str());

    std::filesystem::remove_all(trace_dir);
    return suite.finish();
}
