/// Sweep macro-bench: wall time of the full Figure 14 sweep
/// (`figure --figure 14`: IS on the Full network, execution-time
/// metric, the classic machine trio at every P, read from its
/// core::kFigures row) — the end-to-end number the trace-replay speedup
/// (bench_replay) and the event-kernel claims are measured against.
///
/// Emits BENCH_sweep.json via the shared bench_common harness.  The
/// figure values themselves are published as a counter (their sum), so
/// a kernel "optimization" that changes simulated results trips the
/// comparison gate even before the golden tests run.
///
/// It also times the paper's Section 7 speed table: for every app of
/// the `sim_speed` row of core::kAblations, speed_ratio/<app>/<logp|
/// logp+c> is the target cell's wall time over that machine's (higher
/// is better), with the coherence and conservation checkers off, as
/// the paper times the simulator and not its validators.  The two
/// runs' engine events are the value_sum_events counter, pinned like
/// the figure values.
///
/// Knobs: ABSIM_BENCH_SWEEP_SIZE (IS keys, default 16384),
///        ABSIM_BENCH_SWEEP_PROCS (max P, default 32); the speed cells
///        run at the sizes their row sets.
#include <cstdint>
#include <string>

#include "bench_common.hh"
#include "check/check.hh"
#include "core/ablations.hh"
#include "core/experiment.hh"
#include "core/figures.hh"

int
main(int argc, char **argv)
{
    using absim::bench::MicroSuite;
    using absim::bench::wallNow;

    MicroSuite suite("sweep", argc, argv);

    const absim::core::FigureSpec &fig14 = absim::core::kFigures[13];
    absim::core::RunConfig base;
    base.app = fig14.app;
    base.params.n = static_cast<std::uint32_t>(
        absim::core::envUint("ABSIM_BENCH_SWEEP_SIZE", 16384, 256));
    base.checkResult = false; // Time the sweep, not the validator.

    const std::vector<std::uint32_t> procs = absim::core::procCountsUpTo(
        static_cast<std::uint32_t>(absim::core::envUint(
            "ABSIM_BENCH_SWEEP_PROCS", 32, 1, 1u << 10)));

    suite.run("fig14_sweep_s", "s", false, [&] {
        const double begin = wallNow();
        const absim::core::SweepResult result =
            absim::core::sweepFigureSafe("bench: Figure 14 sweep", base,
                                         fig14.topology, fig14.metric,
                                         procs);
        const double elapsed = wallNow() - begin;
        ABSIM_CHECK(result.complete(), "fig14 sweep failed at P="
                                           << result.failures[0].procs
                                           << ": "
                                           << result.failures[0].message);
        const absim::core::Figure &figure = result.figure;
        // Checksum of the simulated results: byte-identity's first line
        // of defense inside the bench gate itself.
        double value_sum = 0.0;
        std::uint64_t cells = 0;
        for (const auto &point : figure.points)
            for (double v : point.values) {
                value_sum += v;
                ++cells;
            }
        suite.setCounter("value_sum_us", value_sum);
        suite.setCounter("cells", static_cast<double>(cells));
        suite.setCounter("is_keys", static_cast<double>(base.params.n));
        return elapsed;
    });

    const absim::core::AblationSpec &speed =
        *absim::core::findAblation("sim_speed");
    absim::check::Options &checks = absim::check::options();
    const absim::check::Options saved = checks;
    checks.coherence = false;
    checks.conservation = false;
    for (std::size_t r = 0; r < speed.rows.size(); ++r) {
        // Column 0 is the target every other column is timed against.
        const absim::core::RunConfig target =
            absim::core::ablationConfig(speed, r, 0);
        for (std::size_t c = 1; c < speed.columns.size(); ++c) {
            const absim::core::RunConfig config =
                absim::core::ablationConfig(speed, r, c);
            suite.run("speed_ratio/" + std::string(speed.rows[r].label) +
                          "/" + std::string(speed.columns[c].label),
                      "x", true, [&] {
                          const auto base = absim::core::runOne(target);
                          const auto run = absim::core::runOne(config);
                          suite.setCounter(
                              "value_sum_events",
                              static_cast<double>(base.engineEvents +
                                                  run.engineEvents));
                          return base.wallSeconds / run.wallSeconds;
                      });
        }
    }
    checks = saved;

    return suite.finish();
}
