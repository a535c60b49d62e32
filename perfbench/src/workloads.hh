/**
 * @file
 * The benchmark's workloads, the two figures they are built from, and
 * the options every workload takes.
 *
 * Each workload is one run of absim_bench: it sets up, measures for
 * --seconds, checks that the simulated outputs are exact, and returns
 * a Result.  With --trace 1 it instead runs the traced pass and
 * returns the per-layer metrics.  See perfbench/README.md for why each
 * workload exists and what each metric means.
 */

#ifndef ABSIM_PERFBENCH_WORKLOADS_HH
#define ABSIM_PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "measure.hh"
#include "process.hh"

namespace absim::perfbench {

struct Options
{
    std::string workload;
    std::uint64_t seed = 12345; ///< The figures' seed.
    double seconds = 22.0;
    bool trace = false;

    std::string outDir;      ///< Absolute; absim_bench works inside it.
    std::string self;        ///< Absolute path of this binary.
    std::string serveBin;    ///< Absolute path of absim_serve.
    std::string kernelBench; ///< Absolute path of bench_kernel.

    /** Test-only: the value sum the sweep must produce, in place of
     *  the golden (which holds only at the default seed and size). */
    std::optional<double> expectValueSum;

    /** Set-up probe mode: run one cold sweep and print it. */
    bool probe = false;
    std::string probeStore; ///< Trace store a replay probe records into.
};

/** One of the figures every workload is built from. */
struct FigureSpec
{
    const char *title;
    const char *app;
    std::uint64_t size;
    net::TopologyKind topology;
    bool allStacks; ///< The five registry stacks, else the classic trio.
    /** Σ of the figure's values at seed 12345 and full scale, in µs,
     *  as %.17g. */
    double goldenValueSum;
};

/** Figure 14: IS, n=16384, full network, the classic trio. */
extern const FigureSpec kIsFull;
/** FFT, n=4096, 2D mesh, all five stacks. */
extern const FigureSpec kFftMesh;

/**
 * A figure's cells at one input seed: every (P, machine), point-major.
 * The environment knobs ABSIM_BENCH_SWEEP_SIZE (problem size of every
 * figure) and ABSIM_BENCH_SWEEP_PROCS (largest P), shared with
 * bench/micro's sweeps, shrink the grid for tests.
 */
struct Grid
{
    Grid(const FigureSpec &figure, std::uint64_t seed);

    const FigureSpec &figure;
    core::RunConfig base; ///< App, size, seed and network.
    std::vector<std::uint32_t> procs;
    std::vector<mach::MachineKind> machines;

    std::size_t cells() const { return procs.size() * machines.size(); }

    /** The config of cell @p index. */
    core::RunConfig cell(std::size_t index) const;

    /** The grid is the full figure, so its golden applies at the
     *  default seed. */
    bool fullScale() const;
};

/** Input seed @p k of a run at --seed @p seed: the seed itself for
 *  k = 0, then the k-th draw of a generator seeded with it. */
std::uint64_t inputSeed(std::uint64_t seed, std::size_t k);

/** Σ of @p values in their order. */
double valueSum(const std::vector<double> &values);

bool isSweepWorkload(const std::string &name);

/** The figure sweeps: is_full_exec, fft_mesh_exec, fft_mesh_replay.
 *  The timed run moves to the next of @p cpus before every pass and
 *  every set-up sweep. */
Result runSweepWorkload(const Options &options, CpuRotation &cpus);

/** A set-up probe (child process): one cold sweep of the workload's
 *  figure at --seed; prints "probe <seconds> <value>..." on stdout.
 *  @return the exit code. */
int runSweepProbe(const Options &options);

/** The serve daemon: serve_hit.  The timed requests move, with the
 *  daemon, to the next of @p cpus every half second. */
Result runServeWorkload(const Options &options, CpuRotation &cpus);

/**
 * The event-kernel microbenches shared with bench/micro: runs
 * bench_kernel and adds sim.event_ns and sim.fiber_switch_ns.
 */
void addKernelMetrics(const Options &options, Result &result);

} // namespace absim::perfbench

#endif // ABSIM_PERFBENCH_WORKLOADS_HH
