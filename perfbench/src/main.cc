/**
 * @file
 * absim_bench: the end-to-end benchmark program.
 *
 *   absim_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *               [--out-dir DIR] [--serve-bin PATH] [--kernel-bench PATH]
 *
 * Runs one workload (see workloads.hh and perfbench/README.md): sets
 * up, measures for S seconds, checks the simulated outputs, and prints
 * every metric with its unit and sample count, then one JSON line
 *
 *   {"correct":true,"attempted":N,"failed":0,"metrics":{...}}
 *
 * With --trace 0 the metrics are the end-to-end ones; with --trace 1
 * absim_bench runs the traced pass instead, reports the per-layer
 * metrics, and writes TRACE_<workload>.json into the output directory.
 *
 * Test-only: --expect-value-sum X replaces the golden figure checksum,
 * and the environment knobs ABSIM_BENCH_SWEEP_SIZE and
 * ABSIM_BENCH_SWEEP_PROCS shrink the figures (see workloads.hh).
 *
 * Exit status: 0 when every output check passed and nothing failed,
 * 1 otherwise, 2 on a bad command line.
 */

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <thread>

#include <unistd.h>

#include "core/env.hh"
#include "process.hh"
#include "workloads.hh"

namespace {

using absim::perfbench::Metric;
using absim::perfbench::Options;
using absim::perfbench::Result;
namespace fs = std::filesystem;

constexpr const char *kWorkloads[] = {"is_full_exec", "fft_mesh_exec",
                                      "fft_mesh_replay", "serve_hit"};

struct MetricName
{
    const char *name;
    const char *unit;
};

/** Printed with --trace 0, in this order. */
constexpr MetricName kEndToEnd[] = {
    {"op_p50_ms", "ms"},
    {"op_p90_ms", "ms"},
    {"ops_per_s", "1/s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

/** Printed with --trace 1, in this order; a layer a workload does not
 *  reach reads 0. */
constexpr MetricName kPerLayer[] = {
    {"sim.events", "count"},
    {"sim.mev_per_s", "Mev/s"},
    {"sim.event_ns", "ns"},
    {"sim.fiber_switch_ns", "ns"},
    {"runtime.run_s", "s"},
    {"runtime.accesses", "count"},
    {"apps.setup_s", "s"},
    {"apps.check_s", "s"},
    {"machines.build_s", "s"},
    {"machines.local_access_ns", "ns"},
    {"machines.messages", "count"},
    {"machines.networked_frac", "frac"},
    {"check.share", "frac"},
    {"trace_replay.load_s", "s"},
    {"trace_replay.decode_mb_per_s", "MB/s"},
    {"trace_replay.replay_s", "s"},
    {"trace_replay.resident_mb", "MB"},
    {"core.cache_key_us", "us"},
    {"serve.parse_us", "us"},
    {"serve.handle_hit_us", "us"},
    {"serve.transport_us", "us"},
    {"serve.handle_miss_ms", "ms"},
    {"serve.cache_insert_us", "us"},
    {"serve.cache_open_ms", "ms"},
    {"serve.cache_hits", "count"},
    {"serve.cache_misses", "count"},
    {"serve.shed", "count"},
    {"trace_overhead_frac", "frac"},
};

int
usage()
{
    std::cerr << "usage: absim_bench --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1]\n"
                 "       [--out-dir DIR] [--serve-bin PATH] "
                 "[--kernel-bench PATH]\n"
                 "       [--expect-value-sum X]\n"
                 "workloads:";
    for (const char *w : kWorkloads)
        std::cerr << " " << w;
    std::cerr << "\n";
    return 2;
}

bool
badValue(const std::string &flag, const char *value)
{
    std::cerr << "error: invalid " << flag << " value '"
              << (value == nullptr ? "" : value) << "'\n";
    return false;
}

bool
parseArgs(int argc, char **argv, Options &o)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const char *value = nullptr;
        const auto need = [&]() {
            value = i + 1 < argc ? argv[++i] : nullptr;
            return value != nullptr;
        };
        std::uint64_t u = 0;
        double d = 0.0;
        if (arg == "--probe") {
            o.probe = true;
        } else if (arg == "--workload") {
            if (!need())
                return badValue(arg, value);
            o.workload = value;
        } else if (arg == "--seed") {
            if (!need() || !absim::core::parseUint(value, u))
                return badValue(arg, value);
            o.seed = u;
        } else if (arg == "--seconds") {
            if (!need() || !absim::core::parseDouble(value, d) || d <= 0.0 ||
                d > 3600.0)
                return badValue(arg, value);
            o.seconds = d;
        } else if (arg == "--trace") {
            if (!need() || (std::string(value) != "0" &&
                            std::string(value) != "1"))
                return badValue(arg, value);
            o.trace = std::string(value) == "1";
        } else if (arg == "--expect-value-sum") {
            if (!need() || !absim::core::parseDouble(value, d))
                return badValue(arg, value);
            o.expectValueSum = d;
        } else if (arg == "--out-dir" || arg == "--serve-bin" ||
                   arg == "--kernel-bench" || arg == "--probe-store") {
            if (!need() || *value == '\0')
                return badValue(arg, value);
            std::string &target = arg == "--out-dir"     ? o.outDir
                                  : arg == "--serve-bin" ? o.serveBin
                                  : arg == "--kernel-bench"
                                      ? o.kernelBench
                                      : o.probeStore;
            target = value;
        } else {
            std::cerr << "error: unknown option '" << arg << "'\n";
            return false;
        }
    }
    bool known = false;
    for (const char *w : kWorkloads)
        known = known || o.workload == w;
    if (!known) {
        std::cerr << "error: unknown workload '" << o.workload
                  << "' (valid:";
        for (const char *w : kWorkloads)
            std::cerr << " " << w;
        std::cerr << ")\n";
        return false;
    }
    return true;
}

/** Paths made absolute before absim_bench moves into its output
 *  directory; tool paths default to the benchmark build's layout. */
void
resolvePaths(Options &o)
{
    o.self = fs::read_symlink("/proc/self/exe").string();
    const fs::path buildDir = fs::path(o.self).parent_path();
    if (o.serveBin.empty())
        o.serveBin = (buildDir / "absim/examples/absim_serve").string();
    if (o.kernelBench.empty())
        o.kernelBench = (buildDir / "absim/bench/micro/bench_kernel").string();
    if (o.outDir.empty())
        o.outDir = "absim_bench_out/" + o.workload;
    o.outDir = fs::absolute(o.outDir).lexically_normal().string();
    o.serveBin = fs::absolute(o.serveBin).string();
    o.kernelBench = fs::absolute(o.kernelBench).string();
    if (!o.probeStore.empty())
        o.probeStore = fs::absolute(o.probeStore).string();
}

/** The metrics of @p table in its order; a missing one reads 0 (and is
 *  a failure when it is end-to-end). */
std::vector<Metric>
ordered(Result &result, const MetricName *table, std::size_t count,
        bool required)
{
    std::vector<Metric> out;
    for (std::size_t i = 0; i < count; ++i) {
        const auto found = std::find_if(
            result.metrics.begin(), result.metrics.end(),
            [&](const Metric &m) { return m.name == table[i].name; });
        const bool missing = found == result.metrics.end();
        Metric m = missing ? Metric{table[i].name, table[i].unit, 0.0, 0, 0, {}}
                           : *found;
        if ((missing && required) || !std::isfinite(m.value)) {
            if (result.correct)
                result.fail("metric " + m.name + " was not measured");
            m.value = 0.0;
        }
        out.push_back(m);
    }
    return out;
}

void
printReport(const Options &o, const Result &result,
            const std::vector<Metric> &metrics, std::size_t cpus)
{
    using absim::perfbench::formatExact;
    std::cout << "absim_bench " << o.workload << " seed=" << o.seed
              << " seconds=" << o.seconds << " trace=" << (o.trace ? 1 : 0)
              << "\nhost: nproc=" << std::thread::hardware_concurrency()
              << " cpus_rotated=" << cpus
              << " build=" << ABSIM_BENCH_BUILD_TYPE
              << " compiler=" << __VERSION__ << "\n";
    for (const Metric &m : metrics) {
        std::cout << "  " << m.name << " = " << formatExact(m.value) << " "
                  << m.unit;
        if (m.ops > 0)
            std::cout << "  (floors of ops=" << m.ops
                      << " from samples=" << m.samples << "; per pass n=";
        else if (m.samples > 0)
            std::cout << "  (samples=" << m.samples << "; spread n=";
        if (m.samples > 0)
            std::cout << m.spread.n << " min=" << formatExact(m.spread.min)
                      << " q1=" << formatExact(m.spread.q1)
                      << " median=" << formatExact(m.spread.median)
                      << " q3=" << formatExact(m.spread.q3)
                      << " max=" << formatExact(m.spread.max) << ")";
        std::cout << "\n";
    }
    std::cout << "  attempted=" << result.attempted
              << " failed=" << result.failed
              << " correct=" << (result.correct ? "true" : "false") << "\n";
    std::cout << "{\"correct\":" << (result.correct ? "true" : "false")
              << ",\"attempted\":" << result.attempted
              << ",\"failed\":" << result.failed << ",\"metrics\":{";
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::cout << (i == 0 ? "" : ",") << "\"" << metrics[i].name
                  << "\":{\"value\":" << formatExact(metrics[i].value)
                  << ",\"unit\":\"" << metrics[i].unit << "\"}";
    std::cout << "}}" << std::endl;
}

} // namespace

namespace absim::perfbench {

void
addKernelMetrics(const Options &options, Result &result)
{
    const std::string json = options.outDir + "/BENCH_kernel.json";
    fs::remove(json);
    Child child;
    if (!child.start({options.kernelBench, "--repeats", "3", "--warmup", "1",
                      "--json-dir", options.outDir},
                     false, options.outDir + "/bench_kernel.log") ||
        child.wait(120.0) != 0) {
        result.fail("bench_kernel failed (see bench_kernel.log)");
        return;
    }
    // absim-bench-1 writes one bench object per line.
    const auto median = [&](const std::string &bench) {
        std::ifstream in(json);
        std::string line;
        while (std::getline(in, line)) {
            if (line.find("\"name\":\"" + bench + "\"") == std::string::npos)
                continue;
            const auto at = line.find("\"median\":");
            double v = 0.0;
            if (at != std::string::npos &&
                core::parseDouble(
                    line.substr(at + 9, line.find(',', at) - at - 9).c_str(),
                    v))
                return v;
        }
        result.fail("bench_kernel reported no " + bench);
        return 0.0;
    };
    result.add("sim.event_ns", "ns", median("schedule_dispatch_ns"));
    result.add("sim.fiber_switch_ns", "ns", median("fiber_switch_ns"));
}

} // namespace absim::perfbench

int
main(int argc, char **argv)
{
    using namespace absim::perfbench;
    Options options;
    if (argc < 2 || !parseArgs(argc, argv, options))
        return usage();
    resolvePaths(options);
    std::error_code ec;
    fs::create_directories(options.outDir, ec);
    if (ec || ::chdir(options.outDir.c_str()) != 0) {
        std::cerr << "error: cannot use output directory " << options.outDir
                  << "\n";
        return 2;
    }
    if (options.probe)
        return isSweepWorkload(options.workload) ? runSweepProbe(options) : 2;

    // One core at a time for absim_bench and every process it starts:
    // the numbers model a one-core host, and the client-daemon hand-off
    // of a serve request stays on that core instead of waking another.
    CpuRotation cpus;
    Result result;
    try {
        result = isSweepWorkload(options.workload)
                     ? runSweepWorkload(options, cpus)
                     : runServeWorkload(options, cpus);
        if (options.trace)
            addKernelMetrics(options, result);
    } catch (const std::exception &e) {
        result.fail(std::string("workload aborted: ") + e.what());
        ++result.failed;
    }
    result.attempted = std::max({result.attempted, result.failed,
                                 std::uint64_t{1}});
    const std::vector<Metric> metrics =
        options.trace
            ? ordered(result, kPerLayer, std::size(kPerLayer), false)
            : ordered(result, kEndToEnd, std::size(kEndToEnd), true);
    printReport(options, result, metrics, cpus.size());
    return result.correct && result.failed == 0 ? 0 : 1;
}
