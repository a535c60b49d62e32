/**
 * @file
 * Golden equivalence suite for the machine-layer refactor.
 *
 * The figure JSON for the three paper machines is the repository's
 * ground truth: any change to the machine layer must keep these bytes
 * exactly as the monolithic pre-refactor machines produced them
 * (cycle-identical models => identical metric values => identical
 * "%.17g" renderings).  The goldens under tests/golden/ were generated
 * from the pre-refactor tree; regenerate deliberately with
 *
 *   ABSIM_REGEN_GOLDENS=1 ./absim_tests --gtest_filter='GoldenFigures.*'
 *
 * and audit the diff — a changed golden means changed simulated cycles.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "core/env.hh"
#include "core/figures.hh"

namespace {

using namespace absim;

#ifndef ABSIM_GOLDEN_DIR
#error "ABSIM_GOLDEN_DIR must point at tests/golden"
#endif

std::string
goldenPath(const std::string &name)
{
    return std::string(ABSIM_GOLDEN_DIR) + "/" + name + ".json";
}

/** Run one small three-machine sweep and render its figure JSON.  It
 *  runs on a 4-worker pool: the JSON is byte-identical for any job
 *  count, so the goldens also pin the pool's output (and the sanitizer
 *  job sees the pool run real figures). */
std::string
sweepJson(const std::string &app, std::uint64_t size,
          net::TopologyKind topology, core::Metric metric)
{
    core::RunConfig base;
    base.app = app;
    base.params.n = size;
    core::SweepOptions options;
    options.jobs = 4;
    const core::SweepResult result = core::sweepFigureSafe(
        "Golden: " + app + " on " + net::toString(topology) + ": " +
            core::toString(metric),
        base, topology, metric, {1, 2, 4}, options);
    std::ostringstream os;
    core::writeFigureJson(os, result);
    return os.str();
}

void
expectGolden(const std::string &name, const std::string &json)
{
    const std::string path = goldenPath(name);
    if (core::envString("ABSIM_REGEN_GOLDENS") != nullptr) {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        ASSERT_TRUE(out) << "cannot write " << path;
        out << json;
        return;
    }
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in) << "missing golden " << path
                    << " (regenerate with ABSIM_REGEN_GOLDENS=1)";
    std::ostringstream want;
    want << in.rdbuf();
    EXPECT_EQ(json, want.str())
        << "figure JSON drifted from the pre-refactor golden " << path;
}

TEST(GoldenFigures, IsFullExec)
{
    expectGolden("is_full_exec",
                 sweepJson("is", 256, net::TopologyKind::Full,
                           core::Metric::ExecTime));
}

TEST(GoldenFigures, EpMeshContention)
{
    expectGolden("ep_mesh_contention",
                 sweepJson("ep", 1024, net::TopologyKind::Mesh2D,
                           core::Metric::Contention));
}

TEST(GoldenFigures, FftFullLatency)
{
    expectGolden("fft_full_latency",
                 sweepJson("fft", 128, net::TopologyKind::Full,
                           core::Metric::Latency));
}

TEST(GoldenFigures, CgCubeExec)
{
    expectGolden("cg_cube_exec",
                 sweepJson("cg", 64, net::TopologyKind::Hypercube,
                           core::Metric::ExecTime));
}

} // namespace
