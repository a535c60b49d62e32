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
 *
 * GoldenFiguresTable walks every row of core::kFigures at reduced size
 * (P up to 4) and compares the figure JSON `figure --figure N` writes
 * against tests/golden/figures/<stem>.json, captured from the 20
 * per-figure programs the table replaced.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

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

/** Run one small three-machine sweep titled @p title and render its
 *  figure JSON.  It runs on a 4-worker pool: the JSON is byte-identical
 *  for any job count, so the goldens also pin the pool's output (and
 *  the sanitizer job sees the pool run real figures). */
std::string
sweepJson(const std::string &title, const std::string &app,
          std::uint64_t size, net::TopologyKind topology,
          core::Metric metric)
{
    core::RunConfig base;
    base.app = app;
    base.params.n = size;
    core::SweepOptions options;
    options.jobs = 4;
    const core::SweepResult result = core::sweepFigureSafe(
        title, base, topology, metric, {1, 2, 4}, options);
    std::ostringstream os;
    core::writeFigureJson(os, result);
    return os.str();
}

std::string
sweepJson(const std::string &app, std::uint64_t size,
          net::TopologyKind topology, core::Metric metric)
{
    return sweepJson("Golden: " + app + " on " + net::toString(topology) +
                         ": " + core::toString(metric),
                     app, size, topology, metric);
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

/** Each figure's app at the reduced size its golden was captured at. */
const std::map<std::string, std::uint64_t, std::less<>> kReducedSize = {
    {"fft", 128}, {"cg", 64}, {"ep", 1024}, {"is", 256}, {"cholesky", 64}};

TEST(GoldenFiguresTable, EveryFigureMatchesItsGolden)
{
    for (const core::FigureSpec &figure : core::kFigures) {
        SCOPED_TRACE(core::figureTitle(figure));
        const auto size = kReducedSize.find(figure.app);
        ASSERT_NE(size, kReducedSize.end()) << figure.app;
        expectGolden("figures/" + core::figureStem(figure),
                     sweepJson(core::figureTitle(figure),
                               std::string(figure.app), size->second,
                               figure.topology, figure.metric));
    }
}

TEST(GoldenFiguresTable, NamesAreTheRetiredProgramNames)
{
    // One program per figure, as each was built before the table.
    const std::vector<std::string> programs = {
        "fig01_fft_full_latency",
        "fig02_cg_full_latency",
        "fig03_ep_full_latency",
        "fig04_is_full_latency",
        "fig05_cholesky_full_latency",
        "fig06_is_full_contention",
        "fig07_is_mesh_contention",
        "fig08_fft_cube_contention",
        "fig09_cholesky_full_contention",
        "fig10_ep_full_contention",
        "fig11_ep_mesh_contention",
        "fig12_ep_full_exec",
        "fig13_fft_mesh_exec",
        "fig14_is_full_exec",
        "fig15_cg_full_exec",
        "fig16_cholesky_full_exec",
        "fig17_cg_mesh_exec",
        "fig18_cholesky_mesh_exec",
        "fig19_cg_mesh_contention",
        "fig20_cholesky_mesh_contention",
    };
    ASSERT_EQ(programs.size(), core::kFigures.size());
    for (std::size_t i = 0; i < programs.size(); ++i) {
        const core::FigureSpec &figure = core::kFigures[i];
        EXPECT_EQ(figure.number, i + 1);
        const std::string number = std::to_string(figure.number);
        EXPECT_EQ((number.size() == 1 ? "fig0" : "fig") + number + "_" +
                      core::figureName(figure),
                  programs[i]);
        EXPECT_EQ(core::findFigure(std::to_string(i + 1)), &figure);
        EXPECT_EQ(core::findFigure(core::figureName(figure)), &figure);
    }
    EXPECT_EQ(core::figureTitle(core::kFigures[13]),
              "Figure 14: IS on Full: Execution Time");
    EXPECT_EQ(core::figureStem(core::kFigures[13]), "is_full_exec_time");
    for (const char *text : {"0", "21", "014", "fig14", "is_full_exec_time",
                             "IS_FULL_EXEC", "14 ", ""})
        EXPECT_EQ(core::findFigure(text), nullptr) << text;
}

} // namespace
