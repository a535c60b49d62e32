/**
 * @file
 * Integration tests for the experiment driver and figure harness — and
 * mechanical checks of the paper's headline qualitative claims on small
 * configurations.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/compare.hh"
#include "core/figures.hh"

namespace {

using namespace absim;

/** sweepFigureSafe's figure; a failed point fails the test. */
core::Figure
completeSweep(const core::RunConfig &base, net::TopologyKind topology,
              core::Metric metric, const std::vector<std::uint32_t> &procs)
{
    core::SweepResult result =
        core::sweepFigureSafe("test", base, topology, metric, procs);
    for (const core::FailedPoint &f : result.failures)
        ADD_FAILURE() << "P=" << f.procs << " " << f.machine << ": "
                      << f.message;
    return std::move(result.figure);
}

TEST(Experiment, RunOneProducesConsistentProfile)
{
    core::RunConfig config;
    config.app = "fft";
    config.params.n = 256;
    config.machine = mach::MachineKind::Target;
    config.procs = 4;
    const auto profile = core::runOne(config);
    ASSERT_EQ(profile.procs.size(), 4u);
    EXPECT_GT(profile.execTime(), 0u);
    EXPECT_GT(profile.engineEvents, 0u);
    EXPECT_GT(profile.wallSeconds, 0.0);
    EXPECT_GT(profile.machine.messages, 0u);
}

TEST(Experiment, UnknownAppThrows)
{
    core::RunConfig config;
    config.app = "barnes";
    EXPECT_THROW(core::runOne(config), std::invalid_argument);
}

TEST(Figures, MetricNamesAndDefaults)
{
    EXPECT_EQ(core::toString(core::Metric::ExecTime), "exec_time");
    EXPECT_EQ(core::toString(core::Metric::Latency), "latency");
    EXPECT_EQ(core::toString(core::Metric::Contention), "contention");
    const auto procs = core::defaultProcCounts();
    ASSERT_EQ(procs.size(), 6u);
    EXPECT_EQ(procs.front(), 1u);
    EXPECT_EQ(procs.back(), 32u);
    EXPECT_EQ(core::procCountsUpTo(32), procs);
    EXPECT_EQ(core::procCountsUpTo(1000), procs);
    EXPECT_EQ(core::procCountsUpTo(12),
              (std::vector<std::uint32_t>{1, 2, 4, 8}));
    EXPECT_EQ(core::procCountsUpTo(1), (std::vector<std::uint32_t>{1}));
    EXPECT_TRUE(core::procCountsUpTo(0).empty());
}

TEST(Figures, SweepProducesThreeCurves)
{
    core::RunConfig base;
    base.app = "is";
    base.params.n = 512;
    const auto figure = completeSweep(base, net::TopologyKind::Full,
                                      core::Metric::ExecTime, {1, 2, 4});
    ASSERT_EQ(figure.points.size(), 3u);
    for (const auto &pt : figure.points) {
        ASSERT_EQ(pt.values.size(), 3u); // target, logp, logp+c.
        for (const double v : pt.values)
            EXPECT_GT(v, 0.0);
    }
    // P=1: no network anywhere, so overhead-free execution must agree
    // across machines up to the local-memory model (identical here).
    EXPECT_DOUBLE_EQ(figure.points[0].values[0],
                     figure.points[0].values[2]);
}

TEST(Figures, PrintFormat)
{
    core::Figure figure;
    figure.title = "Figure X";
    figure.app = "fft";
    figure.topology = net::TopologyKind::Hypercube;
    figure.metric = core::Metric::Latency;
    figure.points.push_back({4, {1.5, 6.25, 2.0}});
    std::ostringstream os;
    core::printFigure(os, figure);
    const std::string text = os.str();
    EXPECT_NE(text.find("Figure X"), std::string::npos);
    EXPECT_NE(text.find("network=cube"), std::string::npos);
    EXPECT_NE(text.find("metric=latency"), std::string::npos);
    EXPECT_NE(text.find("6.2"), std::string::npos);
}

// ---- The paper's qualitative claims, asserted mechanically -------------

class PaperClaims : public ::testing::Test
{
  protected:
    static core::Figure
    sweep(const std::string &app, std::uint64_t n,
          net::TopologyKind topo, core::Metric metric)
    {
        core::RunConfig base;
        base.app = app;
        base.params.n = n;
        return completeSweep(base, topo, metric, {2, 4, 8});
    }

    // Column indices in the classic machine order.
    static constexpr std::size_t kTarget = 0;
    static constexpr std::size_t kLogp = 1;
    static constexpr std::size_t kLogpc = 2;

    static std::vector<double>
    curve(const core::Figure &figure, std::size_t column)
    {
        std::vector<double> v;
        for (const auto &pt : figure.points)
            v.push_back(pt.values[column]);
        return v;
    }
};

TEST_F(PaperClaims, LatencyAbstractionTracksTarget)
{
    // Section 6.1: LogP+C latency overhead agrees with the target in
    // trend and is within a small factor, for a static and a dynamic
    // application.
    for (const char *app : {"fft", "cg"}) {
        const auto figure = sweep(app, app == std::string("fft") ? 512 : 128,
                                  net::TopologyKind::Full,
                                  core::Metric::Latency);
        const auto target = curve(figure, kTarget);
        const auto logpc = curve(figure, kLogpc);
        EXPECT_GE(core::trendAgreement(target, logpc), 0.5) << app;
        const double ratio = core::meanRatio(target, logpc);
        EXPECT_GT(ratio, 0.7) << app;
        EXPECT_LT(ratio, 2.0) << app;
    }
}

TEST_F(PaperClaims, LogPLatencyInflatedByMissingLocality)
{
    // Section 6.2 / Figure 1: ignoring the cache multiplies FFT's
    // latency overhead by roughly the items-per-block factor.
    const auto figure =
        sweep("fft", 512, net::TopologyKind::Full, core::Metric::Latency);
    const auto target = curve(figure, kTarget);
    const auto logp = curve(figure, kLogp);
    const double ratio = core::meanRatio(target, logp);
    EXPECT_GT(ratio, 2.0);
}

TEST_F(PaperClaims, ContentionPessimisticAndWorseOnMesh)
{
    // Section 6.1: the bisection-bandwidth g overestimates contention,
    // and the pessimism grows as connectivity decreases.  Compare at
    // P=16, where g(full)=0.2us but g(mesh)=3.2us.
    core::RunConfig base;
    base.app = "is";
    base.params.n = 1024;
    const auto full = completeSweep(base, net::TopologyKind::Full,
                                    core::Metric::Contention, {16});
    const auto mesh = completeSweep(base, net::TopologyKind::Mesh2D,
                                    core::Metric::Contention, {16});
    const double gap_full =
        full.points[0].values[2] - full.points[0].values[0];
    const double gap_mesh =
        mesh.points[0].values[2] - mesh.points[0].values[0];
    EXPECT_GT(gap_full, 0.0);
    EXPECT_GT(gap_mesh, gap_full);
}

TEST_F(PaperClaims, EpExecutionAgreesOnAllMachines)
{
    // Figure 12: computation dominates EP; all three machines agree.
    const auto figure = sweep("ep", 8192, net::TopologyKind::Full,
                              core::Metric::ExecTime);
    for (const auto &pt : figure.points) {
        EXPECT_NEAR(pt.values[2] / pt.values[0], 1.0, 0.1);
        EXPECT_NEAR(pt.values[1] / pt.values[0], 1.0, 0.25);
    }
}

TEST_F(PaperClaims, LocalityGapGrowsWithCommunication)
{
    // Figures 12-14: the LogP vs LogP+C execution-time gap is ordered
    // EP < FFT < IS (increasing communication-to-computation ratio).
    const double gap_ep =
        core::meanRatio(curve(sweep("ep", 8192, net::TopologyKind::Full,
                                    core::Metric::ExecTime),
                              kLogpc),
                        curve(sweep("ep", 8192, net::TopologyKind::Full,
                                    core::Metric::ExecTime),
                              kLogp));
    const double gap_is =
        core::meanRatio(curve(sweep("is", 1024, net::TopologyKind::Full,
                                    core::Metric::ExecTime),
                              kLogpc),
                        curve(sweep("is", 1024, net::TopologyKind::Full,
                                    core::Metric::ExecTime),
                              kLogp));
    EXPECT_LT(gap_ep, 1.2);
    EXPECT_GT(gap_is, gap_ep);
}

} // namespace
