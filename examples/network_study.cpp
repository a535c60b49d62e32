/**
 * @file
 * Network-abstraction study (paper Section 6.1 in miniature).
 *
 * For one application, sweeps processors on all three topologies and
 * reports how well the LogP L and g parameters track the target
 * machine's latency and contention overheads — including the paper's
 * trend-agreement argument, computed with the library's curve metrics.
 *
 * Usage: network_study [app]
 */

#include <cstdio>
#include <string>
#include <vector>

#include "core/compare.hh"
#include "core/figures.hh"

using namespace absim;

int
main(int argc, char **argv)
{
    const std::string app = argc > 1 ? argv[1] : "is";
    const std::vector<std::uint32_t> procs = {2, 4, 8, 16};

    core::RunConfig base;
    base.app = app;

    for (const auto topo :
         {net::TopologyKind::Full, net::TopologyKind::Hypercube,
          net::TopologyKind::Mesh2D}) {
        for (const auto metric :
             {core::Metric::Latency, core::Metric::Contention}) {
            const core::SweepResult result = core::sweepFigureSafe(
                app + " / " + net::toString(topo) + " / " +
                    core::toString(metric),
                base, topo, metric, procs);
            for (const core::FailedPoint &f : result.failures)
                std::fprintf(stderr,
                             "failed point: procs=%u machine=%s: %s\n",
                             f.procs, f.machine.c_str(), f.message.c_str());
            if (!result.complete())
                return 1;
            const core::Figure &figure = result.figure;

            // Classic machine order: target, logp, logp+c.
            std::vector<double> target, logpc;
            for (const auto &pt : figure.points) {
                target.push_back(pt.values[0]);
                logpc.push_back(pt.values[2]);
            }
            std::printf(
                "%-10s %-5s %-11s trend(target,logp+c)=%+5.2f  "
                "mean-ratio=%5.2fx\n",
                app.c_str(), net::toString(topo).c_str(),
                core::toString(metric).c_str(),
                core::trendAgreement(target, logpc),
                core::meanRatio(target, logpc));
        }
    }
    std::printf("\nPaper reading: latency ratios stay near 1 with trend"
                " ~ +1\n(the L parameter abstracts the network well);"
                " contention ratios\ngrow well past 1, and more so on the"
                " mesh (the bisection-bandwidth\ng parameter is"
                " pessimistic).\n");
    return 0;
}
