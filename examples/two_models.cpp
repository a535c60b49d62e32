/**
 * @file
 * One computation, two programming models.
 *
 * The paper's first observation is that interprocess communication is
 * "explicit via messages or implicit via shared memory".  This example
 * runs the same Jacobi relaxation both ways on the same detailed
 * interconnect and checks that the numerics agree exactly:
 *
 *  - shared memory: the STENCIL application on the target machine
 *    (coherent caches fetch boundary rows on demand), and
 *  - message passing: a halo-exchange implementation over msg::MsgWorld
 *    on the target row's network model (boundary rows shipped
 *    explicitly every sweep).
 */

#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "apps/stencil.hh"
#include "core/experiment.hh"
#include "machines/registry.hh"
#include "msg/msg_world.hh"
#include "runtime/shared.hh"
#include "sim/rng.hh"

using namespace absim;

namespace {

constexpr std::uint32_t kProcs = 8;
constexpr std::uint64_t kGrid = 64; // 64x64 doubles.
constexpr std::uint32_t kSweeps = 4;
constexpr std::uint64_t kSeed = 12345;
constexpr std::uint64_t kCyclesPerPoint = 10;

std::vector<double>
initialGrid()
{
    sim::Rng rng(kSeed * 48611 + 29); // Matches StencilApp::reference.
    std::vector<double> grid(kGrid * kGrid);
    for (auto &v : grid)
        v = rng.uniform();
    return grid;
}

/** Message-passing Jacobi: block rows + halo exchange per sweep. */
std::vector<double>
runMessagePassing(double &exec_us)
{
    sim::EventQueue eq;
    rt::SharedHeap heap(kProcs);
    const auto machine = mach::makeMachine(
        mach::MachineKind::Target, eq, net::TopologyKind::Hypercube, kProcs,
        heap);
    msg::MsgWorld world(eq, machine->netModel(), kProcs);
    rt::Runtime runtime(eq, *machine, kProcs);

    const std::uint64_t rows = kGrid / kProcs;
    const auto init = initialGrid();
    // Per-node private grids with two halo rows.
    std::vector<std::vector<double>> local(kProcs);
    std::vector<std::vector<double>> next(kProcs);
    for (std::uint32_t n = 0; n < kProcs; ++n) {
        local[n].assign((rows + 2) * kGrid, 0.0);
        next[n] = local[n];
        std::memcpy(&local[n][kGrid], &init[n * rows * kGrid],
                    rows * kGrid * sizeof(double));
    }

    runtime.spawn([&](rt::Proc &p) {
        const std::uint32_t me = p.node();
        auto &mine = local[me];
        auto &out = next[me];
        for (std::uint32_t s = 0; s < kSweeps; ++s) {
            // Halo exchange: ship boundary rows to neighbours.  The
            // paper's explicit-communication model: one 8-byte message
            // per element keeps the comparison honest with the
            // shared-memory version's per-element accesses... but real
            // MP codes batch; ship whole rows (kGrid doubles).
            const msg::Tag tag = s;
            if (me > 0)
                world.send(p, me - 1, tag + 100, &mine[kGrid],
                           kGrid * sizeof(double));
            if (me + 1 < kProcs)
                world.send(p, me + 1, tag + 200, &mine[rows * kGrid],
                           kGrid * sizeof(double));
            if (me + 1 < kProcs) {
                const auto bytes = world.recv(p, me + 1, tag + 100);
                std::memcpy(&mine[(rows + 1) * kGrid], bytes.data(),
                            bytes.size());
            }
            if (me > 0) {
                const auto bytes = world.recv(p, me - 1, tag + 200);
                std::memcpy(&mine[0], bytes.data(), bytes.size());
            }

            // Relax the interior (global boundary rows/cols fixed).
            for (std::uint64_t r = 1; r <= rows; ++r) {
                const std::uint64_t gr = me * rows + (r - 1);
                for (std::uint64_t c = 0; c < kGrid; ++c) {
                    const std::uint64_t at = r * kGrid + c;
                    if (gr == 0 || c == 0 || gr == kGrid - 1 ||
                        c == kGrid - 1) {
                        out[at] = mine[at];
                        continue;
                    }
                    out[at] = 0.25 * (mine[at - kGrid] + mine[at + kGrid] +
                                      mine[at - 1] + mine[at + 1]);
                    p.compute(kCyclesPerPoint);
                }
            }
            mine.swap(out);
        }
    });
    runtime.run();
    exec_us = static_cast<double>(runtime.collect().execTime()) / 1000.0;

    std::vector<double> result(kGrid * kGrid);
    for (std::uint32_t n = 0; n < kProcs; ++n)
        std::memcpy(&result[n * rows * kGrid], &local[n][kGrid],
                    rows * kGrid * sizeof(double));
    return result;
}

} // namespace

int
main()
{
    // Shared-memory version: the stencil app on the target machine.
    core::RunConfig config;
    config.app = "stencil";
    config.params.n = kGrid;
    config.params.iterations = kSweeps;
    config.params.seed = kSeed;
    config.machine = mach::MachineKind::Target;
    config.topology = net::TopologyKind::Hypercube;
    config.procs = kProcs;
    const auto shared_profile = core::runOne(config);

    double mp_exec = 0.0;
    const auto mp_result = runMessagePassing(mp_exec);

    // Both must equal the native reference exactly (same FP operations).
    const auto expect =
        apps::StencilApp::reference(kGrid, kSeed, kSweeps);
    double max_err = 0.0;
    for (std::uint64_t i = 0; i < kGrid * kGrid; ++i)
        max_err = std::max(max_err, std::abs(mp_result[i] - expect[i]));

    std::printf("Jacobi %llux%llu, %u sweeps, %u processors "
                "(hypercube):\n\n",
                static_cast<unsigned long long>(kGrid),
                static_cast<unsigned long long>(kGrid), kSweeps, kProcs);
    std::printf("  shared memory (target machine):  %8.1f us\n",
                shared_profile.execTime() / 1000.0);
    std::printf("  message passing (halo exchange): %8.1f us\n", mp_exec);
    std::printf("  message-passing result error vs reference: %g (%s)\n",
                max_err, max_err < 1e-12 ? "ok" : "WRONG");
    std::printf(
        "\nThe explicit version ships whole boundary rows in two\n"
        "messages per sweep; the shared-memory version faults them in\n"
        "a cache block (4 doubles) at a time through the coherence\n"
        "protocol.  Same numerics, different communication structure —\n"
        "the paper's two faces of interprocess communication.\n");
    return max_err < 1e-12 ? 0 : 1;
}
