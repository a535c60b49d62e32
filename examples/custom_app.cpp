/**
 * @file
 * Writing your own workload against the public API.
 *
 * This example builds a small parallel histogram application from
 * scratch — shared arrays, a spin lock, a barrier — and runs it on all
 * three machine characterizations without going through the App
 * registry, showing exactly which pieces a downstream user assembles:
 *
 *   1. an EventQueue (the simulation engine),
 *   2. a SharedHeap (the simulated global memory, placement-aware),
 *   3. a Machine (mach::makeMachine: target / LogP / LogP+C),
 *   4. a Runtime with P worker processes, and
 *   5. shared data + synchronization from src/runtime.
 */

#include <cstdio>
#include <memory>
#include <vector>

#include "machines/registry.hh"
#include "runtime/context.hh"
#include "runtime/shared.hh"
#include "runtime/sync.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"

using namespace absim;

namespace {

constexpr std::uint32_t kProcs = 4;
constexpr std::uint64_t kItems = 2048;
constexpr std::uint64_t kBins = 8;

} // namespace

int
main()
{
    for (const auto kind : mach::defaultFigureMachines()) {
        // 1-3: engine, shared memory, machine.
        sim::EventQueue eq;
        rt::SharedHeap heap(kProcs);
        auto machine = mach::makeMachine(kind, eq,
                                         net::TopologyKind::Hypercube,
                                         kProcs, heap);

        // 4: runtime.
        rt::Runtime runtime(eq, *machine, kProcs);

        // 5: shared data. Items block-distributed; histogram on node 0.
        rt::SharedArray<std::uint32_t> items(heap, kItems,
                                             rt::Placement::Blocked);
        rt::SharedArray<std::uint64_t> hist(heap, kBins,
                                            rt::Placement::OnNode, 0);
        rt::SpinLock lock(heap, 0);
        rt::Barrier barrier(heap, kProcs);

        sim::Rng rng(42);
        for (std::uint64_t i = 0; i < kItems; ++i)
            items.raw(i) = static_cast<std::uint32_t>(rng.below(kBins));
        for (std::uint64_t b = 0; b < kBins; ++b)
            hist.raw(b) = 0;

        runtime.spawn([&](rt::Proc &p) {
            const std::uint64_t chunk = kItems / kProcs;
            const std::uint64_t lo = p.node() * chunk;

            // Local tally of the local chunk.
            std::vector<std::uint64_t> mine(kBins, 0);
            for (std::uint64_t i = lo; i < lo + chunk; ++i) {
                ++mine[items.read(p, i)];
                p.compute(4);
            }
            // Merge under the lock.
            lock.lock(p);
            for (std::uint64_t b = 0; b < kBins; ++b) {
                const std::uint64_t cur = hist.read(p, b);
                hist.write(p, b, cur + mine[b]);
            }
            lock.unlock(p);
            barrier.arrive(p);
        });
        runtime.run();

        // Validate and report.
        std::uint64_t total = 0;
        for (std::uint64_t b = 0; b < kBins; ++b)
            total += hist.raw(b);
        const auto profile = runtime.collect();
        std::printf("%-7s machine: exec %8.1f us, %6llu messages, "
                    "histogram total %llu (%s)\n",
                    mach::toString(kind).c_str(),
                    static_cast<double>(profile.execTime()) / 1000.0,
                    static_cast<unsigned long long>(
                        profile.machine.messages),
                    static_cast<unsigned long long>(total),
                    total == kItems ? "ok" : "WRONG");
        if (total != kItems)
            return 1;
    }
    return 0;
}
