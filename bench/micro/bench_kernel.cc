/// Kernel microbench suite: the simulator measuring its own hot path.
///
/// Emits BENCH_kernel.json (see bench/bench_common.hh for the schema and
/// the repeats/median discipline).  These are the numbers the ROADMAP's
/// "raw speed" claims are gated on, and the CI bench job compares every
/// run against the committed baseline in bench/baselines/.
///
/// Benches:
///   event_throughput     self-rescheduling near-now event chains, the
///                        dominant pattern of process-oriented simulation
///                        (Process::scheduleResume), in events/us
///   schedule_dispatch_ns pre-scheduled burst: one schedule + one
///                        dispatch per event, near-now ticks
///   far_schedule_ns      mixed near/far ticks (exercises the overflow
///                        tier of the calendar queue)
///   fiber_switch_ns      one resume+yield round trip
///   fiber_handoff_ns     one dispatch of processes delaying round-robin,
///                        each a direct fiber hand-off (schedule, pop,
///                        one stack switch)
///   dirmem_access_ns     host cost per memory access of a full IS run
///                        on the detailed target machine (DirectoryMem)
#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "bench_common.hh"
#include "check/check.hh"
#include "core/experiment.hh"
#include "sim/event_queue.hh"
#include "sim/fiber.hh"
#include "sim/process.hh"

namespace {

using absim::bench::MicroSuite;
using absim::bench::wallNow;
using absim::sim::EventQueue;
using absim::sim::Fiber;
using absim::sim::Process;
using absim::sim::Tick;

/// Self-rescheduling chains: kChains events alive at once, each hop
/// rescheduling itself a few ticks ahead — the shape Process resume
/// events give the queue.  Returns events per microsecond.
double
chainThroughput(std::uint64_t total_events)
{
    constexpr int kChains = 64;
    EventQueue eq;
    std::uint64_t remaining = total_events;
    // Small co-prime strides keep ticks interleaved across chains.
    static constexpr Tick kStride[8] = {3, 7, 11, 17, 23, 31, 41, 53};
    struct Chain
    {
        EventQueue *eq;
        std::uint64_t *remaining;
        Tick stride;
        void
        operator()()
        {
            if (*remaining == 0)
                return;
            --*remaining;
            eq->scheduleAfter(stride, *this);
        }
    };
    const double begin = wallNow();
    for (int c = 0; c < kChains; ++c)
        eq.schedule(0, Chain{&eq, &remaining,
                             kStride[static_cast<std::size_t>(c) % 8]});
    eq.run();
    const double elapsed = wallNow() - begin;
    return static_cast<double>(eq.dispatched()) / elapsed / 1e6;
}

/// One schedule + one dispatch per event, near-now ticks; ns per event.
double
burstLatency(std::uint64_t events, Tick max_delta)
{
    EventQueue eq;
    constexpr std::uint64_t kBatch = 4096;
    std::uint64_t sink = 0;
    const double begin = wallNow();
    for (std::uint64_t done = 0; done < events; done += kBatch) {
        const std::uint64_t n = std::min(kBatch, events - done);
        for (std::uint64_t i = 0; i < n; ++i) {
            // Deterministic mixed deltas (weyl sequence mod max_delta).
            const Tick delta = (i * 2654435761u) % max_delta;
            eq.scheduleAfter(delta, [&sink] { ++sink; });
        }
        eq.run();
    }
    const double elapsed = wallNow() - begin;
    ABSIM_CHECK(sink == events, "burst bench lost events");
    return elapsed * 1e9 / static_cast<double>(events);
}

double
fiberSwitch(std::uint64_t switches)
{
    std::uint64_t count = switches;
    Fiber f([&count] {
        while (count-- > 0)
            Fiber::yield();
    });
    const double begin = wallNow();
    while (!f.finished())
        f.resume();
    const double elapsed = wallNow() - begin;
    return elapsed * 1e9 / static_cast<double>(switches);
}

/// Processes that delay round-robin on one queue: process i wakes at
/// ticks i, i + N, i + 2N, ..., so each block finds the next process's
/// wake-up at the front and hands off to it.  ns per dispatch.
double
fiberHandoff(std::uint64_t dispatches)
{
    constexpr std::uint64_t kProcs = 8;
    const std::uint64_t rounds = dispatches / kProcs;
    EventQueue eq;
    std::vector<std::unique_ptr<Process>> procs;
    for (std::uint64_t i = 0; i < kProcs; ++i) {
        procs.push_back(std::make_unique<Process>(
            eq, "handoff", [rounds] {
                for (std::uint64_t r = 1; r < rounds; ++r)
                    Process::current()->delay(kProcs);
            }));
        procs.back()->start(i);
    }
    const double begin = wallNow();
    eq.run();
    const double elapsed = wallNow() - begin;
    // Only the first entries, and the last round's wake-ups after a
    // process finishes, come from the scheduler.
    ABSIM_CHECK(eq.handedOff() + 2 * kProcs - 1 == eq.dispatched(),
                "hand-off bench: " << eq.handedOff() << " of "
                                   << eq.dispatched()
                                   << " dispatches handed off");
    return elapsed * 1e9 / static_cast<double>(eq.dispatched());
}

} // namespace

int
main(int argc, char **argv)
{
    MicroSuite suite("kernel", argc, argv);

    const std::uint64_t chain_events =
        absim::core::envUint("ABSIM_BENCH_EVENTS", 2'000'000, 1'000);
    suite.setCounter("events", static_cast<double>(chain_events));
    suite.run("event_throughput", "ev/us", true,
              [&] { return chainThroughput(chain_events); });

    suite.setCounter("events", static_cast<double>(chain_events));
    suite.run("schedule_dispatch_ns", "ns/event", false,
              [&] { return burstLatency(chain_events, 512); });

    // 1 in 8 events lands beyond any near-now window (deltas up to 1M
    // ticks): the far/overflow path must stay within sight of the near
    // path, not regress to worse-than-heap.
    suite.setCounter("events", static_cast<double>(chain_events / 4));
    suite.run("far_schedule_ns", "ns/event", false,
              [&] { return burstLatency(chain_events / 4, 1'000'000); });

    const std::uint64_t switches =
        absim::core::envUint("ABSIM_BENCH_SWITCHES", 1'000'000, 1'000);
    suite.setCounter("switches", static_cast<double>(switches));
    suite.run("fiber_switch_ns", "ns/switch", false,
              [&] { return fiberSwitch(switches); });

    suite.setCounter("dispatches", static_cast<double>(switches));
    suite.run("fiber_handoff_ns", "ns/dispatch", false,
              [&] { return fiberHandoff(switches); });

    // Full IS run on the detailed target machine: DirectoryMem owns the
    // op path.  Per-access host cost folds in the queue, fibers and the
    // protocol — the end-to-end kernel number.
    {
        absim::core::RunConfig config;
        config.app = "is";
        config.machine = absim::mach::MachineKind::Target;
        config.procs = 8;
        config.params.n = static_cast<std::uint32_t>(absim::core::envUint(
            "ABSIM_BENCH_DIRMEM_SIZE", 16384, 256));
        config.checkResult = false;
        // Time the simulator, not the validators (same stance as
        // table_sim_speed).
        absim::check::options().coherence = false;
        absim::check::options().conservation = false;
        suite.run("dirmem_access_ns", "ns/access", false, [&] {
            const double begin = wallNow();
            const auto profile = absim::core::runOne(config);
            const double elapsed = wallNow() - begin;
            std::uint64_t accesses = 0;
            for (const auto &p : profile.procs)
                accesses += p.accesses;
            suite.setCounter("accesses", static_cast<double>(accesses));
            suite.setCounter("engine_events",
                             static_cast<double>(profile.engineEvents));
            return elapsed * 1e9 / static_cast<double>(accesses);
        });
    }

    return suite.finish();
}
