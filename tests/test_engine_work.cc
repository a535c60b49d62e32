/**
 * @file
 * Absolute engine work counts for the cells of the is_full_exec golden,
 * plus one larger IS row.
 *
 * The goldens pin simulated results; these pins add the work the
 * engine did to produce them: Profile::engineEvents (every dispatch,
 * including the ones a delay advances in place and the ones a blocking
 * process takes by hand-off) and the coherence
 * checker's blocksChecked() (every per-transition check plus the
 * drain-time sweep).  A kernel change that forgot to count a dispatch,
 * or a checker change that skipped a transition, keeps every simulated
 * cycle and still fails here.  The numbers were captured before the
 * in-place advance and the presence-record checker went in.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "apps/app.hh"
#include "check/coherence.hh"
#include "core/run_context.hh"
#include "machines/composed_machine.hh"
#include "machines/directory_mem.hh"
#include "machines/ideal_mem.hh"
#include "machines/registry.hh"
#include "runtime/context.hh"
#include "runtime/shared.hh"
#include "sim/event_queue.hh"

namespace {

using namespace absim;

struct Work
{
    std::uint64_t engineEvents = 0;
    std::uint64_t blocksChecked = 0; ///< 0 for the uncached machine.
    std::uint64_t advancedInPlace = 0;
    std::uint64_t handedOff = 0;
    std::uint64_t fiberStacks = 0;   ///< Taken by the run's processes.
    std::uint64_t invalidations = 0; ///< Machine::stats().invalidations.
};

/** One golden cell, run the way core::runOne executes it. */
Work
runIsCell(mach::MachineKind kind, std::uint32_t procs, std::uint64_t n)
{
    core::RunContext run_context;
    sim::EventQueue eq;
    rt::SharedHeap heap(procs);
    auto machine = mach::makeMachine(kind, eq, net::TopologyKind::Full,
                                     procs, heap);
    rt::Runtime runtime(eq, *machine, procs);
    auto app = apps::makeApp("is");
    apps::AppParams params;
    params.n = n;
    app->setup(runtime, heap, params);
    runtime.spawn([&app](rt::Proc &p) { app->worker(p); });
    runtime.run();
    app->check();

    Work work;
    work.engineEvents = runtime.collect().engineEvents;
    work.advancedInPlace = eq.advancedInPlace();
    work.handedOff = eq.handedOff();
    work.fiberStacks = run_context.fiberStacksAllocated() +
                       run_context.fiberStacksReused();
    work.invalidations = machine->stats().invalidations;
    const mach::MemModel &mem = machine->memModel();
    if (const auto *dir = dynamic_cast<const mach::DirectoryMem *>(&mem))
        work.blocksChecked = dir->checker().blocksChecked();
    else if (const auto *ideal =
                 dynamic_cast<const mach::IdealCacheMem *>(&mem))
        work.blocksChecked = ideal->checker().blocksChecked();
    return work;
}

struct Cell
{
    mach::MachineKind kind;
    std::uint32_t procs;
    std::uint64_t engineEvents;
    std::uint64_t blocksChecked;
};

Work
expectPinned(const Cell &cell, std::uint64_t n)
{
    const Work got = runIsCell(cell.kind, cell.procs, n);
    EXPECT_EQ(got.engineEvents, cell.engineEvents)
        << toString(cell.kind) << " P=" << cell.procs << " n=" << n;
    EXPECT_EQ(got.blocksChecked, cell.blocksChecked)
        << toString(cell.kind) << " P=" << cell.procs << " n=" << n;
    return got;
}

TEST(EngineWork, IsFullExecGoldenCellsArePinned)
{
    const Cell cells[] = {
        {mach::MachineKind::Target, 1, 93, 175},
        {mach::MachineKind::LogP, 1, 1, 0},
        {mach::MachineKind::LogPC, 1, 1, 175},
        {mach::MachineKind::Target, 2, 1935, 447},
        {mach::MachineKind::LogP, 2, 1081, 0},
        {mach::MachineKind::LogPC, 2, 781, 413},
        {mach::MachineKind::Target, 4, 4328, 821},
        {mach::MachineKind::LogP, 4, 2048, 0},
        {mach::MachineKind::LogPC, 4, 1532, 811},
    };
    for (const Cell &cell : cells)
        (void)expectPinned(cell, 256);
}

TEST(EngineWork, LargerIsCellsArePinned)
{
    // Sixteen processors on a 4096-key sort: enough sharing that every
    // per-transition check path runs, and enough delays that some are
    // advanced in place and some blocks hand off.  If either fast path
    // ever stopped firing, the counts above would still hold; the last
    // checks would not.
    const Cell cells[] = {
        {mach::MachineKind::Target, 16, 96117, 16249},
        {mach::MachineKind::LogP, 16, 70181, 0},
        {mach::MachineKind::LogPC, 16, 39827, 16156},
    };
    for (const Cell &cell : cells) {
        const Work got = expectPinned(cell, 4096);
        EXPECT_GT(got.advancedInPlace, 0u) << toString(cell.kind);
        EXPECT_GT(got.handedOff, 0u) << toString(cell.kind);
        EXPECT_LT(got.advancedInPlace + got.handedOff, got.engineEvents)
            << toString(cell.kind);
    }
}

TEST(EngineWork, ExecutedFanOutsStartNoHelperProcesses)
{
    // The target machine's invalidation fan-outs run as detached
    // coroutines in execution as in replay: every fiber stack the run
    // takes is a worker's, however many sharers it invalidated.
    const Work got = runIsCell(mach::MachineKind::Target, 16, 4096);
    EXPECT_GT(got.invalidations, 1000u);
    EXPECT_EQ(got.fiberStacks, 16u);
}

} // namespace
