/**
 * @file
 * Shared fixture for machine-model tests: builds engine + heap + machine
 * + runtime and runs scripted per-processor workloads.
 */

#ifndef ABSIM_TESTS_MACHINE_FIXTURE_HH
#define ABSIM_TESTS_MACHINE_FIXTURE_HH

#include <functional>
#include <memory>
#include <vector>

#include "machines/composed_machine.hh"
#include "machines/directory_mem.hh"
#include "machines/ideal_mem.hh"
#include "machines/registry.hh"
#include "runtime/context.hh"
#include "runtime/shared.hh"
#include "sim/event_queue.hh"

namespace absim::test {

class MachineHarness
{
  public:
    MachineHarness(mach::MachineKind kind, net::TopologyKind topo,
                   std::uint32_t procs,
                   logp::GapPolicy policy = logp::GapPolicy::Single,
                   const mach::CacheConfig &cache = {},
                   mach::ProtocolKind protocol = mach::ProtocolKind::Berkeley)
        : heap(procs)
    {
        machine = mach::makeMachine(kind, eq, topo, procs, heap, policy,
                                    cache, protocol);
        runtime = std::make_unique<rt::Runtime>(eq, *machine, procs);
    }

    /** Run @p body on every processor to completion. */
    void
    run(std::function<void(rt::Proc &)> body)
    {
        runtime->spawn(std::move(body));
        runtime->run();
    }

    /** The directory protocol of a target (or logp+dir) machine. */
    mach::DirectoryMem &
    target()
    {
        return dynamic_cast<mach::DirectoryMem &>(machine->memModel());
    }

    /** The ideal coherent cache of a logp+c (or target+ic) machine. */
    mach::IdealCacheMem &
    logpc()
    {
        return dynamic_cast<mach::IdealCacheMem &>(machine->memModel());
    }

    sim::EventQueue eq;
    rt::SharedHeap heap;
    std::unique_ptr<mach::ComposedMachine> machine;
    std::unique_ptr<rt::Runtime> runtime;
};

} // namespace absim::test

#endif // ABSIM_TESTS_MACHINE_FIXTURE_HH
