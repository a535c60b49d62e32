/**
 * @file
 * SPASM-style overhead separation (paper Section 3.3).
 *
 * The simulator's profiling decomposes each processor's execution time
 * into:
 *   - busy        computation + cache/local-memory access time (the
 *                 "ideal time" component plus memory hits),
 *   - latency     contention-free message transmission time,
 *   - contention  time messages spent waiting for links or g-gates.
 *
 * This isolation is what lets the paper validate the L and g parameters
 * individually even when total execution times agree.
 */

#ifndef ABSIM_STATS_OVERHEADS_HH
#define ABSIM_STATS_OVERHEADS_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "machines/machine.hh"
#include "sim/types.hh"
#include "stats/histogram.hh"

namespace absim::stats {

/** Per-processor overhead decomposition. */
struct ProcStats
{
    sim::Duration busy = 0;
    sim::Duration latency = 0;
    sim::Duration contention = 0;
    /** Blocked on a peer (message-passing receive); the shared-memory
     *  runtime never uses this bucket (its waiting is spinning, charged
     *  as accesses + busy). */
    sim::Duration wait = 0;
    std::uint64_t accesses = 0;
    std::uint64_t networkAccesses = 0;
    sim::Tick finishTime = 0;

    /** Sum of all buckets; equals finishTime by construction. */
    sim::Duration
    total() const
    {
        return busy + latency + contention + wait;
    }
};

/**
 * Overheads attributed to one named application phase (SPASM-style
 * bottleneck isolation: apps mark phases like "butterflies" or "rank",
 * and repeated phases accumulate under one name).
 */
struct PhaseStats
{
    std::string name;
    sim::Duration busy = 0;
    sim::Duration latency = 0;
    sim::Duration contention = 0;
    sim::Duration wait = 0;

    sim::Duration
    total() const
    {
        return busy + latency + contention + wait;
    }
};

/**
 * Attribute the overhead a processor accrued since @p snapshot to phase
 * @p name of @p phases (appended on first use, accumulated after) and
 * move @p snapshot up to @p now.  The runtime's processors and the
 * trace replay's share it.
 */
void flushPhase(const ProcStats &now, ProcStats &snapshot,
                const std::string &name, std::vector<PhaseStats> &phases);

/**
 * Per-abstraction-axis attribution of a run's memory-system time
 * (which model charged what), so the network abstraction's error and
 * the locality abstraction's error stay separable in every profile —
 * the decomposition the quadrant ablation plots.
 */
struct AxisSplit
{
    /** Network-axis time: contention-free transmission, summed over
     *  processors (SPASM latency). */
    sim::Duration netLatency = 0;
    /** Network-axis time: link/g-gate waits, summed over processors
     *  (SPASM contention). */
    sim::Duration netContention = 0;
    /** Memory-axis time: cache/local-memory cost the memory model
     *  charged (MachineStats::memTime). */
    sim::Duration memTime = 0;

    sim::Duration
    networkTotal() const
    {
        return netLatency + netContention;
    }
};

/** Result of one complete simulation run. */
struct Profile
{
    std::vector<ProcStats> procs;
    /** Per-processor phase breakdowns, in first-use order. */
    std::vector<std::vector<PhaseStats>> procPhases;
    /** Machine-wide distribution of networked-access times. */
    Histogram remoteLatency;
    mach::MachineStats machine;
    /** Which model implemented each abstraction axis ("detailed"/"logp",
     *  "directory"/"ideal"/"uncached"; "none" without that axis). */
    std::string netModel = "none";
    std::string memModel = "none";
    std::uint64_t engineEvents = 0; ///< Simulation-cost metric.
    double wallSeconds = 0.0;       ///< Host time for the simulation.

    /**
     * Kernel throughput: engine events dispatched per host wall
     * second, or 0 when the run carried no wall-time measurement.
     * Host-dependent — a health indicator, never a simulation result.
     */
    double
    eventsPerWallSecond() const
    {
        return wallSeconds > 0.0
                   ? static_cast<double>(engineEvents) / wallSeconds
                   : 0.0;
    }

    /** Per-axis attribution of the run's memory-system time. */
    AxisSplit axisSplit() const;

    /** Phase breakdown summed across processors. */
    std::vector<PhaseStats> phaseSummary() const;

    /** Simulated execution time: max over processors (SPASM total time). */
    sim::Tick execTime() const;

    /** Per-processor mean of each overhead, in ticks. */
    double meanBusy() const;
    double meanLatency() const;
    double meanContention() const;

    /** Sum over processors, in ticks. */
    sim::Duration totalLatency() const;
    sim::Duration totalContention() const;
};

/** One-line-per-processor human-readable dump. */
std::ostream &operator<<(std::ostream &os, const Profile &p);

} // namespace absim::stats

#endif // ABSIM_STATS_OVERHEADS_HH
