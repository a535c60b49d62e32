/**
 * @file
 * Measurement primitives of the end-to-end benchmark: the wall clock,
 * sample summaries, peak-memory probes, the span log of the traced
 * pass, and the result every workload returns.
 *
 * The wall clock lives here, outside src/, for the same reason
 * bench/bench_common.hh holds one: simulated results must never read
 * host time (absim_lint rule D1).
 */

#ifndef ABSIM_PERFBENCH_MEASURE_HH
#define ABSIM_PERFBENCH_MEASURE_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include <sys/types.h>

namespace absim::perfbench {

/** Monotonic wall-clock seconds. */
inline double
wallNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Five-number view of a sample set. */
struct Summary
{
    double median = 0.0;
    double q1 = 0.0;
    double q3 = 0.0;
    double min = 0.0;
    double max = 0.0;
    std::size_t n = 0;
};

/** Quantile @p q in [0, 1] by linear interpolation between order
 *  statistics; 0 for an empty set. */
double quantile(std::vector<double> samples, double q);

Summary summarize(const std::vector<double> &samples);

/** Peak resident set size (VmHWM) of process @p pid, in MB; a negative
 *  value when /proc does not say. */
double peakRssMb(pid_t pid);

/** Digits enough to read a double back exactly. */
std::string formatExact(double value);

/**
 * Operation latencies grouped by pass.  A pass is one unit of the
 * workload's repeated work (a sweep, or a round of requests) and runs
 * the same operations every time; an operation is one simulation run
 * (a cell) or one request, named by its index within the pass.
 */
class Passes
{
  public:
    /** Operation @p op of the current pass took @p seconds. */
    void
    add(std::size_t op, double seconds)
    {
        samples_.push_back(seconds);
        ops_.push_back(op);
    }

    /** Close the current pass. */
    void endPass() { ends_.push_back(samples_.size()); }

    /** Every sample so far, pooled across passes. */
    const std::vector<double> &samples() const { return samples_; }

    std::size_t passes() const { return ends_.size(); }

    /**
     * Each operation's floor: the fastest of its repeats across passes,
     * one value per operation.  Other tenants of a shared host slow
     * every operation now and then, for a moment or for seconds, and
     * never speed one up; an operation's fastest repeat is the one they
     * disturbed least, which is closest to what the operation itself
     * costs.
     */
    std::vector<double> floors() const;

    /** Quantile @p q of each closed pass. */
    std::vector<double> perPass(double q) const;

    /** Operations per second of busy time in each closed pass. */
    std::vector<double> perPassRate() const;

  private:
    std::vector<double> samples_;
    std::vector<std::size_t> ops_;
    std::vector<std::size_t> ends_;
};

/** One metric of the result line. */
struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
    /** How many samples the value pools; 0 for a count or a figure
     *  derived from other metrics. */
    std::size_t samples = 0;
    /** For a value over operation floors, how many operations. */
    std::size_t ops = 0;
    /** The value's spread: over the samples, or, for a latency
     *  percentile, the same percentile taken per pass. */
    Summary spread;
};

/** What one workload run reports. */
struct Result
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;

    /** Record a failed output check: prints the named diagnostic to
     *  stderr and marks the run incorrect. */
    void fail(const std::string &what);

    /** Add a metric computed from samples: the value is their median. */
    void addMedian(const std::string &name, const std::string &unit,
                   const std::vector<double> &samples);

    /** Add percentile @p q over the operations of their floors
     *  (Passes::floors), in ms. */
    void addLatency(const std::string &name, const Passes &passes,
                    double q);

    /** Add the operations of a pass over the sum of their floors:
     *  operations per second. */
    void addThroughput(const std::string &name, const Passes &passes);

    /** Add a single value. */
    void add(const std::string &name, const std::string &unit,
             double value);
};

/**
 * Spans of the traced pass: one per call into a layer's public
 * function, kept in memory and written out once at the end.  Spans
 * nest: a span opened while another is open is its child.
 */
class SpanLog
{
  public:
    struct Span
    {
        std::uint32_t id = 0;
        std::uint32_t parent = 0; ///< 0 = a root span.
        const char *name = "";    ///< Static string (layer.function).
        std::int64_t item = -1;   ///< Cell or request index, or -1.
        double start = 0.0;
        double end = 0.0;
    };

    /** Open a span; close it with the returned id. */
    std::uint32_t open(const char *name, std::int64_t item = -1);
    void close(std::uint32_t id);

    /** RAII span. */
    class Scope
    {
      public:
        Scope(SpanLog &log, const char *name, std::int64_t item = -1)
            : log_(log), id_(log.open(name, item))
        {
        }
        ~Scope() { log_.close(id_); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanLog &log_;
        std::uint32_t id_;
    };

    /** Per-name totals: how many spans, their summed duration, and
     *  their self time (duration minus the time children cover). */
    struct Totals
    {
        std::uint64_t count = 0;
        double totalSeconds = 0.0;
        double selfSeconds = 0.0;
    };
    std::map<std::string, Totals> totals() const;

    /** Durations (seconds) of every closed span named @p name. */
    std::vector<double> durations(const std::string &name) const;

    /** Write TRACE_<workload>.json: every span plus the per-name
     *  totals.  @return false if the file could not be written. */
    bool write(const std::string &path, const std::string &workload,
               const std::map<std::string, double> &counters) const;

  private:
    std::vector<Span> spans_;
    std::vector<std::uint32_t> open_;
    double origin_ = wallNow();
};

} // namespace absim::perfbench

#endif // ABSIM_PERFBENCH_MEASURE_HH
