/**
 * @file
 * Shared self-measuring microbench harness for the bench/micro suite.
 *
 * Every microbench runs as: warmup iterations (discarded), then N
 * measured repeats, reported as the *median* so one scheduling hiccup
 * cannot move the result.  Results are printed human-readably and
 * emitted as machine-readable BENCH_*.json, one bench per line, so the
 * bench_compare gate (and CI) can diff runs without a JSON library.
 *
 * The wall clock lives HERE and not in src/: absim_lint rule D1 bans
 * nondeterminism primitives (clocks included) inside src/ so simulated
 * results stay bit-reproducible.  bench/ is measurement code — the
 * timer below is the sanctioned one, recorded in the absim_lint
 * allowlist (tools/absim_lint/rules.cc) with this rationale.
 *
 * Env knobs (all parsed through core/env, garbage is a named error):
 *   ABSIM_BENCH_REPEATS   measured repeats per bench   (default 5)
 *   ABSIM_BENCH_WARMUP    discarded warmup iterations  (default 1)
 *   ABSIM_BENCH_JSON_DIR  directory for BENCH_*.json   (default ".")
 */

#ifndef ABSIM_BENCH_BENCH_COMMON_HH
#define ABSIM_BENCH_BENCH_COMMON_HH

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "core/env.hh"
#include "json/json.hh"

namespace absim::bench {

/** Monotonic wall-clock seconds (the suite's only time source). */
inline double
wallNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** One measured microbench: a median over repeats plus counters. */
struct MicroResult
{
    std::string name;
    std::string unit;           ///< Unit of @ref median (e.g. "ns/event").
    double median = 0.0;        ///< Median of @ref reps.
    bool higherIsBetter = false;
    std::vector<double> reps;   ///< Every measured repeat, in run order.
    /** Machine-neutral context counters (event counts, sizes...). */
    std::map<std::string, double> counters;
};

inline double
medianOf(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t mid = v.size() / 2;
    if (v.size() % 2 == 1)
        return v[mid];
    return (v[mid - 1] + v[mid]) / 2.0;
}

/**
 * Collects microbench results and writes the suite's BENCH_*.json.
 *
 * Usage:
 *   MicroSuite suite("kernel", argc, argv);
 *   suite.run("event_throughput", "Mev/s", true, [&] { ... return x; });
 *   return suite.finish();   // prints table, writes BENCH_kernel.json
 */
class MicroSuite
{
  public:
    MicroSuite(std::string name, int argc, char **argv)
        : name_(std::move(name))
    {
        repeats_ = static_cast<unsigned>(
            core::envUint("ABSIM_BENCH_REPEATS", 5, 1, 1000));
        warmup_ = static_cast<unsigned>(
            core::envUint("ABSIM_BENCH_WARMUP", 1, 0, 1000));
        if (const char *dir = core::envString("ABSIM_BENCH_JSON_DIR"))
            jsonDir_ = dir;
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            auto value = [&](const char *flag) -> std::string {
                if (i + 1 >= argc) {
                    std::cerr << "bench: " << flag
                              << " requires a value\n";
                    std::exit(2);
                }
                return argv[++i];
            };
            if (arg == "--repeats") {
                repeats_ = static_cast<unsigned>(
                    parseFlagUint("--repeats", value("--repeats"), 1, 1000));
            } else if (arg == "--warmup") {
                warmup_ = static_cast<unsigned>(
                    parseFlagUint("--warmup", value("--warmup"), 0, 1000));
            } else if (arg == "--json-dir") {
                jsonDir_ = value("--json-dir");
            } else if (arg == "--help" || arg == "-h") {
                std::cout << "usage: bench_" << name_
                          << " [--repeats N] [--warmup N] "
                             "[--json-dir DIR]\n";
                std::exit(0);
            } else {
                std::cerr << "bench: unknown flag '" << arg
                          << "' (try --help)\n";
                std::exit(2);
            }
        }
    }

    unsigned repeats() const { return repeats_; }
    unsigned warmup() const { return warmup_; }

    /**
     * Run one microbench.  @p body executes one full measurement and
     * returns the metric value (already normalized to @p unit); it is
     * invoked warmup() times unrecorded, then repeats() times recorded.
     * Counters set via setCounter() between runs attach to the result.
     */
    template <typename Body>
    void
    run(const std::string &bench, const std::string &unit,
        bool higher_is_better, Body &&body)
    {
        MicroResult r;
        r.name = bench;
        r.unit = unit;
        r.higherIsBetter = higher_is_better;
        for (unsigned i = 0; i < warmup_; ++i)
            (void)body();
        for (unsigned i = 0; i < repeats_; ++i)
            r.reps.push_back(body());
        r.median = medianOf(r.reps);
        r.counters = counters_;
        counters_.clear(); // Counters attach to exactly one bench.
        std::printf("%-28s %12.3f %-10s (%u reps%s)\n", bench.c_str(),
                    r.median, unit.c_str(), repeats_,
                    higher_is_better ? ", higher is better" : "");
        results_.push_back(std::move(r));
    }

    /** Attach a machine-neutral counter to the bench being run; the
     *  JSON carries it exactly, so a value_sum* checksum compares every
     *  bit. */
    void
    setCounter(const std::string &key, double value)
    {
        counters_[key] = value;
    }

    /**
     * Print the summary and write BENCH_<suite>.json.
     * @return Process exit code (0 on success, 1 if the file failed).
     */
    int
    finish()
    {
        const std::string path =
            jsonDir_ + "/BENCH_" + name_ + ".json";
        std::ofstream out(path, std::ios::trunc);
        if (!out) {
            std::cerr << "bench: cannot write " << path << "\n";
            return 1;
        }
        // One bench object per line: bench_compare and humans both
        // diff this without a JSON parser.
        out << "{\"schema\":\"absim-bench-1\",\"suite\":\"" << name_
            << "\",\"benches\":[";
        for (std::size_t i = 0; i < results_.size(); ++i) {
            const MicroResult &r = results_[i];
            out << (i == 0 ? "\n" : ",\n");
            out << "{\"name\":\"" << r.name << "\",\"unit\":\"" << r.unit
                << "\",\"median\":" << fmt(r.median)
                << ",\"higher_is_better\":"
                << (r.higherIsBetter ? "true" : "false") << ",\"reps\":[";
            for (std::size_t j = 0; j < r.reps.size(); ++j)
                out << (j == 0 ? "" : ",") << fmt(r.reps[j]);
            out << "],\"counters\":{";
            std::size_t k = 0;
            for (const auto &[key, value] : r.counters)
                out << (k++ == 0 ? "" : ",") << "\"" << key
                    << "\":" << json::formatDouble(value);
            out << "}}";
        }
        out << "\n]}\n";
        out.close();
        std::cout << "wrote " << path << "\n";
        return out ? 0 : 1;
    }

  private:
    /** Checked flag parsing: garbage is a named diagnostic + exit 2,
     *  matching the run_cli / env-knob contract. */
    static std::uint64_t
    parseFlagUint(const char *flag, const std::string &text,
                  std::uint64_t min, std::uint64_t max)
    {
        std::uint64_t v = 0;
        if (!core::parseUint(text.c_str(), v) || v < min || v > max) {
            std::cerr << "error: invalid " << flag << " value '" << text
                      << "'\n";
            std::exit(2);
        }
        return v;
    }

    /** A median or repeat: six significant digits are plenty for a
     *  timing, and perfbench reads this layout. */
    static std::string
    fmt(double v)
    {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.6g", v);
        return buf;
    }

    std::string name_;
    unsigned repeats_ = 5;
    unsigned warmup_ = 1;
    std::string jsonDir_ = ".";
    std::map<std::string, double> counters_;
    std::vector<MicroResult> results_;
};

} // namespace absim::bench

#endif // ABSIM_BENCH_BENCH_COMMON_HH
