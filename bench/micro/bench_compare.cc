/// Regression gate for BENCH_*.json files: compare a current bench run
/// against the committed baseline within a tolerance band.
///
///   bench_compare BASELINE.json CURRENT.json [--tolerance 0.15]
///
/// Exit 0: every bench within the band.  Exit 1: a regression beyond
/// the band, a bench missing from the current run, or a determinism
/// checksum ("value_sum*" counter) mismatch.  Exit 2: usage/IO errors.
/// A file that is not one well-formed absim-bench-1 document is a loud
/// exit-2 diagnostic.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/env.hh"
#include "json/json.hh"

namespace {

namespace json = absim::json;

struct BenchLine
{
    std::string name;
    std::string unit;
    double median = 0.0;
    bool higherIsBetter = false;
    std::map<std::string, double> counters;
};

[[noreturn]] void
malformed(const std::string &path, const std::string &why)
{
    std::cerr << "error: malformed bench file '" << path << "': " << why
              << "\n";
    std::exit(2);
}

std::vector<BenchLine>
loadBenchFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::cerr << "error: cannot read bench file '" << path << "'\n";
        std::exit(2);
    }
    std::ostringstream text;
    text << in.rdbuf();
    json::Value doc;
    std::string why;
    if (!json::parse(text.str(), doc, &why))
        malformed(path, why);
    const json::Value *benches = doc.find("benches");
    if (benches == nullptr || benches->type != json::Type::Array)
        malformed(path, "no benches array");
    std::vector<BenchLine> out;
    for (const json::Value &bench : benches->items) {
        BenchLine b;
        if (!json::getString(bench, "name", b.name) ||
            !json::getString(bench, "unit", b.unit) ||
            !json::getDouble(bench, "median", b.median))
            malformed(path, "a bench lacks name, unit or median");
        const json::Value *better = bench.find("higher_is_better");
        b.higherIsBetter = better != nullptr &&
                           better->type == json::Type::Bool &&
                           better->text == "true";
        if (const json::Value *counters = bench.find("counters"))
            for (const json::Member &m : counters->members)
                if (!json::toDouble(m.value, b.counters[m.key]))
                    malformed(path, "counter " + m.key + " is not a number");
        out.push_back(std::move(b));
    }
    if (out.empty()) {
        std::cerr << "error: no benches found in '" << path << "'\n";
        std::exit(2);
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> files;
    double tolerance = 0.15;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--tolerance") {
            if (i + 1 >= argc ||
                !absim::core::parseDouble(argv[i + 1], tolerance) ||
                tolerance < 0.0) {
                std::cerr << "error: --tolerance needs a non-negative "
                             "number\n";
                return 2;
            }
            ++i;
        } else if (arg == "--help" || arg == "-h") {
            std::cout << "usage: bench_compare BASELINE.json CURRENT.json"
                         " [--tolerance FRACTION]\n";
            return 0;
        } else {
            files.push_back(arg);
        }
    }
    if (files.size() != 2) {
        std::cerr << "usage: bench_compare BASELINE.json CURRENT.json"
                     " [--tolerance FRACTION]\n";
        return 2;
    }

    const auto baseline = loadBenchFile(files[0]);
    const auto current = loadBenchFile(files[1]);
    std::map<std::string, const BenchLine *> byName;
    for (const BenchLine &b : current)
        byName[b.name] = &b;

    int failures = 0;
    for (const BenchLine &base : baseline) {
        const auto it = byName.find(base.name);
        if (it == byName.end()) {
            std::cerr << "FAIL " << base.name
                      << ": present in baseline, missing from current "
                         "run\n";
            ++failures;
            continue;
        }
        const BenchLine &cur = *it->second;
        // Regression direction follows the bench's own polarity.  The
        // band is relative to the baseline, clamped away from zero: a
        // zero baseline median (a sub-resolution timer read, or a
        // counter-style bench that legitimately measures nothing) used
        // to produce a NaN/inf delta, and NaN compares false against
        // the tolerance — i.e. a real regression sailed through.
        const double denom = std::max(std::abs(base.median), 1e-12);
        const double delta = base.higherIsBetter
                                 ? (base.median - cur.median) / denom
                                 : (cur.median - base.median) / denom;
        const char *verdict = delta > tolerance ? "FAIL" : "ok  ";
        if (delta > tolerance)
            ++failures;
        std::printf("%s %-28s base %10.3f  cur %10.3f %-10s %+6.1f%%\n",
                    verdict, base.name.c_str(), base.median, cur.median,
                    cur.unit.c_str(), -delta * 100.0);
        // Determinism tripwire: simulated-result checksums must match
        // exactly (same inputs => same figure values, byte for byte).
        for (const auto &[key, value] : base.counters) {
            if (key.rfind("value_sum", 0) != 0)
                continue;
            const auto cit = cur.counters.find(key);
            if (cit == cur.counters.end())
                continue;
            const double rel = std::abs(cit->second - value) /
                               std::max(1.0, std::abs(value));
            if (rel > 1e-9) {
                std::cerr << "FAIL " << base.name << ": counter " << key
                          << " drifted (base " << value << ", current "
                          << cit->second
                          << ") — simulated results changed\n";
                ++failures;
            }
        }
    }
    for (const BenchLine &cur : current) {
        bool known = false;
        for (const BenchLine &base : baseline)
            known = known || base.name == cur.name;
        if (!known)
            std::cout << "note " << cur.name
                      << ": new bench (no baseline yet)\n";
    }
    if (failures != 0) {
        std::cerr << failures << " bench(es) regressed beyond "
                  << tolerance * 100.0 << "% — update the baseline only "
                  << "with a recorded justification "
                  << "(docs/PERFORMANCE.md)\n";
        return 1;
    }
    return 0;
}
