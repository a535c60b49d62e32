/**
 * @file
 * Seeded mutation sweep over whole trace files: the header, the setup
 * records and the encoded op streams.  Each mutant is re-sealed with a
 * valid FNV-1a checksum, so the body decoder is really reached (the
 * checksum is not authentication).  Every mutant must either load as a
 * cache miss or load and replay to a profile, a named ReplayError, the
 * heap's std::out_of_range, or a trip of the run budget every hostile
 * replay runs under — never a crash, a hang, or a giant allocation.
 *
 * This binary replaces the global operator new and delete, so that any
 * single allocation request above kAllocCap is recorded and refused;
 * that is why it is not part of absim_tests.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <new>
#include <stdexcept>
#include <string>
#include <vector>

#include <unistd.h>

#include "core/cache_key.hh"
#include "core/experiment.hh"
#include "machines/registry.hh"
#include "sim/rng.hh"
#include "sim/watchdog.hh"
#include "trace_replay/format.hh"
#include "trace_replay/replay.hh"

namespace {

/** The largest single allocation a hostile trace may cause. */
constexpr std::size_t kAllocCap = std::size_t{64} << 20;

/** The largest request above kAllocCap seen so far (0: none). */
std::atomic<std::size_t> oversizedRequest{0};

void *
allocate(std::size_t n)
{
    if (n > kAllocCap) {
        oversizedRequest.store(n);
        throw std::bad_alloc();
    }
    if (void *p = std::malloc(n != 0 ? n : 1))
        return p;
    throw std::bad_alloc();
}

} // namespace

// Every form without an alignment argument, so that no block crosses
// between these and the runtime's (a sanitizer reports the mismatch).
void *operator new(std::size_t n) { return allocate(n); }
void *operator new[](std::size_t n) { return allocate(n); }
void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    try {
        return allocate(n);
    } catch (const std::bad_alloc &) {
        return nullptr;
    }
}
void *
operator new[](std::size_t n, const std::nothrow_t &tag) noexcept
{
    return operator new(n, tag);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

namespace {

using namespace absim;

constexpr int kMutantsPerTrace = 150;

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

/** Write @p body to @p path sealed with a valid checksum. */
void
writeSealed(const std::string &path, std::string body)
{
    const std::uint64_t sum = core::fnv1a64(body); // The trace checksum.
    for (unsigned i = 0; i < 8; ++i)
        body += static_cast<char>((sum >> (8 * i)) & 0xff);
    std::ofstream(path, std::ios::binary | std::ios::trunc) << body;
}

/** One edit of @p body inside [@p from, @p to). */
std::string
mutate(sim::Rng &rng, std::string body, std::size_t from, std::size_t to)
{
    const std::size_t at = from + rng.below(to - from);
    switch (rng.below(6)) {
      case 0: // Flip one bit.
        body[at] = static_cast<char>(body[at] ^ (1u << rng.below(8)));
        break;
      case 1: // Any byte.
        body[at] = static_cast<char>(rng.below(256));
        break;
      case 2: // A varint continuation byte: lengthens a field.
        body[at] = static_cast<char>(0x80 | rng.below(128));
        break;
      case 3: // Drop a byte.
        body.erase(at, 1);
        break;
      case 4: // Insert a byte.
        body.insert(at, 1, static_cast<char>(rng.below(256)));
        break;
      default: { // Repeat a short run of bytes in place.
        const std::size_t len = 1 + rng.below(std::min<std::size_t>(
                                        16, body.size() - at));
        body.insert(at, body.substr(at, len));
        break;
      }
    }
    return body;
}

/** What the mutants came to. */
struct Outcomes
{
    int misses = 0;
    int profiles = 0;
    int replayErrors = 0;
    int outOfRange = 0;
    int budgetTrips = 0;
};

/** The budget every replay here runs under, as core::runOneSafe
 *  installs one: two spinners that each wait for the other keep events
 *  pending forever, which only a budget ends.  Every unmutated trace
 *  replays well inside it. */
sim::RunBudget
replayBudget()
{
    sim::RunBudget budget;
    budget.maxEvents = 200'000;
    budget.stallDispatchLimit = 50'000;
    return budget;
}

/** Load and replay the mutant at @p path, classifying the outcome. */
void
judge(const std::string &path, mach::MachineKind machine, Outcomes &out)
{
    trace::Trace loaded;
    bool ok = false;
    try {
        ok = trace::loadTrace(path, loaded);
    } catch (const std::exception &e) {
        ADD_FAILURE() << "loadTrace threw: " << e.what();
        return;
    }
    if (!ok) {
        ++out.misses;
        return;
    }
    const sim::RunBudget budget = replayBudget();
    trace::ReplaySpec spec;
    spec.machine = machine;
    try {
        (void)trace::replayTrace(loaded, spec, &budget);
        ++out.profiles;
    } catch (const trace::ReplayError &) {
        ++out.replayErrors;
    } catch (const std::out_of_range &) {
        ++out.outOfRange;
    } catch (const sim::WatchdogError &) {
        ++out.budgetTrips;
    } catch (const std::exception &e) {
        ADD_FAILURE() << "replay threw an unnamed error: " << e.what();
    }
}

TEST(TraceMutation, EveryMutantIsAMissOrANamedOutcome)
{
    const std::string dir =
        (std::filesystem::temp_directory_path() /
         ("absim-trace-mutation-" + std::to_string(::getpid())))
            .string();
    std::filesystem::create_directories(dir);

    // FFT (barriers), RADIX (fetch&add and DepWrite), CG (locks and
    // reductions), CHOLESKY (locks, fetch&add, phases).
    const std::pair<const char *, std::uint64_t> points[] = {
        {"fft", 64}, {"radix", 128}, {"cg", 32}, {"cholesky", 64}};
    constexpr mach::MachineKind kMachines[] = {
        mach::MachineKind::Target, mach::MachineKind::LogP,
        mach::MachineKind::LogPC, mach::MachineKind::TargetIC,
        mach::MachineKind::LogPDir};
    sim::Rng rng(0x7ace2);
    Outcomes total;
    for (const auto &[app, n] : points) {
        SCOPED_TRACE(app);
        core::RunConfig config;
        config.app = app;
        config.params.n = n;
        config.procs = 4;
        config.mode = core::RunMode::Record;
        config.traceDir = dir;
        (void)core::runOne(config);
        const std::string recorded =
            dir + "/" +
            trace::traceFileName(config.app, config.params, config.procs);
        const std::string file = slurp(recorded);
        const std::string body = file.substr(0, file.size() - 8);

        trace::Trace original;
        ASSERT_TRUE(trace::loadTrace(recorded, original));
        const sim::RunBudget budget = replayBudget();
        for (const mach::MachineKind machine : kMachines) {
            trace::ReplaySpec spec;
            spec.machine = machine;
            ASSERT_NO_THROW(trace::replayTrace(original, spec, &budget));
        }
        // Regions: the header line, the setup records (with the first
        // stream's framing), the encoded streams.
        const std::size_t header = body.find('\n') + 1;
        const std::size_t streams = original.streams[0].offset;
        const std::size_t bounds[] = {0, header, streams, body.size()};

        const std::string mutant = dir + "/mutant.abt";
        for (int i = 0; i < kMutantsPerTrace; ++i) {
            const std::size_t region = rng.below(3);
            writeSealed(mutant, mutate(rng, body, bounds[region],
                                       bounds[region + 1]));
            judge(mutant, kMachines[rng.below(std::size(kMachines))],
                  total);
        }
    }
    std::filesystem::remove_all(dir);

    EXPECT_EQ(oversizedRequest.load(), 0u)
        << "a mutant asked for one allocation above " << kAllocCap
        << " bytes";
    // The sweep reaches past the checksum and the header: some mutants
    // load and replay to a profile, others to a named error.
    EXPECT_GT(total.misses, 0);
    EXPECT_GT(total.profiles, 0);
    EXPECT_GT(total.replayErrors, 0);
    std::printf("mutants: %d misses, %d profiles, %d ReplayError, "
                "%d out_of_range, %d budget trips\n",
                total.misses, total.profiles, total.replayErrors,
                total.outOfRange, total.budgetTrips);
}

} // namespace
