/**
 * @file
 * The trace capture & replay equivalence suite: a recorded reference
 * stream replayed through any machine must produce the profile the
 * execution-driven simulator produces — bit-identical, including the
 * engine event count (the schedule fingerprint).  Plus the durability
 * contract of the trace store (torn/corrupt files are cache misses,
 * record-on-miss self-primes) and the divergence-report arithmetic.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <unistd.h>

#include "apps/app.hh"
#include "machine_fixture.hh"
#include "core/experiment.hh"
#include "core/figures.hh"
#include "machines/registry.hh"
#include "msg/msg_world.hh"
#include "runtime/context.hh"
#include "runtime/shared.hh"
#include "runtime/sync.hh"
#include "sim/rng.hh"
#include "stats/overheads.hh"
#include "trace_replay/divergence.hh"
#include "trace_replay/format.hh"
#include "trace_replay/recorder.hh"
#include "trace_replay/replay.hh"

namespace {

using namespace absim;

class TempTraceDir
{
  public:
    TempTraceDir()
    {
        dir_ = std::filesystem::temp_directory_path() /
               ("absim-trace-test-" +
                std::to_string(::getpid()) + "-" +
                std::to_string(counter_++));
        std::filesystem::create_directories(dir_);
    }

    ~TempTraceDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(dir_, ec);
    }

    std::string path() const { return dir_.string(); }

  private:
    static inline int counter_ = 0;
    std::filesystem::path dir_;
};

/** Every simulated quantity must match; wallSeconds is host time. */
void
expectProfilesEqual(const stats::Profile &exec, const stats::Profile &rep,
                    const std::string &what)
{
    SCOPED_TRACE(what);
    ASSERT_EQ(exec.procs.size(), rep.procs.size());
    for (std::size_t i = 0; i < exec.procs.size(); ++i) {
        SCOPED_TRACE("proc " + std::to_string(i));
        const stats::ProcStats &e = exec.procs[i];
        const stats::ProcStats &r = rep.procs[i];
        EXPECT_EQ(e.busy, r.busy);
        EXPECT_EQ(e.latency, r.latency);
        EXPECT_EQ(e.contention, r.contention);
        EXPECT_EQ(e.wait, r.wait);
        EXPECT_EQ(e.accesses, r.accesses);
        EXPECT_EQ(e.networkAccesses, r.networkAccesses);
        EXPECT_EQ(e.finishTime, r.finishTime);
    }
    ASSERT_EQ(exec.procPhases.size(), rep.procPhases.size());
    for (std::size_t i = 0; i < exec.procPhases.size(); ++i) {
        ASSERT_EQ(exec.procPhases[i].size(), rep.procPhases[i].size())
            << "proc " << i;
        for (std::size_t p = 0; p < exec.procPhases[i].size(); ++p) {
            SCOPED_TRACE("proc " + std::to_string(i) + " phase " +
                         std::to_string(p));
            const stats::PhaseStats &e = exec.procPhases[i][p];
            const stats::PhaseStats &r = rep.procPhases[i][p];
            EXPECT_EQ(e.name, r.name);
            EXPECT_EQ(e.busy, r.busy);
            EXPECT_EQ(e.latency, r.latency);
            EXPECT_EQ(e.contention, r.contention);
            EXPECT_EQ(e.wait, r.wait);
        }
    }
    for (std::uint32_t b = 0; b < stats::Histogram::kBuckets; ++b)
        EXPECT_EQ(exec.remoteLatency.count(b), rep.remoteLatency.count(b))
            << "histogram bucket " << b;
    EXPECT_EQ(exec.remoteLatency.samples(), rep.remoteLatency.samples());
    EXPECT_EQ(exec.remoteLatency.max(), rep.remoteLatency.max());

    EXPECT_EQ(exec.machine.accesses, rep.machine.accesses);
    EXPECT_EQ(exec.machine.cacheHits, rep.machine.cacheHits);
    EXPECT_EQ(exec.machine.localMem, rep.machine.localMem);
    EXPECT_EQ(exec.machine.networkAccesses, rep.machine.networkAccesses);
    EXPECT_EQ(exec.machine.messages, rep.machine.messages);
    EXPECT_EQ(exec.machine.readMisses, rep.machine.readMisses);
    EXPECT_EQ(exec.machine.writeMisses, rep.machine.writeMisses);
    EXPECT_EQ(exec.machine.upgrades, rep.machine.upgrades);
    EXPECT_EQ(exec.machine.invalidations, rep.machine.invalidations);
    EXPECT_EQ(exec.machine.writebacks, rep.machine.writebacks);
    EXPECT_EQ(exec.machine.memTime, rep.machine.memTime);

    EXPECT_EQ(exec.netModel, rep.netModel);
    EXPECT_EQ(exec.memModel, rep.memModel);
    EXPECT_EQ(exec.engineEvents, rep.engineEvents)
        << "event-schedule fingerprint diverged";
}

core::RunConfig
smallConfig(const std::string &app, std::uint64_t n, std::uint32_t procs,
            mach::MachineKind machine)
{
    core::RunConfig config;
    config.app = app;
    config.params.n = n;
    config.params.seed = 4242;
    config.machine = machine;
    config.topology = net::TopologyKind::Mesh2D;
    config.procs = procs;
    return config;
}

constexpr mach::MachineKind kAllMachines[] = {
    mach::MachineKind::Target, mach::MachineKind::LogP,
    mach::MachineKind::LogPC, mach::MachineKind::TargetIC,
    mach::MachineKind::LogPDir,
};

/** Record on one run, replay the trace, expect identical profiles. */
void
roundTrip(const std::string &app, std::uint64_t n, std::uint32_t procs,
          mach::MachineKind machine,
          mach::ProtocolKind protocol = mach::ProtocolKind::Berkeley)
{
    TempTraceDir dir;
    core::RunConfig config = smallConfig(app, n, procs, machine);
    config.protocol = protocol;
    config.mode = core::RunMode::Record;
    config.traceDir = dir.path();
    const stats::Profile exec = core::runOne(config);

    trace::Trace recorded;
    ASSERT_TRUE(trace::loadTrace(
        dir.path() + "/" +
            trace::traceFileName(config.app, config.params, config.procs),
        recorded));
    ASSERT_TRUE(recorded.replayable) << recorded.untraceableWhy;

    trace::ReplaySpec spec;
    spec.machine = config.machine;
    spec.topology = config.topology;
    spec.gapPolicy = config.gapPolicy;
    spec.cache = config.cache;
    spec.protocol = config.protocol;
    const stats::Profile rep = trace::replayTrace(recorded, spec);

    expectProfilesEqual(exec, rep,
                        app + " x " + mach::toString(machine) + " x " +
                            mach::toString(protocol) + " x p" +
                            std::to_string(procs));
}

TEST(TraceReplay, EpMatchesExecutionOnEveryMachine)
{
    for (const mach::MachineKind machine : kAllMachines)
        roundTrip("ep", 2048, 4, machine);
}

TEST(TraceReplay, IsMatchesExecutionOnEveryMachine)
{
    for (const mach::MachineKind machine : kAllMachines)
        roundTrip("is", 1024, 4, machine);
}

TEST(TraceReplay, SyncHeavyAppsMatchExecution)
{
    // Stencil (barriers every sweep) and CG (locks + reductions)
    // exercise the regenerated synchronization algorithms.
    roundTrip("stencil", 64, 4, mach::MachineKind::Target);
    roundTrip("cg", 64, 4, mach::MachineKind::Target);
    roundTrip("stencil", 64, 4, mach::MachineKind::LogPC);
    roundTrip("cg", 64, 4, mach::MachineKind::LogP);
}

TEST(TraceReplay, ValueStoreAppsMatchExecutionOnEveryMachine)
{
    // The apps whose replay reads the value store: CHOLESKY (locks and
    // fetch&add), RADIX and SYNTHETIC (fetch&add) and FFT (barriers).
    // Each point records on the stack it replays: CHOLESKY's task queue
    // feeds the machine's timing back into its reference stream, so a
    // trace recorded on another stack may legitimately differ.
    for (const mach::MachineKind machine : kAllMachines) {
        roundTrip("cholesky", 64, 8, machine);
        for (const char *app : {"radix", "synthetic", "fft"})
            roundTrip(app, 256, 8, machine);
    }
}

TEST(TraceReplay, EverySpinProtocolMatchesExecutionOnEveryMachine)
{
    // A hand-written program over all four spin protocols, including the
    // plain test&set lock no app uses: replay must regenerate each
    // protocol's spins exactly as execution ran them, on every stack.
    constexpr std::uint32_t kProcs = 4;
    for (const mach::MachineKind machine : kAllMachines) {
        test::MachineHarness h(machine, net::TopologyKind::Mesh2D, kProcs);
        trace::Recorder recorder(kProcs);
        h.heap.bindSink(&recorder);
        h.runtime->bindSink(&recorder);
        rt::SpinLock ts(h.heap, 1, rt::LockKind::TestAndSet);
        rt::SpinLock tts(h.heap, 2, rt::LockKind::TestTestAndSet);
        rt::Barrier barrier(h.heap, kProcs, 3);
        rt::Flag flag(h.heap, 0);
        // One counter per lock, each bumped by a read and a write only
        // its lock makes atomic.
        rt::SharedArray<std::uint64_t> counters(h.heap, 2,
                                                rt::Placement::OnNode, 1);
        counters.raw(0) = 0;
        counters.raw(1) = 0;
        h.run([&](rt::Proc &p) {
            for (int round = 0; round < 3; ++round) {
                for (const std::size_t i : {0, 1}) {
                    rt::SpinLock &lock = i == 0 ? ts : tts;
                    lock.lock(p);
                    const std::uint64_t v = counters.read(p, i);
                    p.compute(20);
                    counters.write(p, i, v + 1);
                    lock.unlock(p);
                }
                barrier.arrive(p);
            }
            if (p.node() == 0) {
                p.compute(5000);
                flag.set(p, 7);
            } else {
                flag.waitFor(p, 7);
            }
            barrier.arrive(p);
        });
        EXPECT_EQ(counters.raw(0), 3u * kProcs);
        EXPECT_EQ(counters.raw(1), 3u * kProcs);
        const stats::Profile exec = h.runtime->collect();

        const trace::Trace recorded = recorder.take("spin", {});
        ASSERT_TRUE(recorded.replayable) << recorded.untraceableWhy;
        trace::ReplaySpec spec;
        spec.machine = machine;
        spec.topology = net::TopologyKind::Mesh2D;
        expectProfilesEqual(exec, trace::replayTrace(recorded, spec),
                            mach::toString(machine));
    }
}

TEST(TraceReplay, EightProcessorsMatch)
{
    roundTrip("ep", 2048, 8, mach::MachineKind::Target);
    roundTrip("is", 1024, 8, mach::MachineKind::LogPDir);
}

TEST(TraceReplay, MsiProtocolMatchesExecution)
{
    // The MSI branches of the read- and write-miss transactions (recall
    // through memory) under both networks the directory composes with.
    for (const mach::MachineKind machine :
         {mach::MachineKind::Target, mach::MachineKind::LogPDir}) {
        roundTrip("is", 1024, 4, machine, mach::ProtocolKind::Msi);
        roundTrip("cg", 64, 4, machine, mach::ProtocolKind::Msi);
    }
}

TEST(TraceReplay, TraceIsMachineIndependent)
{
    // One trace recorded under Target replays correctly on every other
    // machine: against each, the replayed profile equals that machine's
    // own execution-driven profile.
    TempTraceDir dir;
    core::RunConfig config =
        smallConfig("is", 1024, 4, mach::MachineKind::Target);
    config.mode = core::RunMode::Record;
    config.traceDir = dir.path();
    core::runOne(config);

    trace::Trace recorded;
    ASSERT_TRUE(trace::loadTrace(
        dir.path() + "/" +
            trace::traceFileName(config.app, config.params, config.procs),
        recorded));

    for (const mach::MachineKind machine : kAllMachines) {
        core::RunConfig exec_config = config;
        exec_config.mode = core::RunMode::Execute;
        exec_config.machine = machine;
        const stats::Profile exec = core::runOne(exec_config);

        trace::ReplaySpec spec;
        spec.machine = machine;
        spec.topology = config.topology;
        const stats::Profile rep = trace::replayTrace(recorded, spec);
        expectProfilesEqual(exec, rep,
                            "target-recorded trace on " +
                                mach::toString(machine));
    }
}

TEST(TraceReplay, RecordOnMissThenReplayHit)
{
    TempTraceDir dir;
    core::RunConfig config =
        smallConfig("ep", 2048, 4, mach::MachineKind::LogPC);
    const stats::Profile exec = core::runOne(config);

    config.mode = core::RunMode::Replay;
    config.traceDir = dir.path();
    // First call misses: executes, records, returns the executed
    // profile.
    const stats::Profile first = core::runOne(config);
    expectProfilesEqual(exec, first, "record-on-miss execution");
    const std::string path =
        dir.path() + "/" +
        trace::traceFileName(config.app, config.params, config.procs);
    EXPECT_TRUE(std::filesystem::exists(path));

    // Second call replays the recorded trace.
    const stats::Profile second = core::runOne(config);
    expectProfilesEqual(exec, second, "replay hit");
}

TEST(TraceReplay, TornTraceFileIsACacheMiss)
{
    TempTraceDir dir;
    core::RunConfig config =
        smallConfig("ep", 2048, 4, mach::MachineKind::LogPC);
    config.mode = core::RunMode::Record;
    config.traceDir = dir.path();
    const stats::Profile exec = core::runOne(config);

    const std::string path =
        dir.path() + "/" +
        trace::traceFileName(config.app, config.params, config.procs);
    ASSERT_TRUE(std::filesystem::exists(path));

    // Truncate: simulates a crash mid-write that bypassed the atomic
    // rename (e.g. a torn copy).  Must load as false, never garbage.
    const auto full = std::filesystem::file_size(path);
    std::filesystem::resize_file(path, full / 2);
    trace::Trace torn;
    EXPECT_FALSE(trace::loadTrace(path, torn));

    // And the driver treats it as a miss: re-executes and re-records.
    config.mode = core::RunMode::Replay;
    const stats::Profile healed = core::runOne(config);
    expectProfilesEqual(exec, healed, "torn-file record-on-miss");
    trace::Trace reloaded;
    EXPECT_TRUE(trace::loadTrace(path, reloaded));

    // Corrupt one body byte: the checksum catches it.
    {
        std::fstream f(path,
                       std::ios::in | std::ios::out | std::ios::binary);
        f.seekp(static_cast<std::streamoff>(full / 2));
        const char byte = 0x7f;
        f.write(&byte, 1);
    }
    trace::Trace corrupt;
    EXPECT_FALSE(trace::loadTrace(path, corrupt));
}

/** Every op of @p t's stream @p p, decoded. */
std::vector<trace::Op>
decodeStream(const trace::Trace &t, std::size_t p)
{
    trace::StreamReader reader(t.streamBytes(p));
    std::vector<trace::Op> ops(t.streams[p].ops);
    for (trace::Op &op : ops)
        EXPECT_TRUE(reader.next(op));
    EXPECT_TRUE(reader.atEnd());
    return ops;
}

TEST(TraceReplay, FormatRoundTripPreservesEverything)
{
    TempTraceDir dir;
    core::RunConfig config =
        smallConfig("is", 1024, 4, mach::MachineKind::Target);
    config.mode = core::RunMode::Record;
    config.traceDir = dir.path();
    core::runOne(config);

    const std::string path =
        dir.path() + "/" +
        trace::traceFileName(config.app, config.params, config.procs);
    trace::Trace a;
    ASSERT_TRUE(trace::loadTrace(path, a));

    // Save the loaded trace again; the reload must be identical.
    const std::string copy = dir.path() + "/copy.abt";
    trace::saveTrace(a, copy);
    trace::Trace b;
    ASSERT_TRUE(trace::loadTrace(copy, b));

    EXPECT_EQ(a.procs, b.procs);
    EXPECT_EQ(a.replayable, b.replayable);
    EXPECT_EQ(a.app, b.app);
    EXPECT_EQ(a.n, b.n);
    EXPECT_EQ(a.seed, b.seed);
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(a.variant, b.variant);
    EXPECT_EQ(a.phaseNames, b.phaseNames);
    ASSERT_EQ(a.setup.size(), b.setup.size());
    for (std::size_t i = 0; i < a.setup.size(); ++i)
        EXPECT_TRUE(a.setup[i] == b.setup[i]) << "setup op " << i;
    ASSERT_EQ(a.streams.size(), b.streams.size());
    for (std::size_t p = 0; p < a.streams.size(); ++p) {
        const std::vector<trace::Op> aOps = decodeStream(a, p);
        const std::vector<trace::Op> bOps = decodeStream(b, p);
        ASSERT_EQ(aOps.size(), bOps.size()) << "proc " << p;
        for (std::size_t i = 0; i < aOps.size(); ++i)
            EXPECT_TRUE(aOps[i] == bOps[i]) << "proc " << p << " op " << i;
    }
}

/** FNV-1a 64, the trace body checksum (format.cc). */
std::uint64_t
fnv1a64(const std::string &data)
{
    std::uint64_t h = 14695981039346656037ull;
    for (const char c : data) {
        h ^= static_cast<std::uint8_t>(c);
        h *= 1099511628211ull;
    }
    return h;
}

/** The body (header + records, no checksum) of the trace at @p path. */
std::string
readBody(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    const std::string blob((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    return blob.substr(0, blob.size() - 8);
}

/** Write @p body to @p path sealed with a valid checksum. */
void
writeSealed(const std::string &path, std::string body)
{
    const std::uint64_t sum = fnv1a64(body);
    for (unsigned i = 0; i < 8; ++i)
        body += static_cast<char>((sum >> (8 * i)) & 0xff);
    std::ofstream(path, std::ios::binary | std::ios::trunc) << body;
}

/** Save @p trace, replace @p from by @p to in its header, and re-seal
 *  the file: a crafted, checksum-valid file. */
std::string
craftedTrace(const TempTraceDir &dir, const trace::Trace &trace,
             const std::string &from, const std::string &to)
{
    const std::string path = dir.path() + "/crafted.abt";
    trace::saveTrace(trace, path);
    std::string body = readBody(path);
    const std::size_t at = body.find(from);
    EXPECT_LT(at, body.find('\n')) << "no " << from << " in the header";
    body.replace(at, from.size(), to);
    writeSealed(path, body);
    return path;
}

/** A one-processor trace with a setup record and a few ops. */
trace::Trace
tinyTrace()
{
    trace::Trace t;
    t.procs = 1;
    t.app = "tiny";
    trace::SetupOp init;
    init.kind = trace::SetupOp::InitValue;
    init.a = 64;
    init.b = 1;
    t.setup.push_back(init);
    trace::Op compute;
    compute.value = 10;
    trace::encodeStreams(t, {{compute, compute}});
    return t;
}

/** The words replay reads, by brute force over every record. */
std::vector<mem::Addr>
scanValueWords(const trace::Trace &t)
{
    std::set<mem::Addr> words;
    for (const trace::SetupOp &op : t.setup)
        if (op.kind == trace::SetupOp::Barrier)
            words.insert(op.b);
    for (std::size_t p = 0; p < t.streams.size(); ++p)
        for (const trace::Op &op : decodeStream(t, p))
            if (op.kind == trace::OpKind::RmwFetchAdd ||
                op.kind == trace::OpKind::RmwTestAndSet ||
                op.kind == trace::OpKind::SyncLockTS ||
                op.kind == trace::OpKind::SyncLockTTS ||
                op.kind == trace::OpKind::SyncBarrier ||
                op.kind == trace::OpKind::SyncFlagWait)
                words.insert(op.addr);
    return {words.begin(), words.end()};
}

/** Record @p app on a 4-node target the way core::runOne's record
 *  mode binds the recorder, and return Recorder::take's trace. */
trace::Trace
recordTaken(const std::string &app_name, std::uint64_t n)
{
    constexpr std::uint32_t kProcs = 4;
    sim::EventQueue eq;
    rt::SharedHeap heap(kProcs);
    const auto machine =
        mach::makeMachine(mach::MachineKind::Target, eq,
                          net::TopologyKind::Mesh2D, kProcs, heap);
    rt::Runtime runtime(eq, *machine, kProcs);
    trace::Recorder recorder(kProcs);
    heap.bindSink(&recorder);
    runtime.bindSink(&recorder);
    const auto app = apps::makeApp(app_name);
    apps::AppParams params;
    params.n = n;
    params.seed = 4242;
    app->setup(runtime, heap, params);
    runtime.spawn([&app](rt::Proc &p) { app->worker(p); });
    runtime.run();
    return recorder.take(app_name, params);
}

TEST(TraceFormat, RecordedAndLoadedTracesIndexTheSameWords)
{
    // CHOLESKY indexes lock and fetch&add words, FFT barrier count and
    // sense words.
    TempTraceDir dir;
    for (const auto &[app, n] : {std::pair{"cholesky", std::uint64_t{64}},
                                 std::pair{"fft", std::uint64_t{256}}}) {
        SCOPED_TRACE(app);
        const trace::Trace taken = recordTaken(app, n);
        EXPECT_FALSE(taken.valueWords.empty());
        EXPECT_EQ(taken.valueWords, scanValueWords(taken));

        const std::string path = dir.path() + "/" + app + ".abt";
        trace::saveTrace(taken, path);
        trace::Trace loaded;
        ASSERT_TRUE(trace::loadTrace(path, loaded));
        EXPECT_EQ(loaded.valueWords, taken.valueWords);
    }
}

TEST(TraceFormat, VersionOneFileInTheStoreIsARecordOnMiss)
{
    TempTraceDir dir;
    core::RunConfig config =
        smallConfig("ep", 2048, 4, mach::MachineKind::LogPC);
    config.mode = core::RunMode::Record;
    config.traceDir = dir.path();
    const stats::Profile exec = core::runOne(config);
    const std::string name =
        trace::traceFileName(config.app, config.params, config.procs);
    EXPECT_EQ(name.rfind("trace-v2-", 0), 0u) << name;

    // The same file stamped version 1, sealed with a valid checksum.
    const std::string path = dir.path() + "/" + name;
    std::string body = readBody(path);
    const std::size_t at = body.find("\"version\":2");
    ASSERT_LT(at, body.find('\n'));
    body.replace(at, 11, "\"version\":1");
    writeSealed(path, body);
    trace::Trace loaded;
    EXPECT_FALSE(trace::loadTrace(path, loaded));

    // Replay mode executes, re-records as version 2, then replays.
    config.mode = core::RunMode::Replay;
    expectProfilesEqual(exec, core::runOne(config), "v1 file: record");
    ASSERT_TRUE(trace::loadTrace(path, loaded));
    EXPECT_NE(readBody(path).find("\"version\":2"), std::string::npos);
    expectProfilesEqual(exec, core::runOne(config), "re-recorded: replay");
}

TEST(TraceFormat, FftEncodesInAtMostFourBytesPerOp)
{
    // Kind and width share a byte, addresses are per-stream deltas, and
    // only the values replay reads are kept.
    TempTraceDir dir;
    for (const std::uint32_t procs : {1u, 8u}) {
        core::RunConfig config =
            smallConfig("fft", 1024, procs, mach::MachineKind::Target);
        config.mode = core::RunMode::Record;
        config.traceDir = dir.path();
        core::runOne(config);
        const std::string path =
            dir.path() + "/" +
            trace::traceFileName(config.app, config.params, procs);
        trace::Trace loaded;
        ASSERT_TRUE(trace::loadTrace(path, loaded));
        EXPECT_LE(std::filesystem::file_size(path), 4 * loaded.opCount())
            << "P=" << procs;
    }
}

TEST(TraceFormat, OnlyWriteValuesReplayReadsAreKept)
{
    // Word 64 is a value word (a fetch&add reads it), word 128 is not:
    // the plain write to 128 loses its value, the one to 64 keeps it,
    // and a DepWrite, whose slot is only known at replay, always does.
    trace::Trace t;
    t.procs = 1;
    const auto op = [](trace::OpKind kind, mem::Addr addr,
                       std::uint64_t value) {
        trace::Op o;
        o.kind = kind;
        o.bytes = 8;
        o.addr = addr;
        o.value = value;
        return o;
    };
    const std::vector<trace::Op> ops = {
        op(trace::OpKind::RmwFetchAdd, 64, 1),
        op(trace::OpKind::Write, 128, 7),
        op(trace::OpKind::Write, 64, 9),
        op(trace::OpKind::DepWrite, 256, 11),
        op(trace::OpKind::Read, 8, 0),
    };
    trace::encodeStreams(t, {ops});
    EXPECT_EQ(t.valueWords, std::vector<mem::Addr>{64});
    std::vector<trace::Op> expected = ops;
    expected[1].value = 0;
    const std::vector<trace::Op> decoded = decodeStream(t, 0);
    ASSERT_EQ(decoded.size(), expected.size());
    for (std::size_t i = 0; i < decoded.size(); ++i)
        EXPECT_TRUE(decoded[i] == expected[i]) << "op " << i;
}

TEST(TraceFormat, EveryKindWidthAndDeltaRoundTrips)
{
    // Random ops of every kind and width — zero, the powers of two, and
    // widths the op byte cannot code — at aligned, unaligned and
    // far-apart addresses: each decodes as encoded, but for the values
    // the encoder leaves out (they decode as 0).
    sim::Rng rng(99);
    constexpr std::uint8_t kWidths[] = {0, 1, 2, 4, 8, 16, 32, 3, 12, 255};
    std::vector<trace::Op> ops;
    for (int i = 0; i < 5000; ++i) {
        trace::Op op;
        op.kind = static_cast<trace::OpKind>(rng.below(trace::kOpKinds));
        op.bytes = kWidths[rng.below(std::size(kWidths))];
        op.addr = rng.below(4) == 0
                      ? rng.next()
                      : 4096 + 8 * rng.below(1000) + rng.below(2);
        op.value = rng.next() >> rng.below(64);
        switch (op.kind) {
          case trace::OpKind::Phase:
            op.aux = static_cast<std::uint32_t>(rng.below(3));
            op.addr = 0;
            op.value = 0;
            break;
          case trace::OpKind::Compute:
            op.addr = 0;
            break;
          case trace::OpKind::Write:
          case trace::OpKind::RmwFetchAdd:
          case trace::OpKind::DepWrite:
          case trace::OpKind::SyncFlagWait:
            break;
          default:
            op.value = 0; // Kinds that carry no value.
            break;
        }
        ops.push_back(op);
    }
    trace::Trace t;
    t.procs = 1;
    trace::encodeStreams(t, {ops});
    const std::vector<trace::Op> decoded = decodeStream(t, 0);
    ASSERT_EQ(decoded.size(), ops.size());
    for (std::size_t i = 0; i < ops.size(); ++i) {
        trace::Op expected = ops[i];
        if (expected.kind == trace::OpKind::Write &&
            !std::binary_search(t.valueWords.begin(), t.valueWords.end(),
                                expected.addr))
            expected.value = 0;
        EXPECT_TRUE(decoded[i] == expected) << "op " << i;
    }
}

TEST(TraceFormat, CountBeyondTheBodyIsAMissNotAnAllocation)
{
    // FNV-1a is a checksum, not authentication: a crafted header may
    // claim any count.  It must load as a miss, never size a 40 TB
    // reservation (bad_alloc/length_error out of loadTrace).
    TempTraceDir dir;
    trace::Trace loaded;
    EXPECT_FALSE(trace::loadTrace(
        craftedTrace(dir, tinyTrace(), "\"setupOps\":1",
                     "\"setupOps\":1099511627776"),
        loaded));

    // The same for a per-processor op count in the body: the varint
    // count 2 becomes 2^40 (six bytes), the header total to match.
    // (The setup record is 5 bytes; the first stream's count follows.)
    const std::string path = dir.path() + "/count.abt";
    trace::saveTrace(tinyTrace(), path);
    std::string body = readBody(path);
    const std::size_t streams_at = body.find('\n') + 1 + 5;
    ASSERT_EQ(body[streams_at], '\x02');
    body.replace(streams_at, 1, std::string("\x80\x80\x80\x80\x80\x20"));
    writeSealed(path, body);
    EXPECT_FALSE(trace::loadTrace(path, loaded));
}

TEST(TraceFormat, OutOfRangeHeaderIntegersAreAMiss)
{
    // 2^32 + 1 processors must not narrow to a 1-processor trace.
    TempTraceDir dir;
    trace::Trace loaded;
    EXPECT_FALSE(trace::loadTrace(
        craftedTrace(dir, tinyTrace(), "\"procs\":1",
                     "\"procs\":4294967297"),
        loaded));
    EXPECT_FALSE(trace::loadTrace(
        craftedTrace(dir, tinyTrace(), "\"iterations\":0",
                     "\"iterations\":4294967296"),
        loaded));
    // The unmodified file still loads.
    EXPECT_TRUE(trace::loadTrace(
        craftedTrace(dir, tinyTrace(), "\"procs\":1", "\"procs\":1"),
        loaded));
    EXPECT_EQ(loaded.procs, 1u);
}

TEST(TraceFormat, HostileHeaderEscapesAreAMiss)
{
    // The checksum is re-stamped, so only the header reader stands
    // between these bytes and a throw out of loadTrace (a bad \u escape
    // used to reach std::stoul).
    TempTraceDir dir;
    trace::Trace loaded;
    for (const std::string why :
         {"\"why\":\"\\uzzzz\"", "\"why\":\"\\u12\"", "\"why\":\"\\q\"",
          "\"why\":\"\\udc00\"", "\"why\":\"\",\"why\":\"\""})
        EXPECT_FALSE(trace::loadTrace(
            craftedTrace(dir, tinyTrace(), "\"why\":\"\"", why), loaded))
            << why;
    // A well-formed escape still loads, decoded.
    ASSERT_TRUE(trace::loadTrace(craftedTrace(dir, tinyTrace(),
                                              "\"why\":\"\"",
                                              "\"why\":\"\\u0041\\/\""),
                                 loaded));
    EXPECT_EQ(loaded.untraceableWhy, "A/");
}

/** A two-processor trace where processor 0 runs @p op on a word homed
 *  on node 0 (initialized to @p init) and processor 1 does nothing. */
trace::Trace
unsatisfiableTrace(trace::OpKind kind, std::uint64_t init)
{
    trace::Trace t;
    t.procs = 2;
    t.app = "hostile";
    rt::SharedHeap heap(2);
    trace::SetupOp alloc;
    alloc.kind = trace::SetupOp::Alloc;
    alloc.a = 8;
    alloc.b = static_cast<std::uint64_t>(rt::Placement::OnNode);
    alloc.c = 0;
    alloc.d = heap.allocate(8, rt::Placement::OnNode, 0);
    t.setup.push_back(alloc);
    trace::SetupOp value;
    value.kind = trace::SetupOp::InitValue;
    value.a = alloc.d;
    value.b = init;
    t.setup.push_back(value);
    trace::Op wait;
    wait.kind = kind;
    wait.bytes = 8;
    wait.addr = alloc.d;
    wait.value = 1; // A flag value nobody writes.
    trace::encodeStreams(t, {{wait}, {}});
    return t;
}

TEST(TraceReplay, UnsatisfiableSpinIsANamedLivelock)
{
    // The spin hits in the cache forever without dispatching an event,
    // out of any budget's reach; replay must name it, not hang.
    for (const mach::MachineKind machine : kAllMachines) {
        trace::ReplaySpec spec;
        spec.machine = machine;
        for (const auto &[kind, init] :
             {std::pair{trace::OpKind::SyncFlagWait, std::uint64_t{0}},
              std::pair{trace::OpKind::SyncLockTTS, std::uint64_t{1}},
              std::pair{trace::OpKind::SyncLockTS, std::uint64_t{1}}}) {
            SCOPED_TRACE(mach::toString(machine));
            try {
                (void)trace::replayTrace(unsatisfiableTrace(kind, init),
                                         spec);
                ADD_FAILURE() << "expected a replay livelock";
            } catch (const trace::ReplayError &e) {
                EXPECT_NE(std::string(e.what()).find("replay livelock"),
                          std::string::npos)
                    << e.what();
            }
        }
    }
}

TEST(TraceReplay, AddressPastTheHeapIsANamedErrorWithoutAPage)
{
    // A hostile trace reads a word far past the heap's one segment.  The
    // home lookup must refuse it before any per-block state is made for
    // it: a table indexed by block number would otherwise size its page
    // vector by the address.
    constexpr mem::Addr kFar = mem::Addr{1} << 60;
    trace::Trace t;
    t.procs = 2;
    t.app = "hostile";
    trace::SetupOp alloc;
    alloc.kind = trace::SetupOp::Alloc;
    alloc.a = 8;
    alloc.b = static_cast<std::uint64_t>(rt::Placement::OnNode);
    alloc.c = 0;
    alloc.d = rt::SharedHeap(2).allocate(8, rt::Placement::OnNode, 0);
    t.setup.push_back(alloc);
    trace::Op read;
    read.kind = trace::OpKind::Read;
    read.bytes = 8;
    read.addr = kFar;
    trace::encodeStreams(t, {{read}, {}});

    for (const mach::MachineKind machine : kAllMachines) {
        SCOPED_TRACE(mach::toString(machine));
        trace::ReplaySpec spec;
        spec.machine = machine;
        try {
            (void)trace::replayTrace(t, spec);
            ADD_FAILURE() << "expected the replayed read to fail";
        } catch (const std::out_of_range &e) {
            EXPECT_STREQ(e.what(), "address past its segment");
        }

        // The same read executed, where the machine can be inspected.
        test::MachineHarness h(machine, net::TopologyKind::Full, 2);
        (void)h.heap.allocate(8, rt::Placement::OnNode, 0);
        try {
            h.run([](rt::Proc &p) {
                if (p.node() == 0)
                    p.memRead(kFar, 8);
            });
            ADD_FAILURE() << "expected the executed read to fail";
        } catch (const std::out_of_range &e) {
            EXPECT_STREQ(e.what(), "address past its segment");
        }
        mach::MemModel &mem = h.machine->memModel();
        if (auto *dir = dynamic_cast<mach::DirectoryMem *>(&mem)) {
            EXPECT_EQ(dir->directory().pageCount(), 0u);
        }
        if (auto *ideal = dynamic_cast<mach::IdealCacheMem *>(&mem)) {
            EXPECT_EQ(ideal->oracle().pageCount(), 0u);
        }
    }
}

TEST(TraceReplay, UnindexedValueWordIsANamedError)
{
    // Without the index, the flag wait's load must fail loudly and name
    // the word, not read a silent 0.
    trace::Trace t = unsatisfiableTrace(trace::OpKind::SyncFlagWait, 0);
    const std::uint64_t word = decodeStream(t, 0)[0].addr;
    t.valueWords.clear();
    trace::ReplaySpec spec;
    try {
        (void)trace::replayTrace(t, spec);
        ADD_FAILURE() << "expected an unindexed-word error";
    } catch (const trace::ReplayError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("not indexed"), std::string::npos) << what;
        EXPECT_NE(what.find(std::to_string(word)), std::string::npos)
            << what;
    }
}

TEST(TraceReplay, MessagePassingRunsRecordAsNonReplayable)
{
    // Message-passing programs run outside the shared-memory driver
    // (a registry row's network model + MsgWorld); a recorder observing
    // such a run must mark the trace non-replayable at the first
    // send/recv.
    sim::EventQueue eq;
    rt::SharedHeap heap(2);
    const auto machine = mach::makeMachine(mach::MachineKind::LogP, eq,
                                           net::TopologyKind::Full, 2, heap);
    msg::MsgWorld world(eq, machine->netModel(), 2);
    rt::Runtime runtime(eq, *machine, 2);

    trace::Recorder recorder(2);
    heap.bindSink(&recorder);
    runtime.bindSink(&recorder);
    runtime.spawn([&world](rt::Proc &p) {
        if (p.node() == 0)
            world.sendValue<std::uint64_t>(p, 1, 7, 0xABCD);
        else
            world.recvValue<std::uint64_t>(p, 0, 7);
    });
    runtime.run();

    apps::AppParams params;
    const trace::Trace recorded = recorder.take("msg-smoke", params);
    EXPECT_FALSE(recorded.replayable);
    EXPECT_FALSE(recorded.untraceableWhy.empty());
    trace::ReplaySpec spec;
    EXPECT_THROW(trace::replayTrace(recorded, spec), trace::ReplayError);

    // And a non-replayable trace in the store makes Replay mode fall
    // back to plain execution (exercised through saveTrace/loadTrace).
    TempTraceDir dir;
    trace::saveTrace(recorded, dir.path() + "/fallback.abt");
    trace::Trace reloaded;
    ASSERT_TRUE(trace::loadTrace(dir.path() + "/fallback.abt", reloaded));
    EXPECT_FALSE(reloaded.replayable);
    EXPECT_EQ(reloaded.untraceableWhy, recorded.untraceableWhy);
}

TEST(TraceReplay, ReplaySpeedupIsReal)
{
    // The whole point: replay must be much cheaper than execution.
    // This asserts only a conservative > 1x here (CI noise); the
    // committed benchmark baseline (bench/baselines/BENCH_replay.json)
    // pins the sweep-level speedup.
    TempTraceDir dir;
    core::RunConfig config =
        smallConfig("ep", 65536, 8, mach::MachineKind::Target);
    config.mode = core::RunMode::Record;
    config.traceDir = dir.path();
    const stats::Profile exec = core::runOne(config);

    config.mode = core::RunMode::Replay;
    const stats::Profile rep = core::runOne(config);
    expectProfilesEqual(exec, rep, "speedup run equivalence");
    EXPECT_LT(rep.wallSeconds, exec.wallSeconds);
}

TEST(TraceReplay, ReplayedFigureJsonIsByteIdentical)
{
    // The figure-level contract: a replayed sweep's JSON document is
    // byte-for-byte the execution-driven one (EP and IS latency
    // figures — the timing-feedback-negligible class).
    for (const std::string app : {"ep", "is"}) {
        TempTraceDir dir;
        core::RunConfig base;
        base.app = app;
        base.params.n = app == "ep" ? 2048 : 1024;
        base.params.seed = 4242;
        const std::vector<std::uint32_t> procs = {2, 4, 8};
        core::SweepOptions options;

        const core::SweepResult exec = core::sweepFigureSafe(
            "replay-pin " + app, base, net::TopologyKind::Full,
            core::Metric::Latency, procs, options);
        ASSERT_TRUE(exec.complete());

        base.mode = core::RunMode::Replay;
        base.traceDir = dir.path();
        // First replay sweep records on miss, second replays from the
        // trace store; both must serialize identically.
        for (int round = 0; round < 2; ++round) {
            const core::SweepResult rep = core::sweepFigureSafe(
                "replay-pin " + app, base, net::TopologyKind::Full,
                core::Metric::Latency, procs, options);
            ASSERT_TRUE(rep.complete());
            std::ostringstream exec_json;
            std::ostringstream rep_json;
            core::writeFigureJson(exec_json, exec);
            core::writeFigureJson(rep_json, rep);
            EXPECT_EQ(exec_json.str(), rep_json.str())
                << app << " round " << round;

            const trace::DivergenceReport report =
                core::compareFigures(exec.figure, rep.figure);
            EXPECT_TRUE(report.identical) << app << " round " << round;
            EXPECT_EQ(report.points.size(), procs.size() * 3);
        }
    }
}

TEST(DivergenceReport, AggregatesAndSerializes)
{
    trace::DivergenceReport report;
    report.figure = "fig16_radix_feedback";
    report.metric = "total_time";
    report.add("target", 4, 100.0, 100.0);
    report.add("logpc", 4, 200.0, 190.0);
    report.add("logp", 8, 0.0, 0.5); // Zero executed: epsilon guard.
    report.finalize();

    EXPECT_FALSE(report.identical);
    EXPECT_DOUBLE_EQ(report.maxAbs, 10.0);
    EXPECT_DOUBLE_EQ(report.meanAbs, 10.5 / 3.0);
    // The zero-executed point's relative delta is huge but finite.
    EXPECT_TRUE(std::isfinite(report.maxRel));
    EXPECT_GT(report.maxRel, 1.0);

    const std::string json = trace::toJson(report);
    EXPECT_NE(json.find("\"format\":\"absim-divergence\""),
              std::string::npos);
    EXPECT_NE(json.find("\"identical\":false"), std::string::npos);
    EXPECT_NE(json.find("\"column\":\"logpc\""), std::string::npos);
    EXPECT_EQ(json.back(), '\n');

    trace::DivergenceReport clean;
    clean.figure = "fig";
    clean.metric = "m";
    clean.add("target", 4, 7.0, 7.0);
    clean.finalize();
    EXPECT_TRUE(clean.identical);
    EXPECT_DOUBLE_EQ(clean.maxAbs, 0.0);
}

} // namespace
