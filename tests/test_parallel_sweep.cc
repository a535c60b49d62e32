/**
 * @file
 * Tests for the parallel sweep engine: core::runManySafe and
 * core::sweepFigureSafe.  The headline guarantee under test is
 * determinism — any --jobs value must produce byte-identical figure
 * JSON and journal contents to the serial sweep, and journal resume
 * must compose with parallel execution.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>

#include "core/figures.hh"
#include "core/journal_merge.hh"

namespace {

using namespace absim;

core::RunConfig
smallConfig(std::uint32_t procs)
{
    core::RunConfig config;
    config.app = "is";
    config.params.n = 512;
    config.procs = procs;
    return config;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

std::string
jsonFor(const core::SweepResult &result)
{
    std::ostringstream os;
    core::writeFigureJson(os, result);
    return os.str();
}

TEST(RunManySafe, ParallelResultsMatchSerialInConfigOrder)
{
    std::vector<core::RunConfig> configs;
    for (const std::uint32_t p : {1u, 2u, 4u, 1u, 2u, 4u})
        configs.push_back(smallConfig(p));
    configs[3].machine = mach::MachineKind::LogP;
    configs[4].machine = mach::MachineKind::LogPC;

    const auto serial = core::runManySafe(configs, {}, 1);
    const auto parallel = core::runManySafe(configs, {}, 4);
    ASSERT_EQ(serial.size(), configs.size());
    ASSERT_EQ(parallel.size(), configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
        ASSERT_TRUE(serial[i].ok()) << i;
        ASSERT_TRUE(parallel[i].ok()) << i;
        EXPECT_EQ(serial[i].value().execTime(),
                  parallel[i].value().execTime())
            << i;
        EXPECT_EQ(serial[i].value().machine.messages,
                  parallel[i].value().machine.messages)
            << i;
    }
}

TEST(RunManySafe, CallbackFiresExactlyOncePerIndexSerialized)
{
    std::vector<core::RunConfig> configs;
    for (const std::uint32_t p : {1u, 2u, 4u, 8u})
        configs.push_back(smallConfig(p));

    std::set<std::size_t> seen;
    std::atomic<int> in_callback{0};
    const auto results = core::runManySafe(
        configs, {}, 4, [&](std::size_t i, const core::RunResult &run) {
            // The callback contract: serialized under a mutex.
            EXPECT_EQ(in_callback.fetch_add(1), 0);
            EXPECT_TRUE(run.ok());
            EXPECT_TRUE(seen.insert(i).second) << "duplicate " << i;
            in_callback.fetch_sub(1);
        });
    EXPECT_EQ(results.size(), configs.size());
    EXPECT_EQ(seen.size(), configs.size());
}

TEST(RunManySafe, JobsZeroRunsSerially)
{
    const auto results =
        core::runManySafe({smallConfig(2)}, {}, 0);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_TRUE(results[0].ok());
}

TEST(ParallelSweep, ByteIdenticalJsonAndJournalAcrossJobCounts)
{
    const core::RunConfig base = smallConfig(1);
    const std::vector<std::uint32_t> procs{1, 2, 4, 8};

    core::SweepOptions serial_options;
    serial_options.jobs = 1;
    serial_options.journalPath =
        testing::TempDir() + "parallel_sweep_serial.journal.jsonl";
    std::remove(serial_options.journalPath.c_str());
    const auto serial = core::sweepFigureSafe(
        "determinism", base, net::TopologyKind::Full,
        core::Metric::ExecTime, procs, serial_options);

    core::SweepOptions parallel_options;
    parallel_options.jobs = 8;
    parallel_options.journalPath =
        testing::TempDir() + "parallel_sweep_jobs8.journal.jsonl";
    std::remove(parallel_options.journalPath.c_str());
    const auto parallel = core::sweepFigureSafe(
        "determinism", base, net::TopologyKind::Full,
        core::Metric::ExecTime, procs, parallel_options);

    ASSERT_TRUE(serial.complete());
    ASSERT_TRUE(parallel.complete());
    EXPECT_EQ(jsonFor(serial), jsonFor(parallel));
    const std::string serial_journal = slurp(serial_options.journalPath);
    EXPECT_FALSE(serial_journal.empty());
    EXPECT_EQ(serial_journal, slurp(parallel_options.journalPath));
}

TEST(ParallelSweep, JournalResumeComposesWithParallelExecution)
{
    const core::RunConfig base = smallConfig(1);
    const std::vector<std::uint32_t> all{1, 2, 4, 8};

    // Reference: one uninterrupted serial sweep.
    core::SweepOptions reference_options;
    reference_options.journalPath =
        testing::TempDir() + "parallel_resume_reference.journal.jsonl";
    std::remove(reference_options.journalPath.c_str());
    const auto reference = core::sweepFigureSafe(
        "resume", base, net::TopologyKind::Full, core::Metric::ExecTime,
        all, reference_options);

    // Interrupted run: the first two points land in the journal...
    core::SweepOptions resumed_options;
    resumed_options.journalPath =
        testing::TempDir() + "parallel_resume.journal.jsonl";
    std::remove(resumed_options.journalPath.c_str());
    (void)core::sweepFigureSafe("resume", base, net::TopologyKind::Full,
                                core::Metric::ExecTime, {1, 2},
                                resumed_options);

    // ...and a parallel re-run completes the rest from the checkpoint.
    resumed_options.jobs = 8;
    const auto resumed = core::sweepFigureSafe(
        "resume", base, net::TopologyKind::Full, core::Metric::ExecTime,
        all, resumed_options);

    ASSERT_TRUE(reference.complete());
    ASSERT_TRUE(resumed.complete());
    EXPECT_EQ(jsonFor(reference), jsonFor(resumed));
    EXPECT_EQ(slurp(reference_options.journalPath),
              slurp(resumed_options.journalPath));
}

// ---- Sharded sweeps ----------------------------------------------------

namespace {

/** Run shard K/N of the sweep into its own journal; returns the path. */
std::string
runShard(const std::string &tag, const core::RunConfig &base,
         const std::vector<std::uint32_t> &procs, std::uint32_t index,
         std::uint32_t count, const core::RunPolicy &policy = {})
{
    core::SweepOptions options;
    options.policy = policy;
    options.shard = {index, count};
    options.journalPath = testing::TempDir() + tag + ".shard" +
                          std::to_string(index) + "of" +
                          std::to_string(count) + ".journal.jsonl";
    std::remove(options.journalPath.c_str());
    (void)core::sweepFigureSafe(tag, base, net::TopologyKind::Full,
                                core::Metric::ExecTime, procs, options);
    return options.journalPath;
}

/** Serial reference sweep journaling into <tag>.journal.jsonl. */
core::SweepResult
runSerial(const std::string &tag, const core::RunConfig &base,
          const std::vector<std::uint32_t> &procs, std::string &path,
          const core::RunPolicy &policy = {})
{
    core::SweepOptions options;
    options.policy = policy;
    options.journalPath = testing::TempDir() + tag + ".journal.jsonl";
    std::remove(options.journalPath.c_str());
    path = options.journalPath;
    return core::sweepFigureSafe(tag, base, net::TopologyKind::Full,
                                 core::Metric::ExecTime, procs, options);
}

} // namespace

TEST(ShardedSweep, TwoShardsMergeByteIdenticalToSerial)
{
    const core::RunConfig base = smallConfig(1);
    const std::vector<std::uint32_t> procs{1, 2, 4, 8};

    std::string serial_path;
    const auto serial =
        runSerial("sharded", base, procs, serial_path);
    ASSERT_TRUE(serial.complete());

    const std::string s0 = runShard("sharded", base, procs, 0, 2);
    const std::string s1 = runShard("sharded", base, procs, 1, 2);

    const core::MergeResult merge = core::mergeJournals({s0, s1});
    ASSERT_TRUE(merge.ok()) << (merge.errors.empty()
                                    ? ""
                                    : merge.errors[0]);
    const std::string merged_path =
        testing::TempDir() + "sharded_merged.journal.jsonl";
    ASSERT_TRUE(core::writeMergedJournal(merged_path, merge));
    EXPECT_EQ(slurp(merged_path), slurp(serial_path));

    // Replaying the merged journal reproduces the serial run end to
    // end: every point comes from the journal, and the figure JSON —
    // the artifact the figure writers emit — is byte-identical.
    core::SweepOptions replay_options;
    replay_options.journalPath = merged_path;
    const auto replayed = core::sweepFigureSafe(
        "sharded", base, net::TopologyKind::Full, core::Metric::ExecTime,
        procs, replay_options);
    ASSERT_TRUE(replayed.complete());
    EXPECT_EQ(jsonFor(serial), jsonFor(replayed));
    EXPECT_EQ(slurp(merged_path), slurp(serial_path));
}

TEST(ShardedSweep, ShardResumeComposesWithMerge)
{
    const core::RunConfig base = smallConfig(1);
    const std::vector<std::uint32_t> procs{1, 2, 4, 8};

    std::string serial_path;
    const auto serial =
        runSerial("shard_resume", base, procs, serial_path);
    ASSERT_TRUE(serial.complete());

    // Shard 0 is interrupted twice: first it only sees a truncated
    // proc list (fewer owned items), then its journal tail is torn.
    const std::string s0_partial =
        runShard("shard_resume", base, {1, 2}, 0, 2);
    {
        std::string bytes = slurp(s0_partial);
        ASSERT_GT(bytes.size(), 5u);
        std::ofstream out(s0_partial,
                          std::ios::trunc | std::ios::binary);
        out << bytes.substr(0, bytes.size() - 5);
    }
    const std::string s0 = runShard("shard_resume", base, procs, 0, 2);
    ASSERT_EQ(s0, s0_partial);
    const std::string s1 = runShard("shard_resume", base, procs, 1, 2);

    const core::MergeResult merge = core::mergeJournals({s0, s1});
    ASSERT_TRUE(merge.ok()) << (merge.errors.empty()
                                    ? ""
                                    : merge.errors[0]);
    const std::string merged_path =
        testing::TempDir() + "shard_resume_merged.journal.jsonl";
    ASSERT_TRUE(core::writeMergedJournal(merged_path, merge));
    EXPECT_EQ(slurp(merged_path), slurp(serial_path));
}

TEST(ShardedSweep, MergeReproducesSerialFailureRecords)
{
    const core::RunConfig base = smallConfig(1);
    const std::vector<std::uint32_t> procs{1, 2, 4};

    // A tiny event budget fails the big points the same way in the
    // serial run and in every shard (the budget is per run).
    core::RunPolicy policy;
    policy.budget.maxEvents = 300;
    policy.maxAttempts = 1;

    std::string serial_path;
    const auto serial =
        runSerial("shard_fail", base, procs, serial_path, policy);
    ASSERT_FALSE(serial.complete());

    const std::string s0 =
        runShard("shard_fail", base, procs, 0, 2, policy);
    const std::string s1 =
        runShard("shard_fail", base, procs, 1, 2, policy);

    const core::MergeResult merge = core::mergeJournals({s0, s1});
    ASSERT_TRUE(merge.ok()) << (merge.errors.empty()
                                    ? ""
                                    : merge.errors[0]);
    const std::string merged_path =
        testing::TempDir() + "shard_fail_merged.journal.jsonl";
    ASSERT_TRUE(core::writeMergedJournal(merged_path, merge));
    EXPECT_EQ(slurp(merged_path), slurp(serial_path));
}

TEST(ShardedSweep, InvalidShardSpecThrows)
{
    core::SweepOptions options;
    options.shard = {2, 2};
    EXPECT_THROW((void)core::sweepFigureSafe(
                     "bad", smallConfig(1), net::TopologyKind::Full,
                     core::Metric::ExecTime, {1}, options),
                 std::invalid_argument);
}

} // namespace
