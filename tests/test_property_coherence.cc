/**
 * @file
 * Randomized property tests over the coherence machinery.
 *
 * A random mix of reads, writes and RMWs runs on all three machine
 * characterizations; afterwards we assert
 *   (a) value correctness: commutative RMW increments lose no updates
 *       and all machines agree with the native count,
 *   (b) the Berkeley/directory invariants on the target machine: single
 *       owner, owner state matches the directory, every resident line is
 *       a registered sharer,
 *   (c) LogP+C's ideal caches respect the same single-writer invariant.
 *
 * Each seed is a separate parameterized test case.
 */

#include <gtest/gtest.h>

#include <map>

#include "machine_fixture.hh"
#include "mem/addr.hh"
#include "sim/rng.hh"

namespace {

using namespace absim;
using absim::test::MachineHarness;
using mach::MachineKind;
using mem::LineState;
using net::TopologyKind;

constexpr std::uint32_t kProcs = 4;
constexpr std::size_t kWords = 96;
constexpr int kOpsPerProc = 200;

/** Random workload: per-address increment counts for validation. */
struct Workload
{
    explicit Workload(std::uint64_t seed)
    {
        expected.assign(kWords, 0);
        sim::Rng plan(seed);
        for (std::uint32_t proc = 0; proc < kProcs; ++proc) {
            for (int i = 0; i < kOpsPerProc; ++i) {
                Op op;
                op.kind = static_cast<int>(plan.below(3));
                // Increments live in the lower half of the address
                // space, plain writes in the upper half: a plain write's
                // value is captured at issue time, so racing it with
                // increments on the same word would (correctly, under
                // SC) lose increments and break the tally.
                if (op.kind == 1)
                    op.addr = kWords / 2 + plan.below(kWords / 2);
                else
                    op.addr = plan.below(kWords / 2);
                op.compute = plan.below(40);
                ops[proc].push_back(op);
                if (op.kind == 2)
                    ++expected[op.addr];
            }
        }
    }

    struct Op
    {
        std::size_t addr;
        int kind; // 0 = read, 1 = write(0x55), 2 = rmw increment.
        std::uint64_t compute;
    };

    std::vector<Op> ops[kProcs];
    std::vector<std::uint64_t> expected;
};

void
runWorkload(MachineHarness &h, rt::SharedArray<std::uint64_t> &words,
            const Workload &load)
{
    h.run([&](rt::Proc &p) {
        for (const auto &op : load.ops[p.node()]) {
            switch (op.kind) {
              case 0:
                words.read(p, op.addr);
                break;
              case 1:
                words.write(p, op.addr, 0x55);
                break;
              default:
                words.fetchAdd(p, op.addr, 1);
            }
            p.compute(op.compute);
        }
    });
}

class CoherenceProperty : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(CoherenceProperty, AllMachinesCountAllIncrements)
{
    const Workload load(GetParam());
    for (const auto kind : {MachineKind::Target, MachineKind::LogP,
                            MachineKind::LogPC}) {
        MachineHarness h(kind, TopologyKind::Mesh2D, kProcs);
        rt::SharedArray<std::uint64_t> words(h.heap, kWords,
                                             rt::Placement::Interleaved);
        for (std::size_t i = 0; i < kWords; ++i)
            words.raw(i) = 0;
        runWorkload(h, words, load);
        for (std::size_t i = 0; i < kWords / 2; ++i)
            ASSERT_EQ(words.raw(i), load.expected[i])
                << mach::toString(kind) << " word " << i;
    }
}

TEST_P(CoherenceProperty, MsiProtocolCountsAllIncrementsToo)
{
    const Workload load(GetParam());
    MachineHarness h(MachineKind::Target, TopologyKind::Mesh2D, kProcs,
                     logp::GapPolicy::Single, {},
                     mach::ProtocolKind::Msi);
    rt::SharedArray<std::uint64_t> words(h.heap, kWords,
                                         rt::Placement::Interleaved);
    for (std::size_t i = 0; i < kWords; ++i)
        words.raw(i) = 0;
    runWorkload(h, words, load);
    for (std::size_t i = 0; i < kWords / 2; ++i)
        ASSERT_EQ(words.raw(i), load.expected[i]) << "word " << i;
    // MSI never leaves an owner after reads settle it... but at drain an
    // owner may legitimately remain; just assert single-owner.
    const auto &machine = h.target();
    for (std::size_t i = 0; i < kWords; ++i) {
        const auto blk = mem::blockOf(words.addrOf(i));
        const auto *entry = machine.directory().peek(blk);
        if (entry == nullptr || entry->owner < 0)
            continue;
        EXPECT_TRUE(mem::isOwned(
            machine.cache(static_cast<net::NodeId>(entry->owner))
                .stateOf(blk)));
    }
}

TEST_P(CoherenceProperty, TargetDirectoryInvariantsHold)
{
    const Workload load(GetParam());
    MachineHarness h(MachineKind::Target, TopologyKind::Hypercube, kProcs);
    rt::SharedArray<std::uint64_t> words(h.heap, kWords,
                                         rt::Placement::Interleaved);
    for (std::size_t i = 0; i < kWords; ++i)
        words.raw(i) = 0;
    runWorkload(h, words, load);

    const auto &machine = h.target();
    std::map<mem::BlockId, std::uint32_t> owners_seen;
    for (std::uint32_t n = 0; n < kProcs; ++n) {
        for (const auto &[blk, state] : machine.cache(n).residentLines()) {
            const auto *entry = machine.directory().peek(blk);
            ASSERT_NE(entry, nullptr) << "resident line unknown to dir";
            EXPECT_TRUE(entry->isSharer(n))
                << "node " << n << " holds block " << blk
                << " without a sharer bit";
            if (mem::isOwned(state)) {
                EXPECT_EQ(entry->owner, static_cast<std::int32_t>(n));
                EXPECT_EQ(owners_seen.count(blk), 0u)
                    << "two owners for block " << blk;
                owners_seen[blk] = n;
            }
        }
    }
    // Inverse direction: a registered owner must hold an owned line.
    for (std::size_t i = 0; i < kWords; ++i) {
        const auto blk = mem::blockOf(words.addrOf(i));
        const auto *entry = machine.directory().peek(blk);
        if (entry == nullptr || entry->owner < 0)
            continue;
        const auto state = machine
                               .cache(static_cast<net::NodeId>(
                                   entry->owner))
                               .stateOf(blk);
        EXPECT_TRUE(mem::isOwned(state))
            << "directory owner without owned line, block " << blk;
    }
}

TEST_P(CoherenceProperty, IdealCacheSingleWriterInvariant)
{
    const Workload load(GetParam());
    MachineHarness h(MachineKind::LogPC, TopologyKind::Full, kProcs);
    rt::SharedArray<std::uint64_t> words(h.heap, kWords,
                                         rt::Placement::Interleaved);
    for (std::size_t i = 0; i < kWords; ++i)
        words.raw(i) = 0;
    runWorkload(h, words, load);

    // A Dirty line anywhere must be the block's only resident copy.
    std::map<mem::BlockId, int> copies, dirty;
    for (std::uint32_t n = 0; n < kProcs; ++n) {
        for (const auto &[blk, state] : h.logpc().cache(n).residentLines()) {
            ++copies[blk];
            if (state == LineState::Dirty)
                ++dirty[blk];
        }
    }
    for (const auto &[blk, d] : dirty) {
        EXPECT_EQ(d, 1) << "block " << blk;
        EXPECT_EQ(copies[blk], 1)
            << "Dirty block " << blk << " has other copies";
    }
}

TEST_P(CoherenceProperty, DeterministicEventCounts)
{
    const Workload load(GetParam());
    std::uint64_t events[2];
    for (int round = 0; round < 2; ++round) {
        MachineHarness h(MachineKind::Target, TopologyKind::Mesh2D,
                         kProcs);
        rt::SharedArray<std::uint64_t> words(h.heap, kWords,
                                             rt::Placement::Interleaved);
        for (std::size_t i = 0; i < kWords; ++i)
            words.raw(i) = 0;
        runWorkload(h, words, load);
        events[round] = h.eq.dispatched();
    }
    EXPECT_EQ(events[0], events[1]);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoherenceProperty,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u,
                                           34u));

} // namespace
