/**
 * @file
 * Unit tests for the full-map directory, the block table that stores it,
 * and the LogP parameter helpers.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>
#include <vector>

#include "logp/params.hh"
#include "mem/directory.hh"

namespace {

using namespace absim;

TEST(Directory, EntriesStartEmpty)
{
    mem::Directory dir;
    EXPECT_EQ(dir.peek(3), nullptr);
    auto &entry = dir.entry(3);
    EXPECT_EQ(entry.sharers, 0u);
    EXPECT_EQ(entry.owner, mem::DirectoryEntry::kNoOwner);
    EXPECT_EQ(dir.entryCount(), 1u);
    EXPECT_NE(dir.peek(3), nullptr);
}

TEST(Directory, SharerMaskOps)
{
    mem::DirectoryEntry entry;
    entry.addSharer(0);
    entry.addSharer(5);
    entry.addSharer(63);
    EXPECT_TRUE(entry.isSharer(0));
    EXPECT_TRUE(entry.isSharer(5));
    EXPECT_TRUE(entry.isSharer(63));
    EXPECT_FALSE(entry.isSharer(4));
    EXPECT_EQ(entry.sharerCountExcluding(5), 2u);
    EXPECT_EQ(entry.sharerCountExcluding(4), 3u);
    entry.removeSharer(5);
    EXPECT_FALSE(entry.isSharer(5));
}

TEST(Directory, ReferencesStableAcrossGrowth)
{
    mem::Directory dir;
    auto &first = dir.entry(0);
    first.addSharer(7);
    for (mem::BlockId b = 1; b < 10000; ++b)
        dir.entry(b);
    EXPECT_TRUE(dir.entry(0).isSharer(7));
    EXPECT_EQ(&dir.entry(0), &first);
}

TEST(BlockTable, UntouchedBlockInAllocatedPagePeeksNull)
{
    mem::BlockTable<int> table;
    table.entry(5) = 42;
    EXPECT_EQ(table.pageCount(), 1u);
    // Blocks 4 and 6 share block 5's page but were never referenced.
    EXPECT_EQ(table.peek(4), nullptr);
    EXPECT_EQ(table.peek(6), nullptr);
    ASSERT_NE(table.peek(5), nullptr);
    EXPECT_EQ(*table.peek(5), 42);
    // A block in a page never allocated, and one past the last page.
    EXPECT_EQ(table.peek(mem::BlockTable<int>::kPageBlocks), nullptr);
    EXPECT_EQ(table.peek(~mem::BlockId{0}), nullptr);
    EXPECT_EQ(table.entryCount(), 1u);
    EXPECT_EQ(table.pageCount(), 1u);
}

TEST(BlockTable, ForEachVisitsTrackedBlocksInAscendingOrder)
{
    constexpr mem::BlockId kPage = mem::BlockTable<int>::kPageBlocks;
    const std::vector<mem::BlockId> touched = {
        5 * kPage + 3, 1, kPage - 1, 64, 63, 5 * kPage, 2 * kPage + 65};
    mem::BlockTable<int> table;
    for (const mem::BlockId blk : touched)
        table.entry(blk) = static_cast<int>(blk % 1000);
    table.entry(64); // A second reference adds nothing.

    std::vector<std::pair<mem::BlockId, int>> seen;
    table.forEach([&seen](mem::BlockId blk, const int &value) {
        seen.emplace_back(blk, value);
    });
    std::vector<std::pair<mem::BlockId, int>> expected;
    for (const mem::BlockId blk :
         {mem::BlockId{1}, mem::BlockId{63}, mem::BlockId{64}, kPage - 1,
          2 * kPage + 65, 5 * kPage, 5 * kPage + 3})
        expected.emplace_back(blk, static_cast<int>(blk % 1000));
    EXPECT_EQ(seen, expected);
    EXPECT_EQ(table.entryCount(), touched.size());
    EXPECT_EQ(table.pageCount(), 3u); // Pages 0, 2 and 5.
}

TEST(BlockTable, BlockPastTheLimitIsRefusedWithoutAPage)
{
    // An address a hostile trace could make valid with one giant
    // allocation must not size the page vector.
    mem::Directory dir;
    EXPECT_THROW(dir.entry(mem::Directory::kMaxBlocks), std::out_of_range);
    EXPECT_THROW(dir.entry(~mem::BlockId{0}), std::out_of_range);
    EXPECT_EQ(dir.pageCount(), 0u);
    EXPECT_EQ(dir.entryCount(), 0u);
    dir.entry(mem::Directory::kMaxBlocks - 1).addSharer(3);
    EXPECT_EQ(dir.pageCount(), 1u);
}

// --- LogP g derivation (paper Section 5 closed forms) -------------------

TEST(LogPParams, LIsBlockTransmissionTime)
{
    const auto params = logp::paramsFor(net::TopologyKind::Full, 8);
    EXPECT_EQ(params.l, 1600u); // 32 B at 20 MB/s = 1.6 us.
    EXPECT_EQ(params.o, 0u);
    EXPECT_EQ(params.p, 8u);
}

TEST(LogPParams, FullGapIs3200OverP)
{
    for (const std::uint32_t p : {2u, 4u, 8u, 16u, 32u}) {
        EXPECT_EQ(logp::gapFor(net::TopologyKind::Full, p), 3200u / p)
            << "P=" << p;
    }
}

TEST(LogPParams, CubeGapIs1600)
{
    for (const std::uint32_t p : {2u, 4u, 8u, 16u, 32u, 64u})
        EXPECT_EQ(logp::gapFor(net::TopologyKind::Hypercube, p), 1600u);
}

TEST(LogPParams, MeshGapIs800TimesColumns)
{
    // 4x4 mesh: px = 4.
    EXPECT_EQ(logp::gapFor(net::TopologyKind::Mesh2D, 16), 800u * 4);
    // 4x8 mesh: px = 8.
    EXPECT_EQ(logp::gapFor(net::TopologyKind::Mesh2D, 32), 800u * 8);
    // 2x2.
    EXPECT_EQ(logp::gapFor(net::TopologyKind::Mesh2D, 4), 800u * 2);
}

TEST(LogPParams, SingleNodeHasNoGap)
{
    EXPECT_EQ(logp::gapFor(net::TopologyKind::Full, 1), 0u);
    EXPECT_EQ(logp::gapFor(net::TopologyKind::Mesh2D, 1), 0u);
}

} // namespace
