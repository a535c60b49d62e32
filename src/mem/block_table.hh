/**
 * @file
 * Per-block state indexed by block number: the storage behind the
 * full-map directory and the ideal cache's coherence oracle.
 *
 * The shared heap is one contiguous range from its base address, so the
 * block ids a run touches are dense.  The table therefore needs no
 * hashing: entries live in fixed-size pages, a page is allocated the
 * first time one of its blocks is referenced, and a block's entry is
 * two indexing steps away.  A page never moves, so a reference to an
 * entry stays valid for the table's lifetime (a directory transaction
 * holds its entry, and waits on the entry's lock, across simulated
 * time).
 */

#ifndef ABSIM_MEM_BLOCK_TABLE_HH
#define ABSIM_MEM_BLOCK_TABLE_HH

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "mem/addr.hh"

namespace absim::mem {

template <typename T>
class BlockTable
{
  public:
    static constexpr unsigned kPageShift = 9;
    static constexpr std::size_t kPageBlocks = std::size_t{1} << kPageShift;

    /** Blocks past this bound are refused instead of indexed: 2^29
     *  blocks span 16 GiB of shared memory, and the page vector that
     *  covers them stays under 8 MB. */
    static constexpr BlockId kMaxBlocks = BlockId{1} << 29;

    BlockTable() = default;
    BlockTable(const BlockTable &) = delete;
    BlockTable &operator=(const BlockTable &) = delete;

    /**
     * Entry for @p blk, value-initialized if the block was never
     * referenced.
     * @throws std::out_of_range if @p blk is not below kMaxBlocks.
     */
    T &
    entry(BlockId blk)
    {
        const std::size_t p = static_cast<std::size_t>(blk >> kPageShift);
        Page *page = p < pages_.size() ? pages_[p].get() : nullptr;
        if (page == nullptr) [[unlikely]]
            page = addPage(blk);
        const std::size_t i = blk & (kPageBlocks - 1);
        std::uint64_t &word = page->tracked[i / 64];
        const std::uint64_t bit = std::uint64_t{1} << (i % 64);
        if ((word & bit) == 0) [[unlikely]] {
            word |= bit;
            ++size_;
        }
        return page->entries[i];
    }

    /** Entry for @p blk, or null if it was never referenced. */
    const T *
    peek(BlockId blk) const
    {
        const BlockId p = blk >> kPageShift;
        if (p >= pages_.size() || pages_[p] == nullptr)
            return nullptr;
        const Page &page = *pages_[p];
        const std::size_t i = blk & (kPageBlocks - 1);
        if (((page.tracked[i / 64] >> (i % 64)) & 1u) == 0)
            return nullptr;
        return &page.entries[i];
    }

    /** Blocks referenced so far. */
    std::size_t entryCount() const { return size_; }

    /** Pages allocated so far. */
    std::size_t
    pageCount() const
    {
        return static_cast<std::size_t>(
            std::count_if(pages_.begin(), pages_.end(),
                          [](const auto &page) { return page != nullptr; }));
    }

    /** Call @p fn(blk, entry) for every referenced block, in ascending
     *  block order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (std::size_t p = 0; p < pages_.size(); ++p) {
            if (pages_[p] == nullptr)
                continue;
            const Page &page = *pages_[p];
            for (std::size_t w = 0; w < kWords; ++w) {
                for (std::uint64_t bits = page.tracked[w]; bits != 0;
                     bits &= bits - 1) {
                    const std::size_t i =
                        w * 64 +
                        static_cast<std::size_t>(std::countr_zero(bits));
                    fn((BlockId{p} << kPageShift) | i, page.entries[i]);
                }
            }
        }
    }

  private:
    static constexpr std::size_t kWords = kPageBlocks / 64;

    struct Page
    {
        T entries[kPageBlocks]{};
        std::uint64_t tracked[kWords]{}; ///< Bit i: entries[i] referenced.
    };

    Page *
    addPage(BlockId blk)
    {
        if (blk >= kMaxBlocks)
            throw std::out_of_range("block " + std::to_string(blk) +
                                    " past the block table's " +
                                    std::to_string(kMaxBlocks) +
                                    "-block limit");
        const std::size_t p = static_cast<std::size_t>(blk >> kPageShift);
        if (p >= pages_.size())
            pages_.resize(p + 1);
        pages_[p] = std::make_unique<Page>();
        return pages_[p].get();
    }

    std::vector<std::unique_ptr<Page>> pages_;
    std::size_t size_ = 0;
};

} // namespace absim::mem

#endif // ABSIM_MEM_BLOCK_TABLE_HH
