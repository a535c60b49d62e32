#include "runtime/shared.hh"

#include <algorithm>
#include <stdexcept>

#include "check/check.hh"

namespace absim::rt {

namespace {

/** Round @p x up to a multiple of the cache-block size. */
std::uint64_t
blockAlign(std::uint64_t x)
{
    return (x + mem::kBlockBytes - 1) & ~std::uint64_t{mem::kBlockBytes - 1};
}

// Leave address 0 unused so that a zero Addr is recognizably "null".
constexpr mem::Addr kHeapBase = mem::kBlockBytes;

} // namespace

SharedHeap::SharedHeap(std::uint32_t nodes)
    : nodes_(nodes), next_(kHeapBase)
{
    ABSIM_CHECK(nodes >= 1 && nodes <= mem::kMaxNodes,
                "heap for " << nodes << " nodes (must be 1.."
                            << mem::kMaxNodes << ")");
}

mem::Addr
SharedHeap::allocate(std::uint64_t bytes, Placement placement,
                     net::NodeId node)
{
    if (bytes == 0)
        throw std::invalid_argument("empty shared allocation");
    if (node >= nodes_)
        throw std::invalid_argument("placement node out of range");

    Segment seg;
    seg.base = next_;
    seg.placement = placement;
    seg.node = node;

    // Round the extent so every segment starts block-aligned and, for
    // Blocked placement, every node's chunk is block-aligned too.
    seg.chunk = blockAlign((bytes + nodes_ - 1) / nodes_);
    if (placement == Placement::Blocked)
        seg.bytes = seg.chunk * nodes_;
    else
        seg.bytes = blockAlign(bytes);

    next_ += seg.bytes;
    segments_.push_back(seg);
    if (sink_ != nullptr) [[unlikely]]
        sink_->onAlloc(seg.base, bytes,
                       static_cast<std::uint8_t>(placement), node);
    return seg.base;
}

net::NodeId
SharedHeap::homeOf(mem::Addr a) const
{
    if (lastHit_ >= segments_.size() || a < segments_[lastHit_].base ||
        a >= segments_[lastHit_].base + segments_[lastHit_].bytes) {
        // Segments are appended in increasing base order: binary search.
        auto it = std::upper_bound(
            segments_.begin(), segments_.end(), a,
            [](mem::Addr addr, const Segment &s) { return addr < s.base; });
        if (it == segments_.begin())
            throw std::out_of_range("address below the shared heap");
        if (a >= std::prev(it)->base + std::prev(it)->bytes)
            throw std::out_of_range("address past its segment");
        lastHit_ = static_cast<std::size_t>(
            std::prev(it) - segments_.begin());
    }
    const Segment &seg = segments_[lastHit_];

    const std::uint64_t offset = a - seg.base;
    switch (seg.placement) {
      case Placement::Blocked:
        return static_cast<net::NodeId>(offset / seg.chunk);
      case Placement::Interleaved:
        return static_cast<net::NodeId>((offset >> mem::kBlockShift) %
                                        nodes_);
      case Placement::OnNode:
        return seg.node;
    }
    throw std::logic_error("unknown placement");
}

} // namespace absim::rt
