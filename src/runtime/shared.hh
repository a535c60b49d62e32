/**
 * @file
 * The simulated global shared memory: an allocator that assigns simulated
 * addresses with explicit home-node placement, and typed shared arrays
 * that couple a simulated address range with native backing storage.
 *
 * Application data really lives in native memory (the simulator is
 * execution-driven: computations run at native speed); only the *accesses*
 * are simulated.  SharedArray's accessors perform the simulated access
 * first and touch the native element exactly at the access's completion
 * instant, which makes reads/writes/RMWs linearizable in simulated time —
 * the sequential consistency the paper's machines provide.
 */

#ifndef ABSIM_RUNTIME_SHARED_HH
#define ABSIM_RUNTIME_SHARED_HH

#include <cstdint>
#include <cstring>
#include <vector>

#include "check/check.hh"
#include "mem/addr.hh"
#include "runtime/context.hh"

namespace absim::rt {

/** How a shared allocation is distributed over node memories. */
enum class Placement
{
    /** Contiguous equal chunks, node 0 first (the static partitioning the
     *  paper's applications use). */
    Blocked,
    /** Cache-block round-robin across nodes. */
    Interleaved,
    /** Entirely in one node's memory. */
    OnNode,
};

/**
 * Allocator of the simulated shared address space; implements HomeMap for
 * the machine models.
 */
class SharedHeap : public mem::HomeMap
{
  public:
    explicit SharedHeap(std::uint32_t nodes);

    /**
     * Allocate @p bytes with the given placement.
     * @return Block-aligned base address.
     */
    mem::Addr allocate(std::uint64_t bytes, Placement placement,
                       net::NodeId node = 0);

    net::NodeId homeOf(mem::Addr a) const override;

    std::uint32_t nodes() const { return nodes_; }

    /** @name Trace recording (see runtime/ref_sink.hh).
     *
     * A bound sink observes every allocation (and, from the sync
     * primitives, barrier construction), so a replay can rebuild the
     * identical address-space layout.  Null by default.
     */
    /// @{
    RefSink *sink() const { return sink_; }

    void bindSink(RefSink *sink) { sink_ = sink; }
    /// @}

  private:
    struct Segment
    {
        mem::Addr base;
        std::uint64_t bytes;
        Placement placement;
        net::NodeId node;        ///< For OnNode.
        std::uint64_t chunk;     ///< Per-node chunk size for Blocked.
    };

    std::uint32_t nodes_;
    std::vector<Segment> segments_; // Sorted by base (append-only).

    /** Index of the segment homeOf() found last: a miss transaction
     *  asks again for the address its probe just asked for. */
    mutable std::size_t lastHit_ = 0;
    mem::Addr next_;
    RefSink *sink_ = nullptr;
};

namespace detail {

/** Raw bits of a shared element, for trace value hints.  Elements wider
 *  than 8 bytes record zero: their values are never consulted at replay
 *  (RMW and synchronization words are always word-sized). */
template <typename T>
std::uint64_t
valueBits(const T &v)
{
    if constexpr (sizeof(T) <= 8) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof(T));
        return bits;
    } else {
        return 0;
    }
}

} // namespace detail

/**
 * A typed array in simulated shared memory with native backing storage.
 *
 * @tparam T  Trivially copyable, power-of-two size <= one cache block, so
 *            an element never straddles blocks.
 */
template <typename T>
class SharedArray
{
    static_assert(sizeof(T) <= mem::kBlockBytes,
                  "element must fit in a cache block");
    static_assert((sizeof(T) & (sizeof(T) - 1)) == 0,
                  "element size must be a power of two");

  public:
    SharedArray() = default;

    SharedArray(SharedHeap &heap, std::size_t n, Placement placement,
                net::NodeId node = 0)
        : data_(n), base_(heap.allocate(n * sizeof(T), placement, node))
    {
    }

    /** Simulated address of element @p i. */
    mem::Addr
    addrOf(std::size_t i) const
    {
        ABSIM_DCHECK(i < data_.size(),
                     "index " << i << " out of bounds (size "
                              << data_.size() << ")");
        return base_ + i * sizeof(T);
    }

    std::size_t size() const { return data_.size(); }

    /** Simulated read: charges the machine, returns the coherent value. */
    T
    read(Proc &p, std::size_t i) const
    {
        p.memRead(addrOf(i), sizeof(T));
        return data_[i];
    }

    /** Simulated write. */
    void
    write(Proc &p, std::size_t i, const T &v)
    {
        p.memWrite(addrOf(i), sizeof(T));
        if (RefSink *s = p.sink()) [[unlikely]]
            s->onWriteValue(p.node(), detail::valueBits(v), i);
        data_[i] = v;
    }

    /** Atomic fetch-and-add (simulated RMW). @return the old value. */
    T
    fetchAdd(Proc &p, std::size_t i, T delta)
    {
        p.memRmw(addrOf(i), sizeof(T));
        const T old = data_[i];
        data_[i] = static_cast<T>(old + delta);
        if (RefSink *s = p.sink()) [[unlikely]]
            s->onRmw(p.node(), RmwOp::FetchAdd, detail::valueBits(delta),
                     detail::valueBits(old));
        return old;
    }

    /** Atomic test-and-set (simulated RMW). @return the old value. */
    T
    testAndSet(Proc &p, std::size_t i)
    {
        p.memRmw(addrOf(i), sizeof(T));
        const T old = data_[i];
        data_[i] = static_cast<T>(1);
        if (RefSink *s = p.sink()) [[unlikely]]
            s->onRmw(p.node(), RmwOp::TestAndSet, 0,
                     detail::valueBits(old));
        return old;
    }

    /**
     * Direct access to the native element, bypassing simulation.  For
     * initialization before the parallel phase and for result checking
     * after it — never from worker code on shared data.
     */
    T &raw(std::size_t i) { return data_[i]; }
    const T &raw(std::size_t i) const { return data_[i]; }

  private:
    std::vector<T> data_;
    mem::Addr base_ = 0;
};

} // namespace absim::rt

#endif // ABSIM_RUNTIME_SHARED_HH
