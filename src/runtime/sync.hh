/**
 * @file
 * Application-level synchronization built on *simulated shared memory*.
 *
 * These are not simulator shortcuts: a lock acquire really spins on a
 * shared word with test-test&set (Anderson's TTS, cited by the paper), a
 * barrier really increments a shared counter and spins on a sense flag,
 * and a condition flag really polls a shared location.  Because every
 * poll goes through the machine model, the paper's synchronization
 * effects emerge naturally: on the target and LogP+C machines the spin
 * reads hit in the cache until the writer's invalidation arrives, while
 * on the cache-less LogP machine *every* poll is a remote round trip —
 * the EP condition-variable effect of Figure 3.
 *
 * Polls back off exponentially (bounded) so that waiting advances
 * simulated time at a realistic rate and the simulation itself stays
 * fast.
 */

#ifndef ABSIM_RUNTIME_SYNC_HH
#define ABSIM_RUNTIME_SYNC_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <utility>

#include "runtime/shared.hh"

namespace absim::rt {

/** Exponential poll backoff: 4, 8, ..., capped at 256 cycles. */
struct Backoff
{
    std::uint64_t cycles = 4;
    static constexpr std::uint64_t kCap = 256;

    /** The next pause, in cycles. */
    std::uint64_t
    next()
    {
        return std::exchange(cycles, std::min(cycles * 2, kCap));
    }

    void pause(Proc &p) { p.compute(next()); }
};

/** Flavor of spin lock (the paper notes TTS degenerates to TS on LogP). */
enum class LockKind
{
    TestAndSet,
    TestTestAndSet,
};

/** A sense-reversing barrier's words, parties and per-processor senses. */
struct BarrierWords
{
    mem::Addr count = 0;
    mem::Addr sense = 0;
    std::uint32_t parties = 0;
    std::array<std::uint64_t, mem::kMaxNodes> localSense{};
};

/**
 * One synchronization operation's spin protocol, as a value: it names
 * the next access and, given the accessed word, applies the access's
 * effect and says what comes next.  The one definition of each
 * protocol: rt::SpinLock, rt::Barrier and rt::Flag drive it through a
 * Proc's accesses on their native words, and trace replay drives it
 * against its value store, so replay regenerates execution's spins on
 * every machine by running the same code.
 */
class Spin
{
  public:
    /** What comes after an access. */
    enum class Next : std::uint8_t
    {
        Access, ///< Issue the next access.
        Done,   ///< The operation completed.
        Failed, ///< A poll failed: ProcCore::spinFailed, then the access.
    };

    static Spin lock(mem::Addr word, LockKind kind);

    /** Processor @p node's arrival (flips its sense). */
    static Spin arrive(BarrierWords &barrier, net::NodeId node);

    /** Wait until @p word holds exactly @p value. */
    static Spin waitFor(mem::Addr word, std::uint64_t value);

    /** The next access. */
    mem::Addr word() const { return word_; }
    mach::AccessType type() const { return type_; }

    /** The next access completed on its word, now holding @p value:
     *  apply the access's effect to it and step. */
    Next complete(std::uint64_t &value);

    Backoff backoff;

  private:
    enum class Step : std::uint8_t
    {
        LockTest,       ///< TTS: read the lock word until it looks free.
        LockSet,        ///< Test&set the lock word.
        BarrierArrive,  ///< Fetch&add the count word.
        BarrierReset,   ///< Last arriver: count word := 0.
        BarrierRelease, ///< Last arriver: sense word := target_.
        Poll,           ///< Read the word until it holds target_.
    };

    void
    next(Step step, mem::Addr word, mach::AccessType type)
    {
        step_ = step;
        word_ = word;
        type_ = type;
    }

    Step step_ = Step::Poll;
    mem::Addr word_ = 0;
    mach::AccessType type_ = mach::AccessType::Read;
    bool testFirst_ = false;   ///< Lock: test-test&set.
    std::uint64_t target_ = 0; ///< Flag value, or the barrier's new sense.
    const BarrierWords *barrier_ = nullptr;
};

/**
 * A spin lock on one shared word.
 */
class SpinLock
{
  public:
    /** The lock word lives in @p home's memory. */
    SpinLock(SharedHeap &heap, net::NodeId home = 0,
             LockKind kind = LockKind::TestTestAndSet);

    void lock(Proc &p);
    void unlock(Proc &p);

  private:
    SharedArray<std::uint64_t> word_;
    LockKind kind_;
};

/**
 * A sense-reversing centralized barrier for @p parties processors.
 * Reusable across any number of phases.
 */
class Barrier
{
  public:
    Barrier(SharedHeap &heap, std::uint32_t parties, net::NodeId home = 0);

    /** Block until all parties have arrived. */
    void arrive(Proc &p);

  private:
    SharedArray<std::uint64_t> count_;
    SharedArray<std::uint64_t> sense_;
    BarrierWords words_;
};

/**
 * A condition flag: one writer sets a value, waiters poll for it.  This is
 * the "condition variable" idiom the paper's EP uses (see its appendix
 * discussion and Figure 3).
 */
class Flag
{
  public:
    Flag(SharedHeap &heap, net::NodeId home = 0);

    /** Publish @p value. */
    void set(Proc &p, std::uint64_t value = 1);

    /** Read the current value (one simulated access). */
    std::uint64_t get(Proc &p);

    /** Spin until the flag reads exactly @p value. */
    void waitFor(Proc &p, std::uint64_t value);

  private:
    SharedArray<std::uint64_t> word_;
};

} // namespace absim::rt

#endif // ABSIM_RUNTIME_SYNC_HH
