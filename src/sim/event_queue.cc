#include "sim/event_queue.hh"

#include <algorithm>
#include <bit>
#include <sstream>

#include "check/check.hh"
#include "fault/fault.hh"
#include "sim/process.hh"

namespace absim::sim {

namespace {
/** The wall-clock budget is sampled on dispatch counts with these low
 *  bits clear. */
constexpr std::uint64_t kWallSampleMask = 0x3ff;
} // namespace

EventQueue::EventQueue()
    : buckets_(new Bucket[kBuckets]),
      words_(new std::uint64_t[kBucketWords]())
{
    static_assert(kBucketWords == 64,
                  "summary_ is a single word: exactly 64 bitmap words");
    static_assert((kBuckets & (kBuckets - 1)) == 0);
}

EventQueue::~EventQueue()
{
    // Destroy the callables of every still-pending event (requestStop
    // and thrown budgets leave the queue populated).  Node memory is
    // owned by blocks_ and freed with it.
    for (std::size_t i = 0; i < kBuckets; ++i) {
        for (EventNode *n = buckets_[i].head; n != nullptr; n = n->next)
            if (n->destroy)
                n->destroy(n->storage);
    }
    for (EventNode *n : overflow_)
        if (n->destroy)
            n->destroy(n->storage);
}

void
EventQueue::setBudget(const RunBudget &budget)
{
    budget_ = budget;
    lastProgressDispatch_ = dispatched_;
    wallArmed_ = false;
}

void
EventQueue::unregisterProcess(Process *p)
{
    const auto it = std::find(processes_.begin(), processes_.end(), p);
    if (it != processes_.end())
        processes_.erase(it);
}

std::vector<BlockedProcessInfo>
EventQueue::blockedProcesses() const
{
    std::vector<BlockedProcessInfo> out;
    for (const Process *p : processes_) {
        if (p->finished())
            continue;
        BlockedProcessInfo info;
        info.name = p->name();
        info.state = toString(p->state());
        info.waitReason = p->waitReason();
        if (p->state() == ProcState::Delayed)
            info.delayedUntil = p->delayedUntil();
        out.push_back(std::move(info));
    }
    return out;
}

void
EventQueue::enforceBudget()
{
    if (budget_.maxEvents != 0 && dispatched_ >= budget_.maxEvents) {
        std::ostringstream oss;
        oss << "event budget exceeded: " << dispatched_ << " events "
            << "dispatched (limit " << budget_.maxEvents
            << "); runaway or livelocked simulation?";
        throw BudgetExceededError(oss.str(), dispatched_, now_,
                                  blockedProcesses());
    }
    if (budget_.stallDispatchLimit != 0 &&
        dispatched_ - lastProgressDispatch_ >=
            budget_.stallDispatchLimit) {
        std::ostringstream oss;
        oss << "deadlock watchdog: no sim-time progress for "
            << dispatched_ - lastProgressDispatch_
            << " dispatches (limit " << budget_.stallDispatchLimit
            << "); the clock is stuck at " << now_ << " ns";
        throw DeadlockError(oss.str(), dispatched_, now_,
                            blockedProcesses());
    }
    if (budget_.maxWallSeconds > 0.0 &&
        (dispatched_ & kWallSampleMask) == 0) {
        const auto host_now = std::chrono::steady_clock::now();
        if (!wallArmed_) {
            wallArmed_ = true;
            wallDeadline_ =
                host_now + std::chrono::duration_cast<
                               std::chrono::steady_clock::duration>(
                               std::chrono::duration<double>(
                                   budget_.maxWallSeconds));
        } else if (host_now >= wallDeadline_) {
            std::ostringstream oss;
            oss << "wall-clock budget exceeded: run passed "
                << budget_.maxWallSeconds << " s of host time after "
                << dispatched_ << " events";
            throw BudgetExceededError(oss.str(), dispatched_, now_,
                                      blockedProcesses());
        }
    }
}

void
EventQueue::stallStep()
{
    // Fault injection (StallQueue): a self-perpetuating zero-delay
    // event.  Simulated time stops advancing, which the stall watchdog
    // must detect.
    schedule(now_, [this] { stallStep(); });
}

void
EventQueue::checkSchedule(Tick when) const
{
    if (check::options().causality)
        ABSIM_CHECK(when >= now_, "event scheduled " << now_ - when
                                      << " ns in the past (now=" << now_
                                      << ")");
}

EventQueue::EventNode *
EventQueue::acquireNode()
{
    if (freeList_ == nullptr) {
        auto block = std::make_unique<EventNode[]>(kNodesPerBlock);
        for (std::size_t i = kNodesPerBlock; i-- > 0;) {
            block[i].next = freeList_;
            freeList_ = &block[i];
        }
        blocks_.push_back(std::move(block));
    }
    EventNode *node = freeList_;
    freeList_ = node->next;
    return node;
}

void
EventQueue::releaseNode(EventNode *node)
{
    node->invoke = nullptr;
    node->destroy = nullptr;
    node->next = freeList_;
    freeList_ = node;
}

void
EventQueue::destroyNode(EventNode *node)
{
    if (node->destroy)
        node->destroy(node->storage);
    releaseNode(node);
}

void
EventQueue::markBucket(std::size_t idx)
{
    const std::size_t word = idx >> 6;
    words_[word] |= std::uint64_t{1} << (idx & 63);
    summary_ |= std::uint64_t{1} << word;
}

void
EventQueue::clearBucket(std::size_t idx)
{
    const std::size_t word = idx >> 6;
    words_[word] &= ~(std::uint64_t{1} << (idx & 63));
    if (words_[word] == 0)
        summary_ &= ~(std::uint64_t{1} << word);
}

std::size_t
EventQueue::firstBucketFrom(std::size_t start) const
{
    // The window spans exactly kBuckets ticks, so circular bitmap
    // order from the bucket of the earliest possible tick *is* tick
    // order.  Three probes: the tail of start's word, whole later
    // words, then the wrapped-around prefix.
    const std::size_t start_word = start >> 6;
    const std::size_t start_bit = start & 63;

    const std::uint64_t head =
        words_[start_word] & (~std::uint64_t{0} << start_bit);
    if (head != 0)
        return (start_word << 6) +
               static_cast<std::size_t>(std::countr_zero(head));

    const std::uint64_t later =
        start_word == 63
            ? 0
            : summary_ & (~std::uint64_t{0} << (start_word + 1));
    if (later != 0) {
        const auto word =
            static_cast<std::size_t>(std::countr_zero(later));
        return (word << 6) +
               static_cast<std::size_t>(std::countr_zero(words_[word]));
    }

    // Wrap-around: words below start's, then start's own low bits.
    const std::uint64_t below =
        summary_ & ((std::uint64_t{1} << start_word) - 1);
    if (below != 0) {
        const auto word =
            static_cast<std::size_t>(std::countr_zero(below));
        return (word << 6) +
               static_cast<std::size_t>(std::countr_zero(words_[word]));
    }
    const std::uint64_t low =
        words_[start_word] & ((std::uint64_t{1} << start_bit) - 1);
    if (low != 0)
        return (start_word << 6) +
               static_cast<std::size_t>(std::countr_zero(low));
    return kBuckets; // Empty calendar.
}

void
EventQueue::pushBucket(EventNode *node)
{
    const std::size_t idx =
        static_cast<std::size_t>(node->when) & (kBuckets - 1);
    Bucket &b = buckets_[idx];
    node->next = nullptr;
    if (b.tail != nullptr) {
        b.tail->next = node;
    } else {
        b.head = node;
        markBucket(idx);
    }
    b.tail = node;
    ++calendarCount_;
}

void
EventQueue::pushOverflow(EventNode *node)
{
    const auto later = [](const EventNode *a, const EventNode *b) {
        return a->when > b->when ||
               (a->when == b->when && a->seq > b->seq);
    };
    overflow_.push_back(node);
    std::push_heap(overflow_.begin(), overflow_.end(), later);
}

EventQueue::EventNode *
EventQueue::popOverflowTop()
{
    const auto later = [](const EventNode *a, const EventNode *b) {
        return a->when > b->when ||
               (a->when == b->when && a->seq > b->seq);
    };
    EventNode *top = overflow_.front();
    std::pop_heap(overflow_.begin(), overflow_.end(), later);
    overflow_.pop_back();
    return top;
}

void
EventQueue::enqueueNode(EventNode *node)
{
    ++size_;
    // A new node carries the largest seq so far: it becomes the front
    // only by being strictly earlier.
    if (front_ == nullptr || node->when < front_->when)
        front_ = node;
    // Bucket events must be inside the window AND not in the simulated
    // past: past events (legal with causality checks off) would break
    // the circular-scan-from-now ordering, so they ride the overflow
    // heap, which orders them globally.
    if (node->when >= windowBase_ && node->when < windowLimit_ &&
        node->when >= now_)
        pushBucket(node);
    else
        pushOverflow(node);
}

void
EventQueue::advanceWindow()
{
    // Pre: calendar empty, overflow non-empty, overflow top >= now_.
    // The top may already lie inside the window (it was scheduled
    // before the sliding window reached it); with the calendar empty,
    // re-basing onto it is safe either way.
    const Tick base = overflow_.front()->when;
    windowBase_ = base;
    windowLimit_ = base > kTickMax - Tick{kBuckets} ? kTickMax
                                                    : base + kBuckets;
    // The heap pops in (when, seq) order, so same-tick events arrive
    // at their bucket in seq order — FIFO append preserves it.
    while (!overflow_.empty() &&
           overflow_.front()->when < windowLimit_)
        pushBucket(popOverflowTop());
}

EventQueue::EventNode *
EventQueue::calendarFront() const
{
    if (calendarCount_ == 0)
        return nullptr;
    const Tick start_tick = now_ > windowBase_ ? now_ : windowBase_;
    const std::size_t idx = firstBucketFrom(
        static_cast<std::size_t>(start_tick) & (kBuckets - 1));
    return buckets_[idx].head;
}

void
EventQueue::refreshFront()
{
    EventNode *cal = calendarFront();
    EventNode *ovf = overflow_.empty() ? nullptr : overflow_.front();
    if (cal == nullptr ||
        (ovf != nullptr &&
         (ovf->when < cal->when ||
          (ovf->when == cal->when && ovf->seq < cal->seq))))
        front_ = ovf;
    else
        front_ = cal;
}

EventQueue::EventNode *
EventQueue::popFront()
{
    // Re-base the window onto the overflow tier when the calendar has
    // drained.  Past-dated overflow events (causality off) stay put:
    // re-basing on a past tick would put them behind the scan start.
    // The move keeps front_ the same node, now at the head of its
    // bucket (the calendar was empty).
    if (calendarCount_ == 0 && !overflow_.empty() &&
        overflow_.front()->when >= now_)
        advanceWindow();

    EventNode *node = front_;
    --size_;
    if (!overflow_.empty() && overflow_.front() == node) {
        popOverflowTop();
    } else {
        // A bucket is one tick in seq order, so the front is its head.
        const std::size_t idx =
            static_cast<std::size_t>(node->when) & (kBuckets - 1);
        Bucket &b = buckets_[idx];
        b.head = node->next;
        if (b.head == nullptr) {
            b.tail = nullptr;
            clearBucket(idx);
        }
        --calendarCount_;
    }
    refreshFront();
    return node;
}

void
EventQueue::advanceClock(Tick when)
{
    now_ = when;
    if (now_ > windowBase_) {
        // Slide the calendar with the clock, so near-now events keep
        // landing in buckets instead of the overflow heap.  Every
        // bucketed event lies in [now_, old limit), inside the new
        // window, so no two ticks alias in one bucket; overflow events
        // the wider window now covers stay put, and refreshFront()
        // merges the tiers in (when, seq) order.
        windowBase_ = now_;
        windowLimit_ = now_ > kTickMax - Tick{kBuckets} ? kTickMax
                                                          : now_ + kBuckets;
    }
}

void
EventQueue::countDispatch(Tick when)
{
    if (when > now_)
        lastProgressDispatch_ = dispatched_;
    advanceClock(when);
    ++dispatched_;
}

void
EventQueue::dispatch(EventNode *node)
{
    countDispatch(node->when);
    if (fault::armed() &&
        fault::injector().shouldStallQueue(dispatched_)) [[unlikely]]
        stallStep();
    // Recycle on every exit path: ABSIM_CHECK failures inside
    // callbacks throw through here.
    struct Recycle
    {
        EventQueue *q;
        EventNode *n;
        ~Recycle() { q->destroyNode(n); }
    } guard{this, node};
    node->invoke(node->storage);
}

bool
EventQueue::quietDispatch(Tick when) const
{
    // run() must be dispatching, and take an event at @p when next: not
    // past its limit and not in the past.  Every check runLoop() and
    // dispatch() make before the callback must pass untouched; anything
    // that could trip or act (a budget, the wall-clock sample, the fault
    // hook) stays with the scheduler.
    return running_ && !stopRequested_ && when >= now_ &&
           when <= runLimit_ &&
           !(budget_.maxEvents != 0 && dispatched_ >= budget_.maxEvents) &&
           !(budget_.stallDispatchLimit != 0 &&
             dispatched_ - lastProgressDispatch_ >=
                 budget_.stallDispatchLimit) &&
           !(budget_.maxWallSeconds > 0.0 &&
             (dispatched_ & kWallSampleMask) == 0) &&
           !(budget_.maxSimTime != 0 && when > budget_.maxSimTime) &&
           !fault::armed();
}

bool
EventQueue::advanceInPlace(Tick when)
{
    // The wake-up must be the event runLoop() dispatches next: strictly
    // before the front (a same-tick event was queued first, so it goes
    // first).
    if ((front_ != nullptr && when >= front_->when) || !quietDispatch(when))
        return false;
    countDispatch(when);
    ++advancedInPlace_;
    return true;
}

void
EventQueue::handOffFront()
{
    EventNode *node = popFront();
    countDispatch(node->when);
    ++handedOff_;
    destroyNode(node);
}

bool
EventQueue::runLoop(Tick limit, bool enforce_sim_time)
{
    // advanceInPlace() and handOffFront() stand in for this loop's next
    // iteration, so they must know the loop is live and where it stops
    // (nested loops restore the outer one's on exit, thrown or not).
    struct Running
    {
        EventQueue *q;
        bool running;
        Tick limit;
        ~Running()
        {
            q->running_ = running;
            q->runLimit_ = limit;
        }
    } restore{this, running_, runLimit_};
    running_ = true;
    runLimit_ = limit;

    while (size_ != 0 && !stopRequested_) {
        enforceBudget();
        const EventNode *next = front_;
        if (next->when > limit)
            return false;
        if (check::options().causality)
            ABSIM_CHECK(next->when >= now_,
                        "engine clock would run backwards: now=" << now_
                            << " next event at " << next->when);
        if (enforce_sim_time && budget_.maxSimTime != 0 &&
            next->when > budget_.maxSimTime) {
            std::ostringstream oss;
            oss << "sim-time budget exceeded: next event at "
                << next->when << " ns passes the " << budget_.maxSimTime
                << " ns limit";
            throw BudgetExceededError(oss.str(), dispatched_, now_,
                                      blockedProcesses());
        }
        dispatch(popFront());
    }
    return size_ == 0;
}

void
EventQueue::run()
{
    runLoop(kTickMax, /*enforce_sim_time=*/true);
}

bool
EventQueue::runUntil(Tick limit)
{
    return runLoop(limit, /*enforce_sim_time=*/false);
}

} // namespace absim::sim
