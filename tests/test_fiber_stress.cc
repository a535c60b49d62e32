/**
 * @file
 * Stress tests for the fiber layer: pool reuse at scale, deep stacks,
 * many concurrent processes, and interleaved yields.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/fiber.hh"
#include "sim/process.hh"
#include "sim/task.hh"

namespace {

using namespace absim::sim;

TEST(FiberStress, ThousandsOfShortLivedFibersReuseStacks)
{
    // Exercises the thread-local stack pool: allocating 4000 fresh
    // 512 KB stacks would be 2 GB of page faults; pooling makes this
    // cheap.  Completion of all fibers is the assertion.
    int completed = 0;
    for (int i = 0; i < 4000; ++i) {
        Fiber f([&] { ++completed; });
        f.resume();
    }
    EXPECT_EQ(completed, 4000);
}

TEST(FiberStress, DeepRecursionFitsDefaultStack)
{
    // ~1000 frames with modest locals must fit in 512 KB.
    std::function<std::uint64_t(int)> rec = [&](int depth) {
        volatile char pad[128] = {};
        (void)pad;
        return depth == 0 ? 0u : 1 + rec(depth - 1);
    };
    std::uint64_t depth_reached = 0;
    Fiber f([&] { depth_reached = rec(1000); });
    f.resume();
    EXPECT_EQ(depth_reached, 1000u);
}

TEST(FiberStress, ManyInterleavedProcesses)
{
    EventQueue eq;
    constexpr int kProcs = 200;
    constexpr int kSteps = 50;
    std::vector<int> progress(kProcs, 0);
    std::vector<std::unique_ptr<Process>> procs;
    for (int i = 0; i < kProcs; ++i) {
        procs.push_back(std::make_unique<Process>(
            eq, "p", [&, i] {
                for (int s = 0; s < kSteps; ++s) {
                    Process::current()->delay(
                        static_cast<Duration>(1 + (i * 7 + s) % 13));
                    ++progress[static_cast<std::size_t>(i)];
                }
            }));
        procs.back()->start(0);
    }
    eq.run();
    for (int i = 0; i < kProcs; ++i)
        EXPECT_EQ(progress[static_cast<std::size_t>(i)], kSteps);
}

Task<>
helper(EventQueue &eq, int &done)
{
    co_await Delay{eq, eq.now() + 5};
    ++done;
}

TEST(FiberStress, DetachedHelpersInterleaveWithOwnedProcesses)
{
    EventQueue eq;
    int helpers_done = 0;
    Tick last_tick = 0;
    Process owner(eq, "owner", [&] {
        for (int round = 0; round < 20; ++round) {
            for (int h = 0; h < 10; ++h)
                spawn(eq, eq.now(), [&] { return helper(eq, helpers_done); });
            Process::current()->delay(100);
        }
        last_tick = eq.now();
    });
    owner.start(0);
    eq.run();
    EXPECT_EQ(helpers_done, 200);
    EXPECT_EQ(last_tick, 2000u);
}

TEST(FiberStress, ThreadChurnLeavesCleanStacks)
{
    // Worker threads build and tear down their thread-local stack
    // pools repeatedly, covering every recycle path: pooled reuse,
    // drops past the pool cap, odd-sized one-offs, and the pool
    // destructor at thread exit.  Under the sanitizer build this is
    // the regression test for stale ASan shadow on fiber stacks — a
    // stack freed or retired while still poisoned trips ASan when the
    // allocator (or a later thread) reuses those addresses.
    constexpr int kThreads = 8;
    constexpr int kRounds = 3;
    std::atomic<int> completed{0};
    for (int round = 0; round < kRounds; ++round) {
        std::vector<std::thread> threads;
        for (int t = 0; t < kThreads; ++t) {
            threads.emplace_back([&completed] {
                // More live fibers than kMaxPooled, so destruction
                // overflows the pool and exercises the drop path.
                {
                    std::vector<std::unique_ptr<Fiber>> herd;
                    for (std::size_t i = 0;
                         i < FiberStackPool::kMaxPooled + 8; ++i) {
                        herd.push_back(std::make_unique<Fiber>(
                            [&completed] { ++completed; }));
                        herd.back()->resume();
                    }
                }
                // Odd-sized stacks are never pooled: the recycle path
                // must still scrub them before the free.
                for (int i = 0; i < 4; ++i) {
                    Fiber odd([&completed] { ++completed; },
                              96 * 1024);
                    odd.resume();
                }
                // An engine run on this thread reuses pooled stacks.
                EventQueue eq;
                Process p(eq, "churn", [&completed] {
                    Process::current()->delay(1);
                    ++completed;
                });
                p.start(0);
                eq.run();
            }); // Thread exit destroys the thread-local pool.
        }
        for (std::thread &th : threads)
            th.join();
    }
    EXPECT_EQ(completed.load(),
              kRounds * kThreads *
                  static_cast<int>(FiberStackPool::kMaxPooled + 8 + 4 +
                                   1));
}

TEST(FiberStress, NestedResumeFromSchedulerOnly)
{
    // A fiber may spawn another fiber's work only via the engine; this
    // checks the current() bookkeeping survives heavy switching.
    EventQueue eq;
    std::vector<std::string> log;
    Process a(eq, "a", [&] {
        log.push_back("a0");
        EXPECT_EQ(Process::current()->name(), "a");
        Process::current()->delay(10);
        EXPECT_EQ(Process::current()->name(), "a");
        log.push_back("a1");
    });
    Process b(eq, "b", [&] {
        log.push_back("b0");
        Process::current()->delay(5);
        EXPECT_EQ(Process::current()->name(), "b");
        log.push_back("b1");
    });
    a.start(0);
    b.start(0);
    eq.run();
    EXPECT_EQ(log,
              (std::vector<std::string>{"a0", "b0", "b1", "a1"}));
}

} // namespace
