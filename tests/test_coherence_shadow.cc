/**
 * @file
 * The presence-record coherence check against the O(P) scan it
 * replaced, side by side.
 *
 * scanCheck() below is the reference: the checker as it was before the
 * caches kept presence records, reading every node's cache in node
 * order.  It lives here only.  Two differential suites run it beside
 * check::CoherenceChecker and require the same verdict and, on a
 * violation, the same message:
 *
 *  - on random cache and directory states, most of them inconsistent,
 *    so every failure message is reached;
 *  - on every protocol transition of random application runs (every
 *    registry stack, both protocols, P from 2 to 32), some with a
 *    CorruptTransition fault armed.  The memory models are subclassed
 *    so the reference runs whenever the checker asks for a block's
 *    directory state, which it does once per check.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/app.hh"
#include "check/check.hh"
#include "check/coherence.hh"
#include "core/run_context.hh"
#include "fault/fault.hh"
#include "machines/directory_mem.hh"
#include "machines/ideal_mem.hh"
#include "machines/net_model.hh"
#include "machines/registry.hh"
#include "mem/cache.hh"
#include "runtime/context.hh"
#include "runtime/shared.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"

namespace {

using namespace absim;
using mem::BlockId;
using mem::LineState;
using net::NodeId;

/**
 * The reference check: the invariants of check::CoherenceChecker by a
 * scan of every cache in node order.
 * @return "" if @p blk passes, else the first failure's message.
 */
std::string
scanCheck(const std::string &name, bool exact_sharers,
          const std::vector<const mem::SetAssocCache *> &caches,
          const check::DirInfo &dir, BlockId blk)
{
    std::ostringstream os;
    std::uint32_t copies = 0;
    std::uint32_t owned_copies = 0;
    std::int32_t owned_node = -1;
    bool dirty = false;

    for (NodeId n = 0; n < static_cast<NodeId>(caches.size()); ++n) {
        const LineState state = caches[n]->stateOf(blk);
        if (state == LineState::Invalid) {
            if (exact_sharers && dir.tracked && dir.isSharer(n)) {
                os << name << ": stale sharer bit, node " << n
                   << " listed for block " << blk << " but holds no copy";
                return os.str();
            }
            continue;
        }
        ++copies;
        if (!dir.tracked) {
            os << name << ": node " << n << " holds block " << blk
               << " unknown to the directory";
            return os.str();
        }
        if (!dir.isSharer(n)) {
            os << name << ": node " << n << " holds block " << blk
               << " without a sharer bit (sharers=0x" << std::hex
               << dir.sharers << std::dec << ")";
            return os.str();
        }
        if (mem::isOwned(state)) {
            ++owned_copies;
            owned_node = static_cast<std::int32_t>(n);
        }
        if (state == LineState::Dirty)
            dirty = true;
    }

    if (owned_copies > 1) {
        os << name << ": SWMR violated, " << owned_copies
           << " ownership-state copies of block " << blk;
    } else if (dirty && copies != 1) {
        os << name << ": Dirty copy of block " << blk << " coexists with "
           << copies - 1 << " other copies";
    } else if (owned_copies == 1 && dir.owner != owned_node) {
        os << name << ": node " << owned_node << " owns block " << blk
           << " but the directory names owner " << dir.owner;
    } else if (dir.tracked && dir.owner >= 0 &&
               !(owned_copies == 1 && owned_node == dir.owner)) {
        os << name << ": directory owner " << dir.owner
           << " holds no ownership-state copy of block " << blk;
    }
    return os.str();
}

/** The message part of a CheckFailure (after "file:line: ... — "). */
std::string
messageOf(const check::CheckFailure &e)
{
    const std::string what = e.what();
    const std::string sep = " \xe2\x80\x94 "; // " — "
    const auto at = what.find(sep);
    return at == std::string::npos ? what : what.substr(at + sep.size());
}

// ------------------------------------------------------ Random states

/** A directory the test writes directly. */
class FakeDirectory : public check::DirectoryView
{
  public:
    check::DirInfo
    dirInfo(BlockId blk) const override
    {
        const auto it = entries.find(blk);
        return it == entries.end() ? check::DirInfo{} : it->second;
    }

    std::vector<BlockId>
    trackedBlocks() const override
    {
        std::vector<BlockId> out;
        for (const auto &kv : entries)
            out.push_back(kv.first);
        return out;
    }

    std::map<BlockId, check::DirInfo> entries;
};

LineState
randomState(sim::Rng &rng)
{
    switch (rng.below(3)) {
      case 0:
        return LineState::Valid;
      case 1:
        return LineState::SharedDirty;
      default:
        return LineState::Dirty;
    }
}

/** A phrase unique to each failure message. */
const char *const kFailureKinds[] = {
    "unknown to the directory",  "without a sharer bit",
    "stale sharer bit",          "SWMR violated",
    "coexists with",             "but the directory names owner",
    "holds no ownership-state copy",
};

TEST(CoherenceShadow, RandomStatesAgreeWithScan)
{
    constexpr BlockId kBlocks = 12;
    sim::Rng rng(0xC0DE);
    std::uint64_t failures_seen = 0;
    std::map<std::string, int> kinds;
    for (int trial = 0; trial < 3000; ++trial) {
        const auto nodes =
            static_cast<std::uint32_t>(std::uint64_t{2} << rng.below(6));
        const bool exact = rng.below(2) == 0;
        FakeDirectory dir;
        std::vector<std::unique_ptr<mem::SetAssocCache>> caches;
        check::CoherenceChecker checker("rand", exact, caches, dir);
        std::vector<const mem::SetAssocCache *> view;
        for (std::uint32_t n = 0; n < nodes; ++n) {
            // Two sets of two ways: installs evict often.
            caches.push_back(std::make_unique<mem::SetAssocCache>(
                4 * mem::kBlockBytes, 2, checker.presence(), n));
            view.push_back(caches.back().get());
        }

        // Random mutations through the caches' own API.
        const int steps = static_cast<int>(rng.below(4 * nodes + 8));
        for (int s = 0; s < steps; ++s) {
            mem::SetAssocCache &c = *caches[rng.below(nodes)];
            const BlockId blk = rng.below(kBlocks);
            const LineState now = c.stateOf(blk);
            const std::uint64_t op = rng.below(3);
            if (now == LineState::Invalid)
                c.install(blk, randomState(rng));
            else if (op == 0)
                c.invalidate(blk);
            else
                c.setState(blk, randomState(rng));
        }

        // A directory that is right about some blocks, wrong about
        // others, and silent about the rest.
        for (BlockId blk = 0; blk < kBlocks; ++blk) {
            std::uint64_t holders = 0;
            std::int32_t owner = -1;
            for (std::uint32_t n = 0; n < nodes; ++n) {
                const LineState st = caches[n]->stateOf(blk);
                if (st != LineState::Invalid)
                    holders |= std::uint64_t{1} << n;
                if (mem::isOwned(st))
                    owner = static_cast<std::int32_t>(n);
            }
            const std::uint64_t shape = rng.below(7);
            if (shape == 0)
                continue; // Untracked.
            check::DirInfo info;
            info.tracked = true;
            info.sharers = holders;
            info.owner = owner;
            if (shape == 2)
                info.sharers ^= std::uint64_t{1} << rng.below(nodes);
            if (shape == 3)
                info.sharers |= std::uint64_t{1} << rng.below(64);
            if (shape == 4 || shape == 6)
                info.owner =
                    static_cast<std::int32_t>(rng.below(nodes + 1)) - 1;
            if (shape >= 5) // Several nodes wrong at once.
                info.sharers = rng.below(std::uint64_t{1} << 32) << 32 |
                               rng.below(std::uint64_t{1} << 32);
            dir.entries[blk] = info;
        }

        check::ScopedThrowOnFailure guard;
        for (BlockId blk = 0; blk < kBlocks; ++blk) {
            const std::string want =
                scanCheck("rand", exact, view, dir.dirInfo(blk), blk);
            std::string got;
            try {
                checker.checkBlock(blk);
            } catch (const check::CheckFailure &e) {
                got = messageOf(e);
            }
            ASSERT_EQ(got, want) << "trial " << trial << " block " << blk
                                 << " nodes " << nodes;
            if (!want.empty())
                ++failures_seen;
            for (const char *kind : kFailureKinds)
                if (want.find(kind) != std::string::npos)
                    ++kinds[kind];
        }
        // The records never drift from the caches they shadow.
        std::size_t resident = 0;
        for (BlockId blk = 0; blk < kBlocks; ++blk) {
            mem::Presence want;
            for (std::uint32_t n = 0; n < nodes; ++n) {
                const LineState st = caches[n]->stateOf(blk);
                const std::uint64_t bit = std::uint64_t{1} << n;
                if (st != LineState::Invalid)
                    want.holders |= bit;
                if (mem::isOwned(st))
                    want.owners |= bit;
                if (st == LineState::Dirty)
                    want.dirty |= bit;
            }
            resident += want.holders != 0;
            ASSERT_EQ(checker.presence()->find(blk), want)
                << "trial " << trial << " block " << blk;
        }
        ASSERT_EQ(checker.presence()->size(), resident);
    }
    // All seven failure messages were reached.
    EXPECT_EQ(kinds.size(), 7u);
    EXPECT_GT(failures_seen, 1000u);
}

TEST(CoherenceShadow, DrainSelfCheckNamesDriftedRecords)
{
    FakeDirectory dir;
    std::vector<std::unique_ptr<mem::SetAssocCache>> caches;
    check::CoherenceChecker checker("drift", false, caches, dir);
    for (std::uint32_t n = 0; n < 2; ++n)
        caches.push_back(std::make_unique<mem::SetAssocCache>(
            4 * mem::kBlockBytes, 2, checker.presence(), n));
    caches[0]->install(5, LineState::Valid);
    check::DirInfo info;
    info.tracked = true;
    info.sharers = 1;
    dir.entries[5] = info;
    EXPECT_NO_THROW(checker.checkAll());

    check::ScopedThrowOnFailure guard;
    const auto drainMessage = [&checker]() -> std::string {
        try {
            checker.checkAll();
        } catch (const check::CheckFailure &e) {
            return messageOf(e);
        }
        return "";
    };

    // A copy the caches do not hold: the shadow has drifted.
    checker.presence()->update(5, 1, LineState::Valid);
    EXPECT_EQ(drainMessage(), "drift: presence records list 2 copies but "
                              "the caches hold 1");

    // A copy in the wrong state.
    checker.presence()->update(5, 1, LineState::Invalid);
    checker.presence()->update(5, 0, LineState::Dirty);
    EXPECT_EQ(drainMessage(),
              "drift: presence record of block 5 drifted from the caches: "
              "node 0 holds it in state 1, the record says holders=0x1 "
              "owners=0x1 dirty=0x1");

    // Back in step, the drain check passes again.
    checker.presence()->update(5, 0, LineState::Valid);
    EXPECT_EQ(drainMessage(), "");
}

// ---------------------------------------------- Every transition, live

/** Verdicts of the reference scan, compared with the checker's as the
 *  run goes. */
struct Verdicts
{
    std::string name;
    bool exact = false;
    std::vector<const mem::SetAssocCache *> caches;

    /** The reference's message for the block being checked. */
    std::string pending;
    std::uint64_t scans = 0;
    std::vector<std::string> mismatches;

    /** The checker asks for @p blk's directory state: a check is
     *  starting.  If the last one expected a failure, none came. */
    void
    begin(BlockId blk, const check::DirInfo &dir)
    {
        if (!pending.empty())
            mismatches.push_back("checker passed, scan failed: " +
                                 pending);
        pending = scanCheck(name, exact, caches, dir, blk);
        ++scans;
    }
};

class ScanDirectoryMem final : public mach::DirectoryMem
{
  public:
    template <typename... Args>
    ScanDirectoryMem(Verdicts &v, Args &&...args)
        : DirectoryMem(std::forward<Args>(args)...), v_(v)
    {
    }

  protected:
    check::DirInfo
    dirInfo(BlockId blk) const override
    {
        const check::DirInfo info = DirectoryMem::dirInfo(blk);
        v_.begin(blk, info);
        return info;
    }

  private:
    Verdicts &v_;
};

class ScanIdealMem final : public mach::IdealCacheMem
{
  public:
    template <typename... Args>
    ScanIdealMem(Verdicts &v, Args &&...args)
        : IdealCacheMem(std::forward<Args>(args)...), v_(v)
    {
    }

  protected:
    check::DirInfo
    dirInfo(BlockId blk) const override
    {
        const check::DirInfo info = IdealCacheMem::dirInfo(blk);
        v_.begin(blk, info);
        return info;
    }

  private:
    Verdicts &v_;
};

/**
 * A registry row's composition with the scanning memory models: the
 * row's network, built as the registry builds it, under a memory model
 * that reports each check to the scan.
 */
class ScanMachine final : public mach::Machine
{
  public:
    ScanMachine(const mach::MachineSpec &spec, sim::EventQueue &eq,
                net::TopologyKind topo, std::uint32_t nodes,
                const mem::HomeMap &homes, mach::ProtocolKind protocol,
                Verdicts &v)
        : Machine(nodes, homes), kind_(spec.kind),
          net_(mach::makeNetModel(spec, eq, topo, nodes,
                                  logp::GapPolicy::Single))
    {
        // Every memory model name is matched explicitly: a row naming a
        // model this scan does not know fails here instead of being
        // scanned as some other stack.
        const std::string model = spec.memModel;
        v.name = spec.name;
        if (model == "directory") {
            auto m = std::make_unique<ScanDirectoryMem>(
                v, eq, *net_, nodes, homes, stats_, mach::CacheConfig{},
                protocol, spec.name);
            for (std::uint32_t n = 0; n < nodes; ++n)
                v.caches.push_back(&m->cache(n));
            mem_ = std::move(m);
        } else if (model == "ideal") {
            v.exact = true;
            auto m = std::make_unique<ScanIdealMem>(
                v, *net_, nodes, homes, stats_, mach::CacheConfig{},
                spec.name);
            for (std::uint32_t n = 0; n < nodes; ++n)
                v.caches.push_back(&m->cache(n));
            mem_ = std::move(m);
        } else if (model == "uncached") {
            mem_ = std::make_unique<mach::UncachedMem>(*net_, nodes, homes,
                                                       stats_);
        } else {
            ADD_FAILURE() << "machine " << spec.name << " names memory "
                          << "model '" << model
                          << "', which the shadow scan does not build";
            throw std::invalid_argument("unknown memory model " + model);
        }
    }

    mach::AccessTiming
    access(mach::MemClient &client, mem::Addr addr, mach::AccessType type,
           std::uint32_t) override
    {
        mach::AccessTiming t;
        if (mem_->probe(client, addr, type, t))
            return t;
        return mem_->miss(client, addr, type).get();
    }

    mach::MachineKind kind() const override { return kind_; }
    void checkInvariants() const override { mem_->checkInvariants(); }

    bool
    corruptStateForFault(std::uint64_t seed) override
    {
        return mem_->corruptStateForFault(seed);
    }

    const char *netModelName() const override { return net_->name(); }
    const char *memModelName() const override { return mem_->name(); }

  private:
    mach::MachineKind kind_;
    std::unique_ptr<mach::NetModel> net_;
    std::unique_ptr<mach::MemModel> mem_;
};

struct Point
{
    std::string app;
    std::uint64_t size;
    mach::MachineKind kind;
    std::uint32_t procs;
    mach::ProtocolKind protocol;
    std::uint64_t corruptAt; ///< 0: no fault armed.
};

/** Run @p point with the reference beside the checker.
 *  @return true if the checker failed the run. */
bool
runSideBySide(const Point &point)
{
    const mach::MachineSpec &spec = mach::specFor(point.kind);
    SCOPED_TRACE(std::string(spec.name) + " " + point.app +
                 " P=" + std::to_string(point.procs) +
                 (point.protocol == mach::ProtocolKind::Msi ? " msi"
                                                            : " berkeley") +
                 " corrupt@" + std::to_string(point.corruptAt));
    check::ScopedThrowOnFailure guard;
    std::unique_ptr<fault::ScopedPlan> plan;
    if (point.corruptAt != 0)
        plan = std::make_unique<fault::ScopedPlan>(fault::Plan::parse(
            "corrupt@" + std::to_string(point.corruptAt) + "; seed=" +
            std::to_string(point.corruptAt * 7 + point.procs)));
    core::RunContext run_context;

    Verdicts v;
    sim::EventQueue eq;
    rt::SharedHeap heap(point.procs);
    ScanMachine machine(spec, eq, net::TopologyKind::Hypercube,
                        point.procs, heap, point.protocol, v);
    rt::Runtime runtime(eq, machine, point.procs);
    auto app = apps::makeApp(point.app);
    apps::AppParams params;
    params.n = point.size;
    app->setup(runtime, heap, params);
    runtime.spawn([&app](rt::Proc &p) { app->worker(p); });
    std::string failure;
    try {
        runtime.run();
    } catch (const check::CheckFailure &e) {
        failure = messageOf(e);
    }

    for (const std::string &m : v.mismatches)
        ADD_FAILURE() << m;
    EXPECT_EQ(failure, v.pending) << "checker and scan disagree on the "
                                     "last checked block";
    if (std::string(spec.memModel) != "uncached") {
        EXPECT_GT(v.scans, 0u);
    }
    if (point.corruptAt == 0) {
        EXPECT_EQ(failure, "");
    }
    return !failure.empty();
}

TEST(CoherenceShadow, EveryTransitionAgreesWithScan)
{
    const char *apps[] = {"fft", "is", "cg", "radix", "cholesky"};
    const std::uint64_t sizes[] = {64, 256, 64, 256, 0};
    sim::Rng rng(0x5CA7);
    int corrupted = 0;
    int caught = 0;
    for (int i = 0; i < 24; ++i) {
        const std::size_t a = rng.below(5);
        Point point;
        point.app = apps[a];
        point.size = sizes[a];
        point.kind = mach::allQuadrants()[rng.below(5)];
        point.procs = static_cast<std::uint32_t>(2u << rng.below(5));
        point.protocol = rng.below(2) == 0 ? mach::ProtocolKind::Berkeley
                                           : mach::ProtocolKind::Msi;
        point.corruptAt = rng.below(3) == 0 ? 20 + rng.below(400) : 0;
        corrupted += point.corruptAt != 0;
        caught += runSideBySide(point);
    }
    EXPECT_GT(corrupted, 3);
    EXPECT_GT(caught, 2); // Some corruptions hit a checked block.
}

} // namespace
