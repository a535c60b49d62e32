#include "trace_replay/recorder.hh"

#include "check/check.hh"

namespace absim::trace {

Recorder::Recorder(std::uint32_t procs) : streams_(procs)
{
    ABSIM_CHECK(procs >= 1 && procs <= mem::kMaxNodes,
                "recorder for " << procs << " processors");
}

void
Recorder::flushCompute(Stream &s)
{
    if (s.pendingCompute == 0)
        return;
    Op op;
    op.kind = OpKind::Compute;
    op.value = s.pendingCompute;
    s.ops.push_back(op);
    s.pendingCompute = 0;
}

std::uint32_t
Recorder::phaseIndex(const std::string &name)
{
    for (std::size_t i = 0; i < phaseNames_.size(); ++i)
        if (phaseNames_[i] == name)
            return static_cast<std::uint32_t>(i);
    phaseNames_.push_back(name);
    return static_cast<std::uint32_t>(phaseNames_.size() - 1);
}

void
Recorder::onCompute(net::NodeId n, sim::Duration ns)
{
    Stream &s = stream(n);
    if (s.suppress > 0)
        return; // Backoff pauses inside a sync op: regenerated.
    s.pendingCompute += ns;
}

void
Recorder::onAccess(net::NodeId n, mem::Addr addr, mach::AccessType type,
                   std::uint32_t bytes)
{
    Stream &s = stream(n);
    if (s.suppress > 0)
        return; // Spin traffic inside a sync op: regenerated.
    flushCompute(s);
    s.lastAddr = addr;
    Op op;
    op.bytes = static_cast<std::uint8_t>(bytes);
    op.addr = addr;
    switch (type) {
      case mach::AccessType::Read:
        op.kind = OpKind::Read;
        s.lastWasRmw = false;
        break;
      case mach::AccessType::Write:
        // The value hint (and a possible DepWrite conversion) arrives
        // in onWriteValue right after; lastWasRmw survives so the
        // conversion can still see the preceding RMW.
        op.kind = OpKind::Write;
        break;
      case mach::AccessType::Rmw:
        // Tentative kind; onRmw (if this came through a SharedArray)
        // refines it.  A bare memRmw stays a fetch&add of 0: harmless.
        op.kind = OpKind::RmwFetchAdd;
        s.lastWasRmw = false;
        break;
    }
    s.ops.push_back(op);
}

void
Recorder::onWriteValue(net::NodeId n, std::uint64_t bits,
                       std::uint64_t index)
{
    Stream &s = stream(n);
    if (s.suppress > 0)
        return;
    ABSIM_CHECK(!s.ops.empty() && s.ops.back().kind == OpKind::Write,
                "write value hint without a pending write op");
    Op &op = s.ops.back();
    op.value = bits;
    if (s.lastWasRmw && index == s.lastRmwResult) {
        // `slot = fetchAdd(...); a.write(p, slot, v)`: store base+scale
        // so replay re-derives the slot from its own RMW result.
        op.kind = OpKind::DepWrite;
        op.addr = op.addr - index * op.bytes;
    }
    s.lastWasRmw = false;
    defined_.insert(s.lastAddr);
}

void
Recorder::onRmw(net::NodeId n, rt::RmwOp rmw, std::uint64_t operand,
                std::uint64_t result)
{
    Stream &s = stream(n);
    if (s.suppress > 0)
        return;
    ABSIM_CHECK(!s.ops.empty() &&
                    s.ops.back().kind == OpKind::RmwFetchAdd,
                "RMW hint without a pending RMW op");
    Op &op = s.ops.back();
    if (rmw == rt::RmwOp::TestAndSet)
        op.kind = OpKind::RmwTestAndSet;
    else
        op.value = operand;
    if (defined_.insert(s.lastAddr).second && result != 0)
        initials_[s.lastAddr] = result; // First touch was this RMW.
    s.lastWasRmw = true;
    s.lastRmwResult = result;
}

void
Recorder::onPhase(net::NodeId n, const std::string &name)
{
    Stream &s = stream(n);
    flushCompute(s);
    Op op;
    op.kind = OpKind::Phase;
    op.aux = phaseIndex(name);
    s.ops.push_back(op);
}

void
Recorder::onAlloc(mem::Addr base, std::uint64_t bytes,
                  std::uint8_t placement, net::NodeId node)
{
    SetupOp op;
    op.kind = SetupOp::Alloc;
    op.a = bytes;
    op.b = placement;
    op.c = node;
    op.d = base;
    setup_.push_back(op);
}

void
Recorder::onBarrierCtor(mem::Addr count_addr, mem::Addr sense_addr,
                        std::uint32_t parties)
{
    SetupOp op;
    op.kind = SetupOp::Barrier;
    op.a = count_addr;
    op.b = sense_addr;
    op.c = parties;
    setup_.push_back(op);
}

void
Recorder::onSyncBegin(net::NodeId n, rt::SyncKind kind, mem::Addr word,
                      std::uint64_t value)
{
    Stream &s = stream(n);
    if (s.suppress++ > 0)
        return; // Nested (not expected today, but harmless).
    flushCompute(s);
    s.lastWasRmw = false; // A sync op is an intervening operation.
    Op op;
    op.addr = word;
    switch (kind) {
      case rt::SyncKind::LockTS: op.kind = OpKind::SyncLockTS; break;
      case rt::SyncKind::LockTTS: op.kind = OpKind::SyncLockTTS; break;
      case rt::SyncKind::BarrierArrive:
        op.kind = OpKind::SyncBarrier;
        break;
      case rt::SyncKind::FlagWait:
        op.kind = OpKind::SyncFlagWait;
        op.value = value;
        break;
    }
    s.ops.push_back(op);
}

void
Recorder::onSyncEnd(net::NodeId n)
{
    Stream &s = stream(n);
    ABSIM_CHECK(s.suppress > 0, "unbalanced onSyncEnd");
    --s.suppress;
}

void
Recorder::onUntraceable(const char *why)
{
    if (replayable_) {
        replayable_ = false;
        untraceableWhy_ = why;
    }
}

Trace
Recorder::take(const std::string &app, const apps::AppParams &params)
{
    Trace trace;
    trace.procs = static_cast<std::uint32_t>(streams_.size());
    trace.replayable = replayable_;
    trace.untraceableWhy = untraceableWhy_;
    trace.app = app;
    trace.n = params.n;
    trace.seed = params.seed;
    trace.iterations = params.iterations;
    trace.variant = params.variant;
    trace.phaseNames = std::move(phaseNames_);
    trace.setup = std::move(setup_);
    for (const auto &[addr, value] : initials_) {
        SetupOp op;
        op.kind = SetupOp::InitValue;
        op.a = addr;
        op.b = value;
        trace.setup.push_back(op);
    }
    // The streams stay Op vectors until here: onWriteValue and onRmw
    // rewrite the latest op, and which write values replay can drop is
    // only known once every stream's value words are.
    std::vector<std::vector<Op>> ops;
    ops.reserve(streams_.size());
    for (Stream &s : streams_) {
        ABSIM_CHECK(s.suppress == 0, "worker ended inside a sync op");
        flushCompute(s);
        ops.push_back(std::move(s.ops));
    }
    encodeStreams(trace, ops);
    return trace;
}

} // namespace absim::trace
