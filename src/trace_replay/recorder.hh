/**
 * @file
 * The trace recorder: a rt::RefSink that turns the runtime's callback
 * stream into a machine-independent Trace (see format.hh).
 *
 * Three transformations happen at record time:
 *   - consecutive computation charges coalesce into one Compute op
 *     (timing-equivalent: the engine is only consulted at accesses);
 *   - everything between onSyncBegin()/onSyncEnd() is dropped — the
 *     semantic operation is stored instead and its machine-dependent
 *     spin traffic is regenerated per machine at replay;
 *   - a write whose element index equals the processor's immediately
 *     preceding fetch&add result is stored as DepWrite (base + scale),
 *     so replay re-derives the slot from the *replayed* RMW result and
 *     the trace stays valid on machines that order the RMWs
 *     differently.  This is a heuristic: an independent write whose
 *     index coincides with the last RMW result is mis-classified, which
 *     only matters across machines (docs/TRACING.md discusses why this
 *     is benign for the paper's applications).
 */

#ifndef ABSIM_TRACE_REPLAY_RECORDER_HH
#define ABSIM_TRACE_REPLAY_RECORDER_HH

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "runtime/ref_sink.hh"
#include "trace_replay/format.hh"

namespace absim::trace {

class Recorder final : public rt::RefSink
{
  public:
    explicit Recorder(std::uint32_t procs);

    // RefSink interface (runtime callbacks, execution order).
    void onCompute(net::NodeId n, sim::Duration ns) override;
    void onAccess(net::NodeId n, mem::Addr addr, mach::AccessType type,
                  std::uint32_t bytes) override;
    void onWriteValue(net::NodeId n, std::uint64_t bits,
                      std::uint64_t index) override;
    void onRmw(net::NodeId n, rt::RmwOp op, std::uint64_t operand,
               std::uint64_t result) override;
    void onPhase(net::NodeId n, const std::string &name) override;
    void onAlloc(mem::Addr base, std::uint64_t bytes,
                 std::uint8_t placement, net::NodeId node) override;
    void onBarrierCtor(mem::Addr count_addr, mem::Addr sense_addr,
                       std::uint32_t parties) override;
    void onSyncBegin(net::NodeId n, rt::SyncKind kind, mem::Addr word,
                     std::uint64_t value) override;
    void onSyncEnd(net::NodeId n) override;
    void onUntraceable(const char *why) override;

    /**
     * Finalize into a Trace (flushes pending computation, appends the
     * InitValue setup records, encodes the streams).  The recorder is
     * spent afterwards.
     */
    Trace take(const std::string &app, const apps::AppParams &params);

  private:
    struct Stream
    {
        std::vector<Op> ops;
        sim::Duration pendingCompute = 0;
        unsigned suppress = 0; ///< Synchronization nesting depth.
        bool lastWasRmw = false;
        std::uint64_t lastRmwResult = 0;
        mem::Addr lastAddr = 0; ///< Address of the latest access op.
    };

    Stream &stream(net::NodeId n) { return streams_[n]; }
    void flushCompute(Stream &s);
    std::uint32_t phaseIndex(const std::string &name);

    std::vector<Stream> streams_;
    std::vector<std::string> phaseNames_ = {"main"};
    std::vector<SetupOp> setup_;

    /** Words already touched by a simulated write/RMW: their replay
     *  value-store state is derivable from the stream itself. */
    std::set<mem::Addr> defined_;

    /** Setup-time contents of words whose first simulated touch was an
     *  RMW (only nonzero ones need a record: the store defaults to 0). */
    std::map<mem::Addr, std::uint64_t> initials_;

    bool replayable_ = true;
    std::string untraceableWhy_;
};

} // namespace absim::trace

#endif // ABSIM_TRACE_REPLAY_RECORDER_HH
