/**
 * @file
 * The on-disk trace format (paper Section 2's "abstracted workload"):
 * one file per (application, input, P) point holding the semantic
 * shared-reference stream of every processor, machine-independent by
 * construction — synchronization is stored as one semantic operation
 * (spins are regenerated per machine at replay), RMW results are
 * regenerated from a replayed value store, and the allocator layout is
 * stored as setup records so replay rebuilds the identical address
 * space.  See docs/TRACING.md for the format's validity argument.
 *
 * Layout of a trace file (version 1):
 *   - line 1: a JSON header (`{"format":"absim-trace", "version":1, ...}`)
 *     ending in '\n' — human-inspectable with `head -1`;
 *   - a binary body: varint-encoded setup records, then each
 *     processor's operation stream;
 *   - an 8-byte little-endian FNV-1a checksum of header + body.
 * Files are written via the journal durability discipline (temp file,
 * flush, fsync, atomic rename), so a crash mid-write leaves either the
 * old trace or a temp file that loaders ignore; a torn or truncated
 * trace fails its checksum and is treated as a cache miss.
 */

#ifndef ABSIM_TRACE_REPLAY_FORMAT_HH
#define ABSIM_TRACE_REPLAY_FORMAT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "apps/app.hh"
#include "mem/addr.hh"
#include "sim/types.hh"

namespace absim::trace {

/** Bumped whenever the header schema or body encoding changes; part of
 *  the file name, so incompatible formats never collide on disk. */
constexpr std::uint32_t kFormatVersion = 1;

/** One recorded operation of a processor's reference stream. */
enum class OpKind : std::uint8_t
{
    Compute,       ///< value = nanoseconds of local computation.
    Read,          ///< bytes, addr.
    Write,         ///< bytes, addr; value = stored bits (hint only).
    RmwFetchAdd,   ///< bytes, addr; value = addend bits.
    RmwTestAndSet, ///< bytes, addr.
    /** A write whose slot depends on the result of this processor's
     *  immediately preceding fetch&add (e.g. `out[old++] = v`): the
     *  target is regenerated at replay as addr + old * bytes, keeping
     *  the trace valid on machines where the RMW returns a different
     *  value than it did at record time. */
    DepWrite,      ///< bytes = scale, addr = base; value = stored bits.
    Phase,         ///< aux = index into Trace::phaseNames.
    SyncLockTS,    ///< addr = lock word (plain test&set acquire).
    SyncLockTTS,   ///< addr = lock word (test-test&set acquire).
    SyncBarrier,   ///< addr = barrier count word.
    SyncFlagWait,  ///< addr = flag word; value = awaited value.
};

constexpr std::uint8_t kOpKinds =
    static_cast<std::uint8_t>(OpKind::SyncFlagWait) + 1;

struct Op
{
    OpKind kind = OpKind::Compute;
    std::uint8_t bytes = 0;
    std::uint32_t aux = 0;
    std::uint64_t addr = 0;
    std::uint64_t value = 0;

    friend bool
    operator==(const Op &l, const Op &r)
    {
        return l.kind == r.kind && l.bytes == r.bytes && l.aux == r.aux &&
               l.addr == r.addr && l.value == r.value;
    }
};

/** Pre-run state the replay must rebuild before interpreting streams. */
struct SetupOp
{
    enum : std::uint8_t
    {
        /** a = requested bytes, b = placement, c = node,
         *  d = expected base address (layout determinism check). */
        Alloc = 0,
        /** a = count word, b = sense word, c = parties. */
        Barrier = 1,
        /** a = address, b = value: setup-time contents of a word whose
         *  first simulated touch is an RMW (the heap is zero-initialized
         *  otherwise, so only nonzero first-RMW words need a record). */
        InitValue = 2,
    };

    std::uint8_t kind = Alloc;
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    std::uint64_t c = 0;
    std::uint64_t d = 0;

    friend bool
    operator==(const SetupOp &l, const SetupOp &r)
    {
        return l.kind == r.kind && l.a == r.a && l.b == r.b &&
               l.c == r.c && l.d == r.d;
    }
};

/** A fully-loaded trace: header fields + setup + per-processor streams. */
struct Trace
{
    std::uint32_t procs = 0;

    /** False when the run used a facility replay cannot reproduce
     *  (message-passing); replay then falls back to execution. */
    bool replayable = true;
    std::string untraceableWhy;

    // Workload identity (mirrors apps::AppParams).
    std::string app;
    std::uint64_t n = 0;
    std::uint64_t seed = 0;
    std::uint32_t iterations = 0;
    std::string variant;

    /** Phase name table; index 0 is always the implicit "main". */
    std::vector<std::string> phaseNames = {"main"};

    std::vector<SetupOp> setup;
    std::vector<std::vector<Op>> streams; ///< One stream per processor.

    /**
     * The words whose values replay reads, sorted and unique: the
     * address of every RMW and synchronization op plus the sense word
     * of every barrier.  Derived from setup and streams by
     * indexValueWords(), never serialized; replay keeps a value only
     * for these words.
     */
    std::vector<mem::Addr> valueWords;

    /** Total recorded operations across all processors. */
    std::uint64_t opCount() const;
};

/**
 * Fill @p trace.valueWords from its setup records and streams.  Both
 * trace producers (loadTrace and Recorder::take) call it; a trace built
 * by hand must call it before replay.
 */
void indexValueWords(Trace &trace);

/**
 * Machine-independent file name for the trace of one workload point
 * (directory not included).  Encodes the format version, so a format
 * bump invalidates old caches by construction.
 */
std::string traceFileName(const std::string &app,
                          const apps::AppParams &params,
                          std::uint32_t procs);

/**
 * Serialize @p trace to @p path durably: written to a sibling temp
 * file, flushed, fsynced, then atomically renamed over @p path.
 * @throws std::runtime_error on I/O failure.
 */
void saveTrace(const Trace &trace, const std::string &path);

/**
 * Load a trace.  @return false — never throws for data reasons — when
 * the file is missing, torn, fails its checksum, or carries a different
 * format version; callers treat all of those as a cache miss.
 */
bool loadTrace(const std::string &path, Trace &out);

} // namespace absim::trace

#endif // ABSIM_TRACE_REPLAY_FORMAT_HH
