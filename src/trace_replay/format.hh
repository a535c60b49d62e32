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
 * Layout of a trace file (version 2):
 *   - line 1: a JSON header (`{"format":"absim-trace", "version":2, ...}`)
 *     ending in '\n' — human-inspectable with `head -1`;
 *   - a binary body: varint-encoded setup records, then each
 *     processor's stream as its op count, its byte length and its
 *     encoded ops (see StreamReader for the op encoding);
 *   - an 8-byte little-endian FNV-1a checksum of header + body.
 * Files are written via the journal durability discipline (temp file,
 * flush, fsync, atomic rename), so a crash mid-write leaves either the
 * old trace or a temp file that loaders ignore; a torn or truncated
 * trace fails its checksum and is treated as a cache miss.
 *
 * In memory a trace keeps its streams encoded: a loaded trace holds the
 * file's bytes and replay decodes each op as its processor reaches it.
 */

#ifndef ABSIM_TRACE_REPLAY_FORMAT_HH
#define ABSIM_TRACE_REPLAY_FORMAT_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "apps/app.hh"
#include "mem/addr.hh"
#include "sim/types.hh"

namespace absim::trace {

/** Bumped whenever the header schema or body encoding changes; part of
 *  the file name, so incompatible formats never collide on disk. */
constexpr std::uint32_t kFormatVersion = 2;

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

/** One processor's encoded stream: a span of Trace::bytes. */
struct Stream
{
    std::size_t offset = 0; ///< First byte in Trace::bytes.
    std::size_t size = 0;   ///< Encoded bytes.
    std::uint64_t ops = 0;  ///< Operations encoded.
};

/** A loaded or recorded trace: header fields, setup, encoded streams. */
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

    /** Storage of the encoded streams: a loaded trace's whole file, a
     *  recorded trace's streams back to back. */
    std::string bytes;
    std::vector<Stream> streams; ///< One stream per processor.

    /**
     * The words whose values replay reads, sorted and unique: the
     * address of every RMW and synchronization op plus the sense word
     * of every barrier.  Derived by encodeStreams() and
     * indexValueWords(), never serialized; replay keeps a value only
     * for these words.
     */
    std::vector<mem::Addr> valueWords;

    /** Total recorded operations across all processors. */
    std::uint64_t opCount() const;

    /** Processor @p p's encoded ops. */
    std::string_view streamBytes(std::size_t p) const;
};

/**
 * The one decoder of an encoded stream, op by op.  Each op is:
 *   - one op byte: the kind in bits 0-3; in bits 4-6 the width code w,
 *     log2 of the width plus one (w = 0: no width; w = 7: the width
 *     follows as one byte); in bit 7 whether a value follows;
 *   - for every kind but Compute and Phase, the address as a zigzag
 *     varint delta from the stream's previous address, counted in units
 *     of the width for w = 1..6 and in bytes for w = 0 and w = 7 (the
 *     encoder's escape for a delta that is not a multiple of the
 *     width);
 *   - for Phase, aux as a varint;
 *   - the value as a varint when bit 7 is set (else it is 0).
 * Only the kinds whose replay reads the value carry one, a plain Write
 * only when its word is a value word (docs/TRACING.md), and a zero value
 * is left out.
 */
class StreamReader
{
  public:
    StreamReader() = default;
    explicit StreamReader(std::string_view bytes) : bytes_(bytes) {}

    /** True once every byte is decoded. */
    bool atEnd() const { return at_ == bytes_.size(); }

    /**
     * Decode the next op into @p op.
     * @return false on a truncated or malformed record (an unknown
     *         kind, an over-long varint).
     */
    bool
    next(Op &op)
    {
        if (at_ >= bytes_.size())
            return false;
        const std::uint8_t head = static_cast<std::uint8_t>(bytes_[at_++]);
        const std::uint8_t kind = head & 0x0f;
        const std::uint8_t width = (head >> 4) & 0x07;
        if (kind >= kOpKinds)
            return false;
        op.kind = static_cast<OpKind>(kind);
        if (width == 7) {
            if (at_ >= bytes_.size())
                return false;
            op.bytes = static_cast<std::uint8_t>(bytes_[at_++]);
        } else {
            op.bytes =
                width == 0 ? 0 : static_cast<std::uint8_t>(1u << (width - 1));
        }
        op.aux = 0;
        op.value = 0;
        if (op.kind == OpKind::Phase) {
            std::uint64_t aux = 0;
            if (!varint(aux) || aux > UINT32_MAX)
                return false;
            op.aux = static_cast<std::uint32_t>(aux);
            op.addr = 0;
        } else if (op.kind == OpKind::Compute) {
            op.addr = 0;
        } else {
            std::uint64_t zigzag = 0;
            if (!varint(zigzag))
                return false;
            const unsigned shift = width == 0 || width == 7 ? 0 : width - 1;
            addr_ += ((zigzag >> 1) ^ (0 - (zigzag & 1))) << shift;
            op.addr = addr_;
        }
        return (head & 0x80) == 0 || varint(op.value);
    }

  private:
    bool
    varint(std::uint64_t &out)
    {
        out = 0;
        for (unsigned shift = 0; shift < 64; shift += 7) {
            if (at_ >= bytes_.size())
                return false;
            const auto byte = static_cast<std::uint8_t>(bytes_[at_++]);
            out |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
            if ((byte & 0x80) == 0)
                return true;
        }
        return false; // Over-long encoding: torn or hostile bytes.
    }

    std::string_view bytes_;
    std::size_t at_ = 0;
    mem::Addr addr_ = 0; ///< The previous address op's address.
};

/**
 * Encode @p ops (one vector per processor) as @p trace's streams, the
 * one encoder: first index trace.valueWords from trace.setup and
 * @p ops, then encode each op, keeping a plain Write's value only if its
 * word is a value word (replay drops every other store).  Both trace
 * producers — Recorder::take and a test that builds a trace by hand —
 * go through it.
 */
void encodeStreams(Trace &trace, const std::vector<std::vector<Op>> &ops);

/**
 * Decode every stream of @p trace once, checking each record, and fill
 * trace.valueWords from the setup records and the streams.  loadTrace
 * validates a file with it.
 * @return false if a stream is malformed: a bad record, a phase index
 *         outside phaseNames, an op count or byte length that does not
 *         match its stream, or a span outside trace.bytes.
 */
bool indexValueWords(Trace &trace);

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
 * Load a trace, keeping the file's bytes as its encoded streams and
 * validating every record once (indexValueWords).  @return false —
 * never throws for data reasons — when the file is missing, torn, fails
 * its checksum, carries a different format version (a version 1 file
 * included), or holds a malformed record; callers treat all of those as
 * a cache miss.
 */
bool loadTrace(const std::string &path, Trace &out);

} // namespace absim::trace

#endif // ABSIM_TRACE_REPLAY_FORMAT_HH
