#include "trace_replay/format.hh"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include <sys/stat.h> // fstat
#include <unistd.h>   // fsync

#include "check/check.hh"
#include "json/json.hh"

namespace absim::trace {

namespace {

// ------------------------------------------------------- binary body

void
putVarint(std::string &out, std::uint64_t v)
{
    while (v >= 0x80) {
        out += static_cast<char>((v & 0x7f) | 0x80);
        v >>= 7;
    }
    out += static_cast<char>(v);
}

bool
getVarint(std::string_view in, std::size_t &at, std::uint64_t &out)
{
    out = 0;
    for (unsigned shift = 0; shift < 64; shift += 7) {
        if (at >= in.size())
            return false;
        const std::uint8_t byte = static_cast<std::uint8_t>(in[at++]);
        out |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
        if ((byte & 0x80) == 0)
            return true;
    }
    return false; // Over-long encoding: torn or hostile file.
}

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

std::uint64_t
fnv1a(std::string_view data)
{
    std::uint64_t h = kFnvOffset;
    for (const char c : data) {
        h ^= static_cast<std::uint8_t>(c);
        h *= kFnvPrime;
    }
    return h;
}

/** True for the ops whose replay reads the value store. */
bool
readsValue(OpKind kind)
{
    switch (kind) {
      case OpKind::RmwFetchAdd:
      case OpKind::RmwTestAndSet:
      case OpKind::SyncLockTS:
      case OpKind::SyncLockTTS:
      case OpKind::SyncBarrier:
      case OpKind::SyncFlagWait:
        return true;
      default:
        return false;
    }
}

/** The op byte's width code for @p op (see StreamReader), given the
 *  delta from the stream's previous address. */
std::uint8_t
widthCode(const Op &op, std::uint64_t delta)
{
    if (op.bytes == 0)
        return 0;
    for (std::uint8_t w = 1; w < 7; ++w)
        if (op.bytes == 1u << (w - 1))
            return delta % op.bytes == 0 ? w : 7;
    return 7;
}

/** True if @p op's encoding carries its value (see StreamReader). */
bool
keepsValue(const Op &op, const std::vector<mem::Addr> &valueWords)
{
    if (op.value == 0)
        return false; // Decodes as 0.
    switch (op.kind) {
      case OpKind::Compute:
      case OpKind::RmwFetchAdd:
      case OpKind::DepWrite:
      case OpKind::SyncFlagWait:
        return true;
      case OpKind::Write:
        // Replay drops a store to any word but a value word.
        return std::binary_search(valueWords.begin(), valueWords.end(),
                                  op.addr);
      default:
        return false;
    }
}

/** Append @p op to an encoded stream whose previous address is
 *  @p prev. */
void
putOp(std::string &out, mem::Addr &prev, const Op &op,
      const std::vector<mem::Addr> &valueWords)
{
    const bool value = keepsValue(op, valueWords);
    const bool addressed =
        op.kind != OpKind::Compute && op.kind != OpKind::Phase;
    const std::uint64_t delta = addressed ? op.addr - prev : 0;
    const std::uint8_t width = widthCode(op, delta);
    out += static_cast<char>(static_cast<std::uint8_t>(op.kind) |
                             width << 4 | (value ? 0x80 : 0));
    if (width == 7)
        out += static_cast<char>(op.bytes);
    if (op.kind == OpKind::Phase)
        putVarint(out, op.aux);
    if (addressed) {
        // An arithmetic shift: the delta is signed, and a multiple of
        // the width unless the code is 0 or 7.
        const unsigned shift = width == 0 || width == 7 ? 0 : width - 1;
        const std::int64_t units = static_cast<std::int64_t>(delta) >> shift;
        putVarint(out, (static_cast<std::uint64_t>(units) << 1) ^
                           static_cast<std::uint64_t>(units >> 63));
        prev = op.addr;
    }
    if (value)
        putVarint(out, op.value);
}

/** The barrier sense words of @p setup: value words replay reads. */
std::vector<mem::Addr>
setupValueWords(const std::vector<SetupOp> &setup)
{
    std::vector<mem::Addr> words;
    for (const SetupOp &op : setup)
        if (op.kind == SetupOp::Barrier)
            words.push_back(op.b);
    return words;
}

void
sortUnique(std::vector<mem::Addr> &words)
{
    std::sort(words.begin(), words.end());
    words.erase(std::unique(words.begin(), words.end()), words.end());
}

} // namespace

void
encodeStreams(Trace &trace, const std::vector<std::vector<Op>> &ops)
{
    std::vector<mem::Addr> words = setupValueWords(trace.setup);
    for (const std::vector<Op> &stream : ops)
        for (const Op &op : stream)
            if (readsValue(op.kind))
                words.push_back(op.addr);
    sortUnique(words);

    trace.bytes.clear();
    trace.streams.clear();
    for (const std::vector<Op> &stream : ops) {
        Stream encoded;
        encoded.offset = trace.bytes.size();
        encoded.ops = stream.size();
        mem::Addr prev = 0;
        for (const Op &op : stream)
            putOp(trace.bytes, prev, op, words);
        encoded.size = trace.bytes.size() - encoded.offset;
        trace.streams.push_back(encoded);
    }
    trace.valueWords = std::move(words);
}

bool
indexValueWords(Trace &trace)
{
    std::vector<mem::Addr> words = setupValueWords(trace.setup);
    for (const Stream &stream : trace.streams) {
        if (stream.offset > trace.bytes.size() ||
            stream.size > trace.bytes.size() - stream.offset)
            return false;
        StreamReader reader(
            std::string_view(trace.bytes).substr(stream.offset, stream.size));
        Op op;
        // Every op takes at least one byte, so a hostile count stops at
        // the end of the span.
        for (std::uint64_t i = 0; i < stream.ops; ++i) {
            if (!reader.next(op))
                return false;
            if (op.kind == OpKind::Phase &&
                op.aux >= trace.phaseNames.size())
                return false;
            if (readsValue(op.kind))
                words.push_back(op.addr);
        }
        if (!reader.atEnd())
            return false;
    }
    sortUnique(words);
    trace.valueWords = std::move(words);
    return true;
}

std::uint64_t
Trace::opCount() const
{
    std::uint64_t total = 0;
    for (const Stream &stream : streams)
        total += stream.ops;
    return total;
}

std::string_view
Trace::streamBytes(std::size_t p) const
{
    return std::string_view(bytes).substr(streams[p].offset,
                                          streams[p].size);
}

std::string
traceFileName(const std::string &app, const apps::AppParams &params,
              std::uint32_t procs)
{
    // Only [a-z0-9-] survives into the name; anything else (an exotic
    // synthetic variant, say) degrades to '_' — collisions across
    // sanitized variants are acceptable because the header re-checks
    // the exact workload identity at load time.
    auto sanitize = [](const std::string &s) {
        std::string out;
        for (const char c : s)
            out += (std::isalnum(static_cast<unsigned char>(c)) != 0 ||
                    c == '-')
                       ? c
                       : '_';
        return out;
    };
    std::ostringstream oss;
    oss << "trace-v" << kFormatVersion << "-" << sanitize(app) << "-n"
        << params.n << "-s" << params.seed << "-i" << params.iterations;
    if (!params.variant.empty())
        oss << "-" << sanitize(params.variant);
    oss << "-p" << procs << ".abt";
    return oss.str();
}

void
saveTrace(const Trace &trace, const std::string &path)
{
    ABSIM_CHECK(trace.streams.size() == trace.procs,
                "trace has " << trace.streams.size() << " streams for "
                             << trace.procs << " processors");

    std::ostringstream header;
    header << "{\"format\":\"absim-trace\",\"version\":" << kFormatVersion
           << ",\"app\":\"" << json::jsonEscape(trace.app)
           << "\",\"n\":" << trace.n << ",\"seed\":" << trace.seed
           << ",\"iterations\":" << trace.iterations << ",\"variant\":\""
           << json::jsonEscape(trace.variant)
           << "\",\"procs\":" << trace.procs
           << ",\"replayable\":" << (trace.replayable ? "true" : "false")
           << ",\"why\":\"" << json::jsonEscape(trace.untraceableWhy)
           << "\",\"phases\":[";
    for (std::size_t i = 0; i < trace.phaseNames.size(); ++i)
        header << (i != 0 ? "," : "") << "\""
               << json::jsonEscape(trace.phaseNames[i]) << "\"";
    header << "],\"setupOps\":" << trace.setup.size() << ",\"ops\":"
           << trace.opCount() << "}\n";

    std::string blob = header.str();
    for (const SetupOp &op : trace.setup) {
        blob += static_cast<char>(op.kind);
        putVarint(blob, op.a);
        putVarint(blob, op.b);
        putVarint(blob, op.c);
        putVarint(blob, op.d);
    }
    for (std::size_t p = 0; p < trace.streams.size(); ++p) {
        const std::string_view ops = trace.streamBytes(p);
        putVarint(blob, trace.streams[p].ops);
        putVarint(blob, ops.size());
        blob += ops;
    }
    const std::uint64_t sum = fnv1a(blob);
    for (unsigned i = 0; i < 8; ++i)
        blob += static_cast<char>((sum >> (8 * i)) & 0xff);

    // Journal durability discipline: temp sibling, flush, fsync, atomic
    // rename.  Concurrent recorders of the same point race benignly —
    // both write identical bytes and rename is atomic.
    const std::string tmp =
        path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
    std::FILE *file = std::fopen(tmp.c_str(), "wb");
    if (file == nullptr)
        throw std::runtime_error("cannot create trace temp file: " + tmp);
    const bool wrote =
        std::fwrite(blob.data(), 1, blob.size(), file) == blob.size() &&
        std::fflush(file) == 0 && ::fsync(fileno(file)) == 0;
    std::fclose(file);
    if (!wrote || std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        throw std::runtime_error("cannot write trace file: " + path);
    }
}

bool
loadTrace(const std::string &path, Trace &out)
{
    std::FILE *file = std::fopen(path.c_str(), "rb");
    if (file == nullptr)
        return false;
    std::string blob;
    struct stat st{};
    if (::fstat(fileno(file), &st) == 0 && st.st_size > 0)
        blob.reserve(static_cast<std::size_t>(st.st_size));
    char buf[1 << 16];
    std::size_t got;
    while ((got = std::fread(buf, 1, sizeof buf, file)) > 0)
        blob.append(buf, got);
    const bool readOk = std::ferror(file) == 0;
    std::fclose(file);
    if (!readOk || blob.size() < 8)
        return false;

    const std::string_view body(blob.data(), blob.size() - 8);
    std::uint64_t sum = 0;
    for (unsigned i = 0; i < 8; ++i)
        sum |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(
                   blob[blob.size() - 8 + i]))
               << (8 * i);
    if (fnv1a(body) != sum)
        return false; // Torn, truncated or corrupt: a cache miss.

    const std::size_t nl = body.find('\n');
    if (nl == std::string_view::npos)
        return false;

    Trace trace;
    json::Value doc;
    if (!json::parse(body.substr(0, nl), doc))
        return false;
    const json::Value *replayable = doc.find("replayable");
    const json::Value *phases = doc.find("phases");
    std::string format;
    std::uint64_t version = 0, n = 0, seed = 0, iterations = 0, procs = 0,
                  setupOps = 0, ops = 0;
    if (!json::getString(doc, "format", format) ||
        format != "absim-trace" || !json::getUint(doc, "version", version) ||
        version != kFormatVersion ||
        !json::getString(doc, "app", trace.app) ||
        !json::getUint(doc, "n", n) || !json::getUint(doc, "seed", seed) ||
        !json::getUint(doc, "iterations", iterations) ||
        !json::getString(doc, "variant", trace.variant) ||
        !json::getUint(doc, "procs", procs) || replayable == nullptr ||
        replayable->type != json::Type::Bool ||
        !json::getString(doc, "why", trace.untraceableWhy) ||
        phases == nullptr || phases->type != json::Type::Array ||
        !json::getUint(doc, "setupOps", setupOps) ||
        !json::getUint(doc, "ops", ops))
        return false;
    // Range-check before narrowing: 2^32+1 must not load as 1.
    if (procs == 0 || procs > mem::kMaxNodes || iterations > UINT32_MAX)
        return false;
    trace.n = n;
    trace.seed = seed;
    trace.iterations = static_cast<std::uint32_t>(iterations);
    trace.procs = static_cast<std::uint32_t>(procs);
    trace.replayable = replayable->text == "true";
    trace.phaseNames.clear();
    for (const json::Value &name : phases->items) {
        if (!name.isString())
            return false;
        trace.phaseNames.push_back(name.text);
    }
    if (trace.phaseNames.empty() || trace.phaseNames[0] != "main")
        return false;

    // Every record takes at least kMinRecordBytes (a kind byte plus
    // one-byte fields), so a count the remaining body cannot hold is
    // rejected before it sizes a reservation: the checksum is FNV-1a,
    // not authentication.
    constexpr std::size_t kMinRecordBytes = 5;
    std::size_t at = nl + 1;
    if (setupOps > (body.size() - at) / kMinRecordBytes)
        return false;
    trace.setup.reserve(setupOps);
    for (std::uint64_t i = 0; i < setupOps; ++i) {
        if (at >= body.size())
            return false;
        SetupOp op;
        op.kind = static_cast<std::uint8_t>(body[at++]);
        if (op.kind > SetupOp::InitValue)
            return false;
        if (!getVarint(body, at, op.a) || !getVarint(body, at, op.b) ||
            !getVarint(body, at, op.c) || !getVarint(body, at, op.d))
            return false;
        trace.setup.push_back(op);
    }
    // Each stream is its op count, its byte length and its ops, which
    // stay where they are: the file's bytes become the trace's.
    trace.streams.resize(trace.procs);
    std::uint64_t totalOps = 0;
    for (Stream &stream : trace.streams) {
        std::uint64_t size = 0;
        if (!getVarint(body, at, stream.ops) || !getVarint(body, at, size) ||
            size > body.size() - at || stream.ops > size)
            return false; // Every op takes at least one byte.
        stream.offset = at;
        stream.size = size;
        at += size;
        totalOps += stream.ops;
    }
    if (at != body.size() || totalOps != ops)
        return false;

    trace.bytes = std::move(blob);
    if (!indexValueWords(trace))
        return false;
    out = std::move(trace);
    return true;
}

} // namespace absim::trace
