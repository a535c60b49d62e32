/**
 * @file
 * Lightweight category-based tracing (the gem5 DPRINTF idiom).
 *
 * Tracing is off by default and costs one branch per site.  Tests and
 * debugging sessions enable categories and install a sink:
 *
 *     sim::Trace::instance().enable(sim::TraceCategory::Protocol);
 *     sim::Trace::instance().setSink(&std::cerr);
 *     ...
 *     ABSIM_TRACE(eq, Protocol, "read miss blk=" << blk);
 */

#ifndef ABSIM_SIM_TRACE_HH
#define ABSIM_SIM_TRACE_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>

#include "sim/types.hh"

namespace absim::sim {

/** Trace categories, one bit each. */
enum class TraceCategory : std::uint32_t
{
    Protocol = 1u << 0, ///< Directory/coherence transactions.
    Network = 1u << 1,  ///< Link-level transfers.
    LogP = 1u << 2,     ///< LogP message timing.
    Runtime = 1u << 3,  ///< Processor-level events.
};

/** All four category bits, the "all" spelling of parseTraceMask(). */
inline constexpr std::uint32_t kAllTraceCategories = 0xf;

/** Each category's name, indexed by its bit: what parseTraceMask()
 *  reads besides "all". */
inline constexpr std::array<std::string_view, 4> kTraceCategoryNames = {
    "protocol", "network", "logp", "runtime"};

/**
 * Parse a comma-separated category list ("protocol,logp", or "all")
 * into a bitmask.  Used by the run-settings "trace" row (--trace,
 * ABSIM_TRACE, a serve request's "trace").
 * @return false on an empty list or an unknown name.
 */
[[nodiscard]] inline bool
parseTraceMask(std::string_view text, std::uint32_t &mask)
{
    std::uint32_t out = 0;
    while (!text.empty()) {
        const auto comma = text.find(',');
        const std::string_view name = text.substr(0, comma);
        const auto it = std::find(kTraceCategoryNames.begin(),
                                  kTraceCategoryNames.end(), name);
        if (name == "all")
            out |= kAllTraceCategories;
        else if (it != kTraceCategoryNames.end())
            out |= 1u << (it - kTraceCategoryNames.begin());
        else
            return false;
        if (comma == std::string_view::npos)
            break;
        text.remove_prefix(comma + 1);
    }
    if (out == 0)
        return false;
    mask = out;
    return true;
}

/**
 * Trace configuration and sink.
 *
 * Exactly one Trace is *current* per thread at any time: the thread's
 * ambient default (what instance() returns on a fresh thread), or
 * whatever a ScopedTrace — usually a core::RunContext — installed.
 * Keeping the current-trace pointer thread_local lets N concurrent
 * simulations trace to N different sinks without interleaving.
 */
class Trace
{
  public:
    Trace() = default;

    /** The current thread's active trace. */
    static Trace &instance();

    void
    enable(TraceCategory category)
    {
        mask_ |= static_cast<std::uint32_t>(category);
    }

    void
    disable(TraceCategory category)
    {
        mask_ &= ~static_cast<std::uint32_t>(category);
    }

    void disableAll() { mask_ = 0; }

    bool
    enabled(TraceCategory category) const
    {
        return (mask_ & static_cast<std::uint32_t>(category)) != 0;
    }

    /** The raw category bitmask (for snapshotting into a run context). */
    std::uint32_t mask() const { return mask_; }
    void setMask(std::uint32_t mask) { mask_ = mask; }

    /** Sink defaults to std::cerr; never null. */
    void setSink(std::ostream *sink) { sink_ = sink ? sink : &std::cerr; }
    std::ostream &sink() { return *sink_; }

    /** Emit one line: "<tick>: <category>: <message>". */
    void
    emit(Tick now, const char *category, const std::string &message)
    {
        (*sink_) << now << ": " << category << ": " << message << "\n";
    }

  private:
    std::uint32_t mask_ = 0;
    std::ostream *sink_ = &std::cerr;
};

namespace detail {
/** The thread's current trace; nullptr until first use (constinit keeps
 *  the trace-site load free of a TLS init guard). */
inline thread_local constinit Trace *tl_trace = nullptr;

/** The thread's ambient fallback trace. */
inline Trace &
threadDefaultTrace()
{
    static thread_local Trace trace;
    return trace;
}
} // namespace detail

inline Trace &
Trace::instance()
{
    if (detail::tl_trace == nullptr) [[unlikely]]
        detail::tl_trace = &detail::threadDefaultTrace();
    return *detail::tl_trace;
}

/**
 * A trace sink that keeps only the *tail* of what was written, bounded
 * to @p limit bytes.  Failure forensics want the last events before
 * the watchdog fired, not the first megabyte of a wedged run — the
 * resilient sweep attaches one of these per run attempt and embeds
 * excerpt() in the failure manifest (see core::RunPolicy::traceMask).
 */
class BoundedTraceSink : private std::streambuf
{
  public:
    static constexpr std::size_t kDefaultLimit = 4096;

    explicit BoundedTraceSink(std::size_t limit = kDefaultLimit)
        : limit_(limit != 0 ? limit : 1), out_(this)
    {
    }

    BoundedTraceSink(const BoundedTraceSink &) = delete;
    BoundedTraceSink &operator=(const BoundedTraceSink &) = delete;

    /** The ostream to install via Trace::setSink(). */
    std::ostream &stream() { return out_; }

    /** True once writes have overflowed the limit and the head was
     *  dropped. */
    bool truncated() const { return truncated_; }

    /**
     * The captured tail.  When truncated, the (likely partial) first
     * line is dropped and a marker line prepended, so the excerpt
     * always starts on a line boundary.
     */
    std::string excerpt() const
    {
        if (!truncated_)
            return data_;
        std::string out = "[trace tail; head dropped at " +
                          std::to_string(limit_) + " bytes]\n";
        const auto newline = data_.find('\n');
        out += newline == std::string::npos
                   ? data_
                   : data_.substr(newline + 1);
        return out;
    }

    bool empty() const { return data_.empty(); }

  protected:
    int_type overflow(int_type ch) override
    {
        if (ch != traits_type::eof()) {
            data_ += static_cast<char>(ch);
            trim();
        }
        return ch;
    }

    std::streamsize xsputn(const char *s, std::streamsize n) override
    {
        // Oversized writes keep only their own tail.
        if (static_cast<std::size_t>(n) > limit_) {
            truncated_ = true;
            s += n - static_cast<std::streamsize>(limit_);
            data_.append(s, limit_);
        } else {
            data_.append(s, static_cast<std::size_t>(n));
        }
        trim();
        return n;
    }

  private:
    void trim()
    {
        if (data_.size() > limit_) {
            data_.erase(0, data_.size() - limit_);
            truncated_ = true;
        }
    }

    std::size_t limit_;
    std::string data_;
    bool truncated_ = false;
    std::ostream out_;
};

/**
 * RAII: install @p trace as the current thread's trace and restore the
 * previous one on destruction.  core::RunContext uses this to give
 * every simulation run its own trace configuration.
 */
class ScopedTrace
{
  public:
    explicit ScopedTrace(Trace &trace) : prev_(&Trace::instance())
    {
        detail::tl_trace = &trace;
    }

    ~ScopedTrace() { detail::tl_trace = prev_; }

    ScopedTrace(const ScopedTrace &) = delete;
    ScopedTrace &operator=(const ScopedTrace &) = delete;

  private:
    Trace *prev_;
};

/**
 * Trace site macro: evaluates the streamed expression only when the
 * category is enabled.
 *
 * @param eq   An EventQueue (for the timestamp).
 * @param cat  A TraceCategory enumerator name (unqualified).
 * @param expr An ostream expression chain.
 */
#define ABSIM_TRACE(eq, cat, expr) ABSIM_TRACE_AT((eq).now(), cat, expr)

/** Like ABSIM_TRACE but with an explicit timestamp. */
#define ABSIM_TRACE_AT(tick, cat, expr)                                    \
    do {                                                                   \
        auto &trace_ = ::absim::sim::Trace::instance();                    \
        if (trace_.enabled(::absim::sim::TraceCategory::cat)) {            \
            std::ostringstream oss_;                                       \
            oss_ << expr;                                                  \
            trace_.emit((tick), #cat, oss_.str());                         \
        }                                                                  \
    } while (0)

} // namespace absim::sim

#endif // ABSIM_SIM_TRACE_HH
