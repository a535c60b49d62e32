/**
 * @file
 * Structured run failures and the Result type returned by
 * core::runOneSafe().
 *
 * A 20-figure sweep must survive a single bad point: instead of letting
 * a wedged fiber or a failed invariant abort the whole figure binary,
 * runOneSafe() classifies every failure into this taxonomy and returns
 * it as a value the sweep layer can journal, report and route around
 * (see docs/ROBUSTNESS.md).
 */

#ifndef ABSIM_CORE_RUN_ERROR_HH
#define ABSIM_CORE_RUN_ERROR_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "sim/watchdog.hh"

namespace absim::core {

/** Why a simulation run failed. */
enum class RunErrorKind
{
    /** All fibers blocked / no sim-time progress (watchdog fired). */
    Deadlock,

    /** A RunBudget limit (events, sim time, wall clock) tripped. */
    BudgetExceeded,

    /** An ABSIM_CHECK invariant failed (coherence, conservation, ...). */
    CheckFailed,

    /** The application's numerical result check failed. */
    AppValidationFailed,

    /** Any other exception escaped the run. */
    Panic,
};

std::string toString(RunErrorKind kind);

/** Everything known about one failed run. */
struct RunError
{
    RunErrorKind kind = RunErrorKind::Panic;
    std::string message;

    /** Engine state when the failure surfaced (0 if unknown). */
    std::uint64_t eventsDispatched = 0;
    sim::Tick simTime = 0;

    /** Blocked-fiber dump (Deadlock / BudgetExceeded). */
    std::vector<sim::BlockedProcessInfo> blockedFibers;

    /** Attempts consumed, including retries (>= 1). */
    int attempts = 1;

    /** Bounded tail of the final attempt's trace, captured when the
     *  policy asked for it (RunPolicy::traceMask); "" otherwise. */
    std::string traceExcerpt;
};

/** Multi-line human-readable report (kind, engine state, fiber dump). */
std::ostream &operator<<(std::ostream &os, const RunError &error);

/**
 * Minimal success-or-error sum type (std::expected is C++23; this is
 * the subset the harness needs).  T and E must be distinct types.
 */
template <typename T, typename E>
class [[nodiscard]] Result
{
  public:
    Result(T value) : data_(std::in_place_index<0>, std::move(value)) {}
    Result(E error) : data_(std::in_place_index<1>, std::move(error)) {}

    bool ok() const { return data_.index() == 0; }
    explicit operator bool() const { return ok(); }

    T &value() { return std::get<0>(data_); }
    const T &value() const { return std::get<0>(data_); }

    E &error() { return std::get<1>(data_); }
    const E &error() const { return std::get<1>(data_); }

  private:
    std::variant<T, E> data_;
};

} // namespace absim::core

#endif // ABSIM_CORE_RUN_ERROR_HH
