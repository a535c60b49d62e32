#include "core/run_error.hh"

#include <ostream>

namespace absim::core {

std::string
toString(RunErrorKind kind)
{
    switch (kind) {
      case RunErrorKind::Deadlock:
        return "Deadlock";
      case RunErrorKind::BudgetExceeded:
        return "BudgetExceeded";
      case RunErrorKind::CheckFailed:
        return "CheckFailed";
      case RunErrorKind::AppValidationFailed:
        return "AppValidationFailed";
      case RunErrorKind::Panic:
        return "Panic";
    }
    return "?";
}

std::ostream &
operator<<(std::ostream &os, const RunError &error)
{
    os << "run failed: " << toString(error.kind);
    if (error.attempts > 1)
        os << " (after " << error.attempts << " attempts)";
    os << "\n  " << error.message << "\n";
    if (error.eventsDispatched > 0 || error.simTime > 0)
        os << "  engine: " << error.eventsDispatched
           << " events dispatched, sim time " << error.simTime << " ns\n";
    if (!error.blockedFibers.empty())
        os << "  " << sim::formatBlockedDump(error.blockedFibers) << "\n";
    if (!error.traceExcerpt.empty())
        os << "  trace tail:\n" << error.traceExcerpt;
    return os;
}

} // namespace absim::core
