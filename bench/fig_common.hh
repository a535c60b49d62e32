/**
 * @file
 * The settings parsing shared by the two experiment programs: the
 * figure program (figure.cc, one row of core::kFigures) and the
 * ablation program (ablation.cc, one row of core::kAblations).
 *
 * Each program's settings are the rows of the run-settings table it
 * takes (its core::Taker bit), each a --flag or an ABSIM_* variable;
 * docs/API.md tables them.  A bad value or an unknown argument prints
 * the diagnostic and the program's usage, and the program exits 2.
 */

#ifndef ABSIM_BENCH_FIG_COMMON_HH
#define ABSIM_BENCH_FIG_COMMON_HH

#include <iostream>
#include <string>

#include "core/env.hh"
#include "core/run_settings.hh"

namespace absim::bench {

/** Print @p error and the usage of the rows @p takers take; main then
 *  exits 2. */
inline void
printUsageError(const std::string &error, unsigned takers, int argc,
                char **argv)
{
    std::cerr << "error: " << error << "\n\nusage: "
              << (argc > 0 ? argv[0] : "bench") << " [options]\n"
              << core::runSettingsUsage(takers);
}

/**
 * Apply the settings the @p takers programs take from the environment
 * and argv into @p out.  On a bad value or an unknown argument, print
 * the diagnostic and the usage and return false: main exits 2.  The
 * figure program also refuses the variables it read before these were
 * settings, rather than run without the budget, trace or mode asked
 * for.
 */
inline bool
parseSettings(unsigned takers, int argc, char **argv, core::Settings &out)
{
    static const char *const kRenamed[][2] = {
        {"ABSIM_WALL_SECONDS", "ABSIM_DEADLINE_S"},
        {"ABSIM_FAIL_TRACE", "ABSIM_TRACE"},
        {"ABSIM_REPLAY", "ABSIM_MODE=replay"},
    };
    std::string error;
    for (const auto &[old_name, new_name] : kRenamed)
        if ((takers & core::kFigure) != 0 &&
            core::envString(old_name) != nullptr) {
            error = std::string(old_name) + " is no longer read; set " +
                    new_name + " instead";
            break;
        }
    if (error.empty() &&
        core::applySettings(takers, argc, argv, out, error))
        return true;
    printUsageError(error, takers, argc, argv);
    return false;
}

} // namespace absim::bench

#endif // ABSIM_BENCH_FIG_COMMON_HH
