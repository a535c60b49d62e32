/// The grid ablations: run one row of core::kAblations.
///
///   ablation --ablation g_usage       (the Section 7 g-usage ablation)
///   ABSIM_ABLATION=protocol ablation --jobs 4
///
/// Each ablation is a grid of runs (the paper's Section 7 g-usage
/// experiment or simulation-speed table, the quadrant study, or one of
/// the extension studies) printed one line per row;
/// src/core/ablations.cc lists the rows with the claim each one tests.
/// --jobs N / ABSIM_JOBS runs the cells on a worker pool and prints the
/// same output for any N.
///
/// Exit status: 0 when every cell ran, 3 if any failed (each named on
/// stderr), 2 on a bad command line or environment value.
#include <iostream>

#include "core/ablations.hh"
#include "fig_common.hh"

int
main(int argc, char **argv)
{
    using namespace absim;
    core::Settings settings;
    if (!bench::parseSettings(core::kAblation, argc, argv, settings))
        return 2;
    const core::AblationSpec *spec = settings.ablation;
    if (spec == nullptr) {
        bench::printUsageError(
            "no ablation chosen: set --ablation or ABSIM_ABLATION (valid: " +
                core::findRunSetting("ablation")->valid + ")",
            core::kAblation, argc, argv);
        return 2;
    }
    const auto grid = core::runAblation(*spec, settings.jobs);
    core::printAblation(std::cout, *spec, grid);
    int rc = 0;
    for (std::size_t i = 0; i < grid.size(); ++i) {
        if (grid[i].ok())
            continue;
        const std::size_t columns = spec->columns.size();
        std::cerr << "failed run: " << spec->rows[i / columns].label << " / "
                  << spec->columns[i % columns].label << ": "
                  << grid[i].error().message << "\n";
        rc = 3;
    }
    return rc;
}
