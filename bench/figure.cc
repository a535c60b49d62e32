/// The paper's figures: sweep one row of core::kFigures over P.
///
///   figure --figure 14              (Figure 14, by number)
///   figure --figure is_full_exec    (the same figure, by name)
///   ABSIM_FIGURE=14 figure
///
/// Each figure is one application on one network with one overhead
/// metric, swept over the paper's processor counts on the classic
/// machine trio; src/core/figures.cc lists the 20 rows with the curve
/// shape the paper reports for each.  fig_common.hh documents the
/// other settings, the output files and the exit status.
#include "fig_common.hh"

int
main(int argc, char **argv)
{
    using namespace absim;
    constexpr unsigned kTakers = core::kSweep | core::kFigure;
    core::Settings settings;
    if (!bench::parseSettings(kTakers, argc, argv, settings))
        return 2;
    const core::FigureSpec *figure = settings.figure;
    if (figure == nullptr) {
        bench::printUsageError(
            "no figure chosen: set --figure or ABSIM_FIGURE (valid: " +
                core::findRunSetting("figure")->valid + ")",
            kTakers, argc, argv);
        return 2;
    }
    settings.config.app = figure->app;
    return bench::runFigure(core::figureTitle(*figure),
                            core::figureStem(*figure), settings,
                            figure->topology, figure->metric)
                   .complete()
               ? 0
               : 3;
}
