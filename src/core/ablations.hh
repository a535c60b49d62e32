/**
 * @file
 * The grid ablations: the paper's Section 7 g-usage experiment and the
 * extension studies built around it, as the rows of one table.
 *
 * An ablation is a grid of runs, one per (row, column) cell, and every
 * cell prints each of the ablation's measures.  The rows are the paper's
 * Section 7 g-usage experiment and simulation-speed table, the quadrant
 * study and the extension studies.  A cell's RunConfig is a
 * default RunConfig with the ablation's base settings, then its row's
 * settings, then its column's applied in that order.  Each setting is a
 * (key, text) pair applied through the run-settings row of that key
 * (core/run_settings.hh), so the table spells `gap`, `protocol`,
 * `cache_kb`, `variant` and `procs` exactly as run_cli's flags and
 * serve's request fields do.  `ablation --ablation NAME` runs one row.
 */

#ifndef ABSIM_CORE_ABLATIONS_HH
#define ABSIM_CORE_ABLATIONS_HH

#include <array>
#include <cstddef>
#include <iosfwd>
#include <optional>
#include <string_view>
#include <vector>

#include "core/experiment.hh"

namespace absim::core {

/** One setting as text: the run-settings row @c key applied to
 *  @c text, e.g. {"gap", "per-direction"}. */
struct SettingText
{
    std::string_view key;
    std::string_view text;
};

/** One row or column of an ablation grid: its label and the settings
 *  every cell in it applies. */
struct AblationAxis
{
    std::string_view label;
    std::vector<SettingText> settings;
};

/** One quantity a cell prints: its header, its printf format, and how
 *  the cell's profile gives it.  @c first is the profile of the cell's
 *  row's first cell, or nullptr if that cell failed; a value that
 *  cannot be given is nullopt and prints "-". */
struct AblationMeasure
{
    std::string_view name;
    const char *format; ///< One value's printf format, e.g. "%.1f".
    std::optional<double> (*value)(const stats::Profile &cell,
                                   const stats::Profile *first);
};

/** One ablation: a grid of runs and how to print it. */
struct AblationSpec
{
    std::string_view name;  ///< The `ablation` setting's value: "g_usage".
    std::string_view title; ///< Printed first, after "# ".
    std::vector<SettingText> base;
    std::vector<AblationAxis> rows;
    std::vector<AblationAxis> columns;
    std::vector<AblationMeasure> measures; ///< Printed per cell, in order.
    std::string_view note; ///< Printed after the grid; "" for none.
};

/** The seven grid ablations; ablations.cc states each row's claim. */
extern const std::array<AblationSpec, 7> kAblations;

/** The row named @p name exactly; nullptr if none is. */
const AblationSpec *findAblation(std::string_view name);

/**
 * The RunConfig of cell (@p row, @p column): the base, the row and the
 * column settings applied in that order to a default RunConfig.
 * @throws std::invalid_argument naming a setting no row applies.
 */
RunConfig ablationConfig(const AblationSpec &spec, std::size_t row,
                         std::size_t column);

/**
 * Run every cell of @p spec under runManySafe on @p jobs threads.
 * @return One result per cell, row-major: cell (r, c) is element
 *         r * spec.columns.size() + c.  The results are the same for
 *         every job count.
 */
[[nodiscard]] std::vector<RunResult> runAblation(const AblationSpec &spec,
                                                 unsigned jobs = 1);

/**
 * Print @p grid (runAblation's result): the title, the column labels
 * (and, with more than one measure, the measure names), one line per
 * row in which a failed cell's measures read "-", and the note.
 * @throws std::invalid_argument if @p grid is not one result per cell.
 */
void printAblation(std::ostream &os, const AblationSpec &spec,
                   const std::vector<RunResult> &grid);

} // namespace absim::core

#endif // ABSIM_CORE_ABLATIONS_HH
