/**
 * @file
 * The ablation table (core/ablations.hh).
 *
 * GoldenAblationsTable runs every row of core::kAblations at its own
 * size and compares the printed grid against
 * tests/golden/ablations/<name>.txt, numbers the programs the table
 * replaced printed.  Column widths may differ; the numbers of every
 * data line, in order and as printed, may not.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/ablations.hh"
#include "core/run_settings.hh"
#include "machines/registry.hh"

namespace {

using namespace absim;

#ifndef ABSIM_GOLDEN_DIR
#error "ABSIM_GOLDEN_DIR must point at tests/golden"
#endif

/** Whether @p token is a whole decimal number: an optional sign,
 *  digits, optionally a point and more digits. */
bool
isNumber(std::string token)
{
    if (!token.empty() && (token[0] == '+' || token[0] == '-'))
        token.erase(0, 1);
    const std::size_t point = token.find('.');
    const auto digits = [&](std::size_t from, std::size_t to) {
        return from < to &&
               token.find_first_not_of("0123456789", from) >= to;
    };
    if (point == std::string::npos)
        return digits(0, token.size());
    return digits(0, point) && digits(point + 1, token.size());
}

/** The numbers of every line of @p in that prints any, as printed;
 *  comment lines ('#') are skipped. */
std::vector<std::vector<std::string>>
dataLines(std::istream &in)
{
    std::vector<std::vector<std::string>> lines;
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind('#', 0) == 0)
            continue;
        std::istringstream tokens(line);
        std::vector<std::string> numbers;
        for (std::string token; tokens >> token;)
            if (isNumber(token))
                numbers.push_back(token);
        if (!numbers.empty())
            lines.push_back(std::move(numbers));
    }
    return lines;
}

TEST(GoldenAblationsTable, EveryAblationMatchesItsGolden)
{
    for (const core::AblationSpec &spec : core::kAblations) {
        SCOPED_TRACE(spec.name);
        const std::string path = std::string(ABSIM_GOLDEN_DIR) +
                                 "/ablations/" + std::string(spec.name) +
                                 ".txt";
        std::ifstream golden(path);
        ASSERT_TRUE(golden) << "missing golden " << path;
        // Four workers: the grid is the same for any job count.
        const auto grid = core::runAblation(spec, 4);
        ASSERT_EQ(grid.size(), spec.rows.size() * spec.columns.size());
        for (const core::RunResult &cell : grid)
            ASSERT_TRUE(cell.ok()) << cell.error().message;
        std::ostringstream out;
        core::printAblation(out, spec, grid);
        std::istringstream printed(out.str());
        EXPECT_EQ(dataLines(printed), dataLines(golden)) << out.str();
    }
}

TEST(GoldenAblationsTable, FailedCellsReadADash)
{
    const core::AblationSpec &spec = *core::findAblation("protocol");
    const std::vector<core::RunResult> grid(
        spec.rows.size() * spec.columns.size(),
        core::RunResult(core::RunError{}));
    std::ostringstream out;
    core::printAblation(out, spec, grid);
    std::istringstream printed(out.str());
    EXPECT_TRUE(dataLines(printed).empty()) << out.str();
    // Every row still prints, each of its cells' measures a "-".
    std::istringstream lines(out.str());
    int dashes = 0;
    for (std::string token; lines >> token;)
        dashes += token == "-";
    EXPECT_EQ(dashes, static_cast<int>(grid.size() * spec.measures.size()));
    EXPECT_NE(out.str().find("\ncholesky "), std::string::npos) << out.str();
    // A grid that is not one result per cell is refused.
    EXPECT_THROW(core::printAblation(out, spec, {grid.front()}),
                 std::invalid_argument);
}

TEST(GoldenAblationsTable, NamesAreTheRetiredProgramNames)
{
    // One program per ablation, as each was built before the table: its
    // name after the first '_'.
    const std::vector<std::string> programs = {
        "ablation_g_usage",    "ablation_stencil_locality",
        "ablation_synthetic",  "ablation_cache_size",
        "ablation_protocol",   "ablation_quadrants",
        "table_sim_speed",
    };
    ASSERT_EQ(programs.size(), core::kAblations.size());
    for (std::size_t i = 0; i < programs.size(); ++i) {
        const core::AblationSpec &spec = core::kAblations[i];
        EXPECT_EQ(programs[i].substr(programs[i].find('_') + 1), spec.name);
        EXPECT_EQ(core::findAblation(spec.name), &spec);

        // Every setting text is one its run-settings row applies.
        std::vector<core::SettingText> texts = spec.base;
        for (const auto *axes : {&spec.rows, &spec.columns})
            for (const core::AblationAxis &axis : *axes)
                texts.insert(texts.end(), axis.settings.begin(),
                             axis.settings.end());
        for (const core::SettingText &text : texts) {
            const core::RunSetting *row = core::findRunSetting(text.key);
            ASSERT_NE(row, nullptr) << text.key;
            core::Settings settings;
            EXPECT_TRUE(row->apply(text.text, settings))
                << spec.name << ": " << text.key << "=" << text.text;
        }
        for (std::size_t r = 0; r < spec.rows.size(); ++r)
            for (std::size_t c = 0; c < spec.columns.size(); ++c)
                EXPECT_NO_THROW((void)core::ablationConfig(spec, r, c));
    }
    for (const char *text : {"", "g_usage ", " g_usage", "G_USAGE",
                             "ablation_g_usage", "table_sim_speed", "g"})
        EXPECT_EQ(core::findAblation(text), nullptr) << "'" << text << "'";
}

TEST(GoldenAblationsTable, QuadrantColumnsAreTheRegistryInOrder)
{
    const core::AblationSpec &spec = *core::findAblation("quadrants");
    const std::vector<mach::MachineKind> kinds = mach::allQuadrants();
    ASSERT_EQ(spec.columns.size(), kinds.size());
    for (std::size_t c = 0; c < kinds.size(); ++c) {
        EXPECT_EQ(spec.columns[c].label, mach::toString(kinds[c]));
        for (std::size_t r = 0; r < spec.rows.size(); ++r)
            EXPECT_EQ(core::ablationConfig(spec, r, c).machine, kinds[c]);
    }
}

TEST(GoldenAblationsTable, AFailedFirstCellDashesOnlyTheError)
{
    // Row "ep 1" with its target cell failed: every other cell still
    // prints its execution time, and no cell of that row an error.
    const core::AblationSpec &spec = *core::findAblation("quadrants");
    const std::size_t columns = spec.columns.size();
    std::vector<core::RunResult> grid;
    for (std::size_t r = 0; r < spec.rows.size(); ++r)
        for (std::size_t c = 0; c < columns; ++c)
            grid.push_back(r == 0 && c == 0
                               ? core::RunResult(core::RunError{})
                               : core::RunResult(core::runOne(
                                     core::ablationConfig(spec, r, c))));
    std::ostringstream out;
    core::printAblation(out, spec, grid);
    std::istringstream printed(out.str());
    std::string line;
    while (std::getline(printed, line) && line.rfind("ep 1 ", 0) != 0) {
    }
    std::istringstream tokens(line.substr(4));
    std::vector<std::string> cells;
    for (std::string token; tokens >> token;)
        cells.push_back(token);
    ASSERT_EQ(cells.size(), 2 * columns) << out.str();
    for (std::size_t c = 0; c < columns; ++c) {
        EXPECT_EQ(cells[2 * c] == "-", c == 0) << line;
        EXPECT_EQ(cells[2 * c + 1], "-") << line;
    }
    // The next row's errors are against its own target.
    std::getline(printed, line);
    EXPECT_EQ(line.rfind("ep 2 ", 0), 0u) << line;
    std::istringstream next(line);
    for (std::string token; next >> token;)
        EXPECT_NE(token, "-") << line;
}

} // namespace
