#include "trace_replay/divergence.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "json/json.hh"

namespace absim::trace {

namespace {

/** Guard against zero/near-zero executed values blowing up relDelta. */
constexpr double kRelEpsilon = 1e-12;

} // namespace

void
DivergenceReport::add(const std::string &column, std::uint32_t procs,
                      double executed, double replayed)
{
    DivergencePoint pt;
    pt.column = column;
    pt.procs = procs;
    pt.executed = executed;
    pt.replayed = replayed;
    pt.absDelta = std::fabs(replayed - executed);
    pt.relDelta =
        pt.absDelta / std::max(std::fabs(executed), kRelEpsilon);
    points.push_back(std::move(pt));
}

void
DivergenceReport::finalize()
{
    maxAbs = maxRel = meanAbs = meanRel = 0.0;
    identical = true;
    if (points.empty())
        return;
    for (const DivergencePoint &pt : points) {
        maxAbs = std::max(maxAbs, pt.absDelta);
        maxRel = std::max(maxRel, pt.relDelta);
        meanAbs += pt.absDelta;
        meanRel += pt.relDelta;
        if (pt.absDelta != 0.0)
            identical = false;
    }
    meanAbs /= static_cast<double>(points.size());
    meanRel /= static_cast<double>(points.size());
}

std::string
toJson(const DivergenceReport &report)
{
    std::ostringstream os;
    os << "{\"format\":\"absim-divergence\",\"version\":1"
       << ",\"figure\":\"" << json::jsonEscape(report.figure) << "\""
       << ",\"metric\":\"" << json::jsonEscape(report.metric) << "\""
       << ",\"identical\":" << (report.identical ? "true" : "false")
       << ",\"max_abs\":" << json::formatDouble(report.maxAbs)
       << ",\"max_rel\":" << json::formatDouble(report.maxRel)
       << ",\"mean_abs\":" << json::formatDouble(report.meanAbs)
       << ",\"mean_rel\":" << json::formatDouble(report.meanRel)
       << ",\"points\":[";
    for (std::size_t i = 0; i < report.points.size(); ++i) {
        const DivergencePoint &pt = report.points[i];
        if (i > 0)
            os << ",";
        os << "{\"column\":\"" << json::jsonEscape(pt.column) << "\""
           << ",\"procs\":" << pt.procs
           << ",\"executed\":" << json::formatDouble(pt.executed)
           << ",\"replayed\":" << json::formatDouble(pt.replayed)
           << ",\"abs_delta\":" << json::formatDouble(pt.absDelta)
           << ",\"rel_delta\":" << json::formatDouble(pt.relDelta) << "}";
    }
    os << "]}\n";
    return os.str();
}

} // namespace absim::trace
