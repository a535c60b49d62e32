#include "stats/overheads.hh"

#include <algorithm>
#include <ostream>

namespace absim::stats {

sim::Tick
Profile::execTime() const
{
    sim::Tick t = 0;
    for (const ProcStats &p : procs)
        t = std::max(t, p.finishTime);
    return t;
}

namespace {

template <typename Get>
double
meanOf(const std::vector<ProcStats> &procs, Get get)
{
    if (procs.empty())
        return 0.0;
    double sum = 0.0;
    for (const ProcStats &p : procs)
        sum += static_cast<double>(get(p));
    return sum / static_cast<double>(procs.size());
}

} // namespace

double
Profile::meanBusy() const
{
    return meanOf(procs, [](const ProcStats &p) { return p.busy; });
}

double
Profile::meanLatency() const
{
    return meanOf(procs, [](const ProcStats &p) { return p.latency; });
}

double
Profile::meanContention() const
{
    return meanOf(procs, [](const ProcStats &p) { return p.contention; });
}

sim::Duration
Profile::totalLatency() const
{
    sim::Duration sum = 0;
    for (const ProcStats &p : procs)
        sum += p.latency;
    return sum;
}

sim::Duration
Profile::totalContention() const
{
    sim::Duration sum = 0;
    for (const ProcStats &p : procs)
        sum += p.contention;
    return sum;
}

void
flushPhase(const ProcStats &now, ProcStats &snapshot,
           const std::string &name, std::vector<PhaseStats> &phases)
{
    PhaseStats delta;
    delta.name = name;
    delta.busy = now.busy - snapshot.busy;
    delta.latency = now.latency - snapshot.latency;
    delta.contention = now.contention - snapshot.contention;
    delta.wait = now.wait - snapshot.wait;
    snapshot = now;
    for (PhaseStats &phase : phases) {
        if (phase.name == delta.name) {
            phase.busy += delta.busy;
            phase.latency += delta.latency;
            phase.contention += delta.contention;
            phase.wait += delta.wait;
            return;
        }
    }
    phases.push_back(std::move(delta));
}

std::vector<PhaseStats>
Profile::phaseSummary() const
{
    std::vector<PhaseStats> summary;
    auto find = [&summary](const std::string &name) -> PhaseStats & {
        for (PhaseStats &s : summary)
            if (s.name == name)
                return s;
        summary.push_back(PhaseStats{name, 0, 0, 0, 0});
        return summary.back();
    };
    for (const auto &phases : procPhases) {
        for (const PhaseStats &phase : phases) {
            PhaseStats &s = find(phase.name);
            s.busy += phase.busy;
            s.latency += phase.latency;
            s.contention += phase.contention;
            s.wait += phase.wait;
        }
    }
    return summary;
}

std::ostream &
operator<<(std::ostream &os, const Profile &p)
{
    os << "models         net=" << p.netModel << " mem=" << p.memModel
       << "\n"
       << "exec time      " << p.execTime() / 1000.0 << " us\n"
       << "mean busy      " << p.meanBusy() / 1000.0 << " us\n"
       << "mean latency   " << p.meanLatency() / 1000.0 << " us\n"
       << "mean contention" << ' ' << p.meanContention() / 1000.0
       << " us\n"
       << "messages       " << p.machine.messages << "\n"
       << "cache hits     " << p.machine.cacheHits << "\n"
       << "net accesses   " << p.machine.networkAccesses << "\n"
       << "engine events  " << p.engineEvents << "\n";
    if (p.wallSeconds > 0.0)
        os << "engine speed   " << p.eventsPerWallSecond() / 1e6
           << " Mev/s (" << p.wallSeconds << " s host)\n";
    for (std::size_t i = 0; i < p.procs.size(); ++i) {
        const ProcStats &ps = p.procs[i];
        os << "  proc " << i << ": busy " << ps.busy / 1000.0
           << " us, latency " << ps.latency / 1000.0
           << " us, contention " << ps.contention / 1000.0 << " us";
        if (ps.wait != 0)
            os << ", wait " << ps.wait / 1000.0 << " us";
        os << ", accesses " << ps.accesses << " (" << ps.networkAccesses
           << " networked)\n";
    }
    return os;
}

} // namespace absim::stats
