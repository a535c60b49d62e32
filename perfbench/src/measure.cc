#include "measure.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include "core/journal.hh"

namespace absim::perfbench {

double
quantile(std::vector<double> samples, double q)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const double pos = q * static_cast<double>(samples.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, samples.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

Summary
summarize(const std::vector<double> &samples)
{
    Summary s;
    s.n = samples.size();
    if (samples.empty())
        return s;
    s.median = quantile(samples, 0.5);
    s.q1 = quantile(samples, 0.25);
    s.q3 = quantile(samples, 0.75);
    s.min = *std::min_element(samples.begin(), samples.end());
    s.max = *std::max_element(samples.begin(), samples.end());
    return s;
}

namespace {

/** VmHWM from a /proc/<pid>/status file, in MB; -1 if absent. */
double
vmHwmMb(const std::string &statusPath)
{
    std::ifstream in(statusPath);
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) != 0)
            continue;
        std::istringstream fields(line.substr(6));
        double kb = 0.0;
        if (fields >> kb)
            return kb / 1024.0;
    }
    return -1.0;
}

} // namespace

double
peakRssMb(pid_t pid)
{
    return vmHwmMb("/proc/" + std::to_string(pid) + "/status");
}

std::string
formatExact(double value)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

void
Result::fail(const std::string &what)
{
    correct = false;
    std::cerr << "check failed: " << what << "\n";
}

std::vector<double>
Passes::floors() const
{
    std::vector<double> floor;
    for (std::size_t i = 0; i < samples_.size(); ++i) {
        if (ops_[i] >= floor.size())
            floor.resize(ops_[i] + 1, -1.0);
        if (floor[ops_[i]] < 0.0 || samples_[i] < floor[ops_[i]])
            floor[ops_[i]] = samples_[i];
    }
    std::erase_if(floor, [](double f) { return f < 0.0; });
    return floor;
}

std::vector<double>
Passes::perPass(double q) const
{
    std::vector<double> out;
    std::size_t begin = 0;
    for (const std::size_t end : ends_) {
        out.push_back(quantile(
            std::vector<double>(
                samples_.begin() + static_cast<std::ptrdiff_t>(begin),
                samples_.begin() + static_cast<std::ptrdiff_t>(end)),
            q));
        begin = end;
    }
    return out;
}

std::vector<double>
Passes::perPassRate() const
{
    std::vector<double> out;
    std::size_t begin = 0;
    for (const std::size_t end : ends_) {
        double busy = 0.0;
        for (std::size_t i = begin; i < end; ++i)
            busy += samples_[i];
        if (busy > 0.0)
            out.push_back(static_cast<double>(end - begin) / busy);
        begin = end;
    }
    return out;
}

void
Result::addMedian(const std::string &name, const std::string &unit,
                  const std::vector<double> &samples)
{
    const Summary s = summarize(samples);
    metrics.push_back(Metric{name, unit, s.median, s.n, 0, s});
}

void
Result::addLatency(const std::string &name, const Passes &passes, double q)
{
    const std::vector<double> floors = passes.floors();
    std::vector<double> perPass = passes.perPass(q);
    for (double &v : perPass)
        v *= 1e3;
    metrics.push_back(Metric{name, "ms", quantile(floors, q) * 1e3,
                             passes.samples().size(), floors.size(),
                             summarize(perPass)});
}

void
Result::addThroughput(const std::string &name, const Passes &passes)
{
    const std::vector<double> floors = passes.floors();
    double busy = 0.0;
    for (const double f : floors)
        busy += f;
    metrics.push_back(Metric{name, "1/s",
                             static_cast<double>(floors.size()) / busy,
                             passes.samples().size(), floors.size(),
                             summarize(passes.perPassRate())});
}

void
Result::add(const std::string &name, const std::string &unit, double value)
{
    metrics.push_back(Metric{name, unit, value, 0, 0, {}});
}

std::uint32_t
SpanLog::open(const char *name, std::int64_t item)
{
    Span span;
    span.id = static_cast<std::uint32_t>(spans_.size() + 1);
    span.parent = open_.empty() ? 0 : open_.back();
    span.name = name;
    span.item = item;
    span.start = wallNow();
    spans_.push_back(span);
    open_.push_back(span.id);
    return span.id;
}

void
SpanLog::close(std::uint32_t id)
{
    spans_[id - 1].end = wallNow();
    // Spans close innermost first; tolerate an out-of-order close by
    // dropping everything opened after it.
    while (!open_.empty()) {
        const std::uint32_t top = open_.back();
        open_.pop_back();
        if (top == id)
            break;
    }
}

std::map<std::string, SpanLog::Totals>
SpanLog::totals() const
{
    std::vector<double> childTime(spans_.size() + 1, 0.0);
    for (const Span &s : spans_)
        if (s.parent != 0)
            childTime[s.parent] += s.end - s.start;
    std::map<std::string, Totals> out;
    for (const Span &s : spans_) {
        Totals &t = out[s.name];
        const double duration = s.end - s.start;
        ++t.count;
        t.totalSeconds += duration;
        t.selfSeconds += duration - childTime[s.id];
    }
    return out;
}

std::vector<double>
SpanLog::durations(const std::string &name) const
{
    std::vector<double> out;
    for (const Span &s : spans_)
        if (name == s.name)
            out.push_back(s.end - s.start);
    return out;
}

bool
SpanLog::write(const std::string &path, const std::string &workload,
               const std::map<std::string, double> &counters) const
{
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        return false;
    out << "{\"schema\":\"absim-trace-1\",\"workload\":\""
        << core::jsonEscape(workload) << "\",\n\"layers\":{";
    std::size_t i = 0;
    for (const auto &[name, t] : totals())
        out << (i++ == 0 ? "\n" : ",\n") << "\"" << name
            << "\":{\"count\":" << t.count
            << ",\"total_s\":" << formatExact(t.totalSeconds)
            << ",\"self_s\":" << formatExact(t.selfSeconds) << "}";
    out << "},\n\"counters\":{";
    i = 0;
    for (const auto &[name, value] : counters)
        out << (i++ == 0 ? "\n" : ",\n") << "\"" << name
            << "\":" << formatExact(value);
    out << "},\n\"spans\":[";
    i = 0;
    for (const Span &s : spans_)
        out << (i++ == 0 ? "\n" : ",\n") << "{\"id\":" << s.id
            << ",\"parent\":" << s.parent << ",\"name\":\"" << s.name
            << "\",\"item\":" << s.item
            << ",\"start_s\":" << formatExact(s.start - origin_)
            << ",\"end_s\":" << formatExact(s.end - origin_) << "}";
    out << "\n]}\n";
    out.close();
    return static_cast<bool>(out);
}

} // namespace absim::perfbench
