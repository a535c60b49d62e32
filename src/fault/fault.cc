#include "fault/fault.hh"

#include <charconv>
#include <sstream>
#include <stdexcept>

namespace absim::fault {

std::string
toString(Kind kind)
{
    switch (kind) {
      case Kind::WedgeFiber:
        return "wedge";
      case Kind::CorruptTransition:
        return "corrupt";
      case Kind::DropOverhead:
        return "drop";
      case Kind::StallQueue:
        return "stall";
    }
    return "?";
}

namespace {

std::string
trim(const std::string &s)
{
    const auto b = s.find_first_not_of(" \t");
    if (b == std::string::npos)
        return "";
    const auto e = s.find_last_not_of(" \t");
    return s.substr(b, e - b + 1);
}

[[noreturn]] void
badPlan(const std::string &text, const std::string &why)
{
    throw std::invalid_argument("bad fault plan \"" + text + "\": " + why);
}

std::uint64_t
parseCount(const std::string &text, const std::string &digits)
{
    std::uint64_t value = 0;
    const char *last = digits.data() + digits.size();
    const auto [end, ec] = std::from_chars(digits.data(), last, value);
    if (digits.empty() || end != last || ec != std::errc())
        badPlan(text, "\"" + digits + "\" is not a number below 2^64");
    return value;
}

} // namespace

Plan
Plan::parse(const std::string &text)
{
    Plan plan;
    std::stringstream ss(text);
    std::string element;
    while (std::getline(ss, element, ';')) {
        element = trim(element);
        if (element.empty())
            continue;
        if (element.rfind("seed=", 0) == 0) {
            plan.seed = parseCount(text, element.substr(5));
            continue;
        }
        const auto at_pos = element.find('@');
        if (at_pos == std::string::npos)
            badPlan(text, "element \"" + element +
                              "\" lacks an '@<count>' trigger");
        const std::string kind_name = trim(element.substr(0, at_pos));
        std::string rest = element.substr(at_pos + 1);

        Spec spec;
        if (kind_name == "wedge")
            spec.kind = Kind::WedgeFiber;
        else if (kind_name == "corrupt")
            spec.kind = Kind::CorruptTransition;
        else if (kind_name == "drop")
            spec.kind = Kind::DropOverhead;
        else if (kind_name == "stall")
            spec.kind = Kind::StallQueue;
        else
            badPlan(text, "unknown fault kind \"" + kind_name +
                              "\" (expected wedge, corrupt, drop or "
                              "stall)");

        const auto colon = rest.find(':');
        if (colon != std::string::npos) {
            const std::string opt = trim(rest.substr(colon + 1));
            rest = rest.substr(0, colon);
            if (opt.rfind("node=", 0) != 0)
                badPlan(text, "unknown option \"" + opt +
                                  "\" (expected node=<n>)");
            if (spec.kind != Kind::WedgeFiber)
                badPlan(text, "node= applies only to wedge faults");
            spec.node = static_cast<std::uint32_t>(
                parseCount(text, opt.substr(5)));
        }
        spec.at = parseCount(text, trim(rest));
        if (spec.at == 0)
            badPlan(text, "trigger counts are 1-based (got 0)");
        plan.faults.push_back(spec);
    }
    return plan;
}

std::string
Plan::toString() const
{
    std::ostringstream oss;
    for (const Spec &spec : faults) {
        if (oss.tellp() > 0)
            oss << "; ";
        oss << fault::toString(spec.kind) << '@' << spec.at;
        if (spec.kind == Kind::WedgeFiber)
            oss << ":node=" << spec.node;
    }
    if (oss.tellp() > 0)
        oss << "; ";
    oss << "seed=" << seed;
    return oss.str();
}

void
Injector::arm(const Plan &plan)
{
    plan_ = plan;
    specDone_.assign(plan_.faults.size(), false);
    nodeAccesses_.clear();
    totalAccesses_ = 0;
    dropArmed_ = false;
    fired_ = {};
    armed_ = !plan_.faults.empty();
}

void
Injector::disarm()
{
    plan_ = Plan{};
    specDone_.clear();
    nodeAccesses_.clear();
    totalAccesses_ = 0;
    dropArmed_ = false;
    armed_ = false;
}

AccessFault
Injector::onAccess(std::uint32_t node)
{
    AccessFault out;
    if (!armed_)
        return out;
    ++totalAccesses_;
    if (node >= nodeAccesses_.size())
        nodeAccesses_.resize(node + 1, 0);
    ++nodeAccesses_[node];

    for (std::size_t i = 0; i < plan_.faults.size(); ++i) {
        if (specDone_[i])
            continue;
        const Spec &spec = plan_.faults[i];
        switch (spec.kind) {
          case Kind::WedgeFiber:
            if (spec.node == node && nodeAccesses_[node] >= spec.at) {
                specDone_[i] = true;
                recordFired(Kind::WedgeFiber);
                out.wedge = true;
            }
            break;
          case Kind::CorruptTransition:
            if (totalAccesses_ >= spec.at) {
                specDone_[i] = true;
                recordFired(Kind::CorruptTransition);
                out.corrupt = true;
            }
            break;
          case Kind::DropOverhead:
            if (totalAccesses_ >= spec.at) {
                specDone_[i] = true;
                dropArmed_ = true;
            }
            break;
          case Kind::StallQueue:
            break; // Dispatch-count trigger; see shouldStallQueue().
        }
    }
    return out;
}

bool
Injector::consumeDropOverhead()
{
    if (!dropArmed_)
        return false;
    dropArmed_ = false;
    recordFired(Kind::DropOverhead);
    return true;
}

bool
Injector::shouldStallQueue(std::uint64_t dispatched)
{
    if (!armed_)
        return false;
    for (std::size_t i = 0; i < plan_.faults.size(); ++i) {
        if (specDone_[i] || plan_.faults[i].kind != Kind::StallQueue)
            continue;
        if (dispatched >= plan_.faults[i].at) {
            specDone_[i] = true;
            recordFired(Kind::StallQueue);
            return true;
        }
    }
    return false;
}

namespace detail {

Injector &
threadDefaultInjector()
{
    static thread_local Injector instance;
    return instance;
}

} // namespace detail

} // namespace absim::fault
