/**
 * @file
 * The machine registry: the composition table mapping every MachineKind
 * to its (network model x memory model) pair, plus the factory that
 * assembles a Machine from the table.
 *
 * The paper's three machines occupy three cells of the 2x3 grid of
 * {detailed, logp} networks x {directory, ideal, uncached} memory
 * systems; the registry also names the two off-diagonal quadrants the
 * paper does not build:
 *
 *                       directory        ideal           uncached
 *     detailed network  target           target+ic       -
 *     LogP network      logp+dir         logp+c          logp
 *
 * "target+ic" isolates the *locality* abstraction's error (real network,
 * ideal cache) and "logp+dir" the *network* abstraction's error (LogP
 * network, real protocol) — the two factors the ablation bench
 * decomposes.  Everything that enumerates machines (the CLI's --machine
 * flag, figure sweeps, benches) derives its list from this table rather
 * than hard-coding names, and makeMachine() builds every machine from
 * its row: a new composition is one MachineKind enumerator plus one row.
 *
 * A row is also the network axis of a message-passing program:
 * msg::MsgWorld runs on makeMachine(kind, ...)->netModel(), so both
 * programming paradigms pick their network the same way.
 */

#ifndef ABSIM_MACHINES_REGISTRY_HH
#define ABSIM_MACHINES_REGISTRY_HH

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "logp/logp_net.hh"
#include "machines/composed_machine.hh"
#include "sim/event_queue.hh"

namespace absim::mach {

/** One row of the composition table. */
struct MachineSpec
{
    MachineKind kind;

    /** Canonical display/CLI name, e.g. "logp+c". */
    const char *name;

    /** Key used in figure JSON/CSV and journal records — the name with
     *  '+' stripped (e.g. "logpc"), kept stable for output
     *  byte-compatibility. */
    const char *column;

    /** Network-axis model, as NetModel::name() spells it: "detailed"
     *  or "logp". */
    const char *netModel;

    /** Memory-axis model, as MemModel::name() spells it: "directory",
     *  "ideal" or "uncached". */
    const char *memModel;

    /** One-line description for --help and docs. */
    const char *summary;
};

/** The full table, one row per MachineKind, in enum order. */
const std::vector<MachineSpec> &machineRegistry();

/** The row for @p kind. */
const MachineSpec &specFor(MachineKind kind);

/**
 * Parse a machine name.  Accepts each row's canonical name and its
 * column alias ("logp+c" / "logpc"); case-sensitive.
 *
 * @return true and set @p out on a match, false otherwise.
 */
bool parseMachineKind(std::string_view text, MachineKind &out);

/** Comma-separated canonical names of all machines, for CLI
 *  diagnostics ("valid: target, logp, ..."). */
std::string machineNames();

/** The paper's three machines, in the classic figure column order. */
std::vector<MachineKind> defaultFigureMachines();

/** All five compositions, for the quadrant ablation. */
std::vector<MachineKind> allQuadrants();

/**
 * Assemble the machine for @p kind: a ComposedMachine of the network
 * and memory models named by specFor(kind).
 */
std::unique_ptr<ComposedMachine>
makeMachine(MachineKind kind, sim::EventQueue &eq, net::TopologyKind topo,
            std::uint32_t nodes, const mem::HomeMap &homes,
            logp::GapPolicy policy = logp::GapPolicy::Single,
            const CacheConfig &cache = {},
            ProtocolKind protocol = ProtocolKind::Berkeley);

} // namespace absim::mach

#endif // ABSIM_MACHINES_REGISTRY_HH
