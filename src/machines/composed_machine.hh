/**
 * @file
 * A Machine assembled from one NetModel and one MemModel.
 *
 * Every shared-memory machine in the simulator is such a composition:
 * the memory model decides what each access costs and which messages it
 * sends, the network model prices the messages.  The shell builds both
 * models from one row of the registry table (machines/registry.hh) and
 * forwards the Machine interface to them; the memory model keeps the
 * per-axis attribution (MachineStats::memTime) in the shell's stats
 * block.  mach::makeMachine() is the usual way to get one.
 */

#ifndef ABSIM_MACHINES_COMPOSED_MACHINE_HH
#define ABSIM_MACHINES_COMPOSED_MACHINE_HH

#include <memory>

#include "machines/mem_model.hh"
#include "machines/net_model.hh"

namespace absim::mach {

struct MachineSpec;

class ComposedMachine : public Machine
{
  public:
    /**
     * Build the network model named by @p spec.netModel and the memory
     * model named by @p spec.memModel; coherence failures name the
     * machine @p spec.name.
     * @throws std::invalid_argument if the row names an unknown model
     *         on either axis.
     */
    ComposedMachine(const MachineSpec &spec, sim::EventQueue &eq,
                    net::TopologyKind topo, std::uint32_t nodes,
                    const mem::HomeMap &homes, logp::GapPolicy policy,
                    const CacheConfig &cache, ProtocolKind protocol);

    bool
    probe(MemClient &client, mem::Addr addr, AccessType type,
          AccessTiming &t) override
    {
        return mem_model_->probe(client, addr, type, t);
    }

    sim::Task<AccessTiming>
    miss(MemClient &client, mem::Addr addr, AccessType type) override
    {
        return mem_model_->miss(client, addr, type);
    }

    MachineKind kind() const override { return kind_; }

    void checkInvariants() const override
    {
        mem_model_->checkInvariants();
    }

    bool corruptStateForFault(std::uint64_t seed) override
    {
        return mem_model_->corruptStateForFault(seed);
    }

    const char *netModelName() const override { return net_model_->name(); }
    const char *memModelName() const override { return mem_model_->name(); }

    NetModel &netModel() { return *net_model_; }
    const NetModel &netModel() const { return *net_model_; }
    MemModel &memModel() { return *mem_model_; }
    const MemModel &memModel() const { return *mem_model_; }

  private:
    MachineKind kind_;
    std::unique_ptr<NetModel> net_model_;
    std::unique_ptr<MemModel> mem_model_;
};

} // namespace absim::mach

#endif // ABSIM_MACHINES_COMPOSED_MACHINE_HH
