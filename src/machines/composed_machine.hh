/**
 * @file
 * A Machine assembled from one NetModel and one MemModel.
 *
 * Every shared-memory machine in the simulator is such a composition
 * (see machines/registry.hh for the table): the memory model decides
 * what each access costs and which messages it sends, the network model
 * prices the messages.  The shell owns both models and forwards the
 * Machine interface to them; the memory model keeps the per-axis
 * attribution (MachineStats::memTime) in the shell's stats block.
 *
 * The classic paper machines (TargetMachine, LogPMachine, LogPCMachine)
 * derive from this shell only to pin their composition at compile time
 * and expose typed accessors for tests; the off-diagonal quadrants
 * ("target+ic", "logp+dir") are plain ComposedMachine instances built
 * by the registry.
 */

#ifndef ABSIM_MACHINES_COMPOSED_MACHINE_HH
#define ABSIM_MACHINES_COMPOSED_MACHINE_HH

#include <functional>
#include <memory>

#include "machines/mem_model.hh"
#include "machines/net_model.hh"

namespace absim::mach {

class ComposedMachine : public Machine
{
  public:
    using NetFactory = std::function<std::unique_ptr<NetModel>()>;
    /** Builds the memory model against the just-built network model and
     *  the machine's stats block. */
    using MemFactory = std::function<std::unique_ptr<MemModel>(
        NetModel &, MachineStats &)>;

    ComposedMachine(MachineKind kind, std::uint32_t nodes,
                    const mem::HomeMap &homes, const NetFactory &make_net,
                    const MemFactory &make_mem);

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
