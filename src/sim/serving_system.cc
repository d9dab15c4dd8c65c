#include "sim/serving_system.hh"

#include <sstream>

namespace duplex
{

ClusterSystem::ClusterSystem(std::string name,
                             const ClusterConfig &config)
    : name_(std::move(name)), cluster_(config)
{
}

StageResult
ClusterSystem::executeStage(const StageShape &stage)
{
    return cluster_.executeStage(stage);
}

KvBudget
ClusterSystem::kvBudget() const
{
    return cluster_.kvBudget();
}

std::int64_t
ClusterSystem::maxKvTokens() const
{
    return cluster_.maxKvTokens();
}

std::string
ClusterSystem::describe() const
{
    const ClusterConfig &cfg = cluster_.config();
    std::ostringstream out;
    out << name_ << ": " << cfg.topo.numNodes << " node(s) x "
        << cfg.topo.devicesPerNode << " device(s)";
    if (cfg.deviceSpec.hasLowEngine)
        out << ", Logic-PIM low engine"
            << (cfg.deviceSpec.coProcessing ? " + co-processing"
                                            : "");
    return out.str();
}

HeteroSystem::HeteroSystem(std::string name,
                           const HeteroConfig &config)
    : name_(std::move(name)), cluster_(config)
{
}

StageResult
HeteroSystem::executeStage(const StageShape &stage)
{
    return cluster_.executeStage(stage);
}

KvBudget
HeteroSystem::kvBudget() const
{
    return cluster_.kvBudget();
}

std::int64_t
HeteroSystem::maxKvTokens() const
{
    return cluster_.maxKvTokens();
}

std::string
HeteroSystem::describe() const
{
    const HeteroConfig &cfg = cluster_.config();
    std::ostringstream out;
    out << name_ << ": " << cfg.numGpus << " GPU(s) + "
        << cfg.numPimDevices
        << " Logic-PIM device(s), KV on the PIM side";
    return out.str();
}

} // namespace duplex
