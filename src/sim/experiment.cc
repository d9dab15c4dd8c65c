#include "sim/experiment.hh"

#include "sim/registry.hh"

namespace duplex
{

std::string
SimConfig::systemRegistryId() const
{
    return systemName.empty() ? systemId(system) : systemName;
}

} // namespace duplex
