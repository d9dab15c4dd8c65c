/**
 * @file
 * The serving-system axis: SystemRegistry, an alias of Registry
 * (common/registry.hh).
 *
 * Systems register an id ("duplex-pe"), a display name
 * ("Duplex+PE"), a one-line summary and a factory; callers build
 * instances with makeSystem(id, model, opts) and enumerate
 * everything registered with registeredSystems(). The nine paper
 * systems are pre-registered (the homogeneous ones from
 * clusterPresets()), and a new system is one registerServingSystem
 * call.
 */

#ifndef DUPLEX_SIM_REGISTRY_HH
#define DUPLEX_SIM_REGISTRY_HH

#include <memory>
#include <string>
#include <vector>

#include "common/registry.hh"
#include "sim/presets.hh"
#include "sim/serving_system.hh"

namespace duplex
{

/** Per-instance knobs a factory may honor. */
struct SystemOptions
{
    std::uint64_t seed = 7;
};

/** Registry of every serving system the simulator can build. */
using SystemRegistry = Registry<ServingSystem, const ModelConfig &,
                                const SystemOptions &>;

/** Builds one system instance for a model. */
using SystemFactory = SystemRegistry::Factory;

/** The process-wide registry, with the paper systems loaded. */
template <>
SystemRegistry &SystemRegistry::instance();

/** Build a registered system (shorthand for the registry). */
std::unique_ptr<ServingSystem>
makeSystem(const std::string &id, const ModelConfig &model,
           const SystemOptions &opts = {});

/** Ids of every registered system. */
std::vector<std::string> registeredSystems();

/** Register a system with the process-wide registry. */
void registerServingSystem(const std::string &id,
                           const std::string &display,
                           const std::string &summary,
                           SystemFactory factory);

} // namespace duplex

#endif // DUPLEX_SIM_REGISTRY_HH
