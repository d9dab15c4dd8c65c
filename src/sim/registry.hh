/**
 * @file
 * String-keyed serving-system registry and factory.
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

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/presets.hh"
#include "sim/serving_system.hh"

namespace duplex
{

/** Per-instance knobs a factory may honor. */
struct SystemOptions
{
    std::uint64_t seed = 7;
};

/** Builds one system instance for a model. */
using SystemFactory = std::function<std::unique_ptr<ServingSystem>(
    const ModelConfig &model, const SystemOptions &opts)>;

/** Registry of every serving system the simulator can build. */
class SystemRegistry
{
  public:
    /** The process-wide registry, with the paper systems loaded. */
    static SystemRegistry &instance();

    /** Register a system; re-registering an id is fatal. */
    void add(const std::string &id, const std::string &display,
             const std::string &summary, SystemFactory factory);

    /** True when @p id is registered. */
    bool contains(const std::string &id) const;

    /** Build a system; fatal on an unknown id. */
    std::unique_ptr<ServingSystem>
    make(const std::string &id, const ModelConfig &model,
         const SystemOptions &opts = {}) const;

    /**
     * Registered ids, lexicographically sorted — NOT registration
     * order. Sorted output keeps sweeps and bench tables byte-stable
     * across standard libraries (the g++/clang++ CI matrix diffs
     * them); asserted in tests/sim/test_registry.
     */
    std::vector<std::string> ids() const;

    /** Display name for tables ("Duplex+PE"). */
    const std::string &displayName(const std::string &id) const;

    /** One-line summary for --list-systems style output. */
    const std::string &summary(const std::string &id) const;

  private:
    struct Entry
    {
        std::string id;
        std::string display;
        std::string summary;
        SystemFactory factory;
    };

    std::vector<Entry> entries_;

    const Entry &find(const std::string &id) const;
};

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
