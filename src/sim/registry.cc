#include "sim/registry.hh"

#include "common/log.hh"
#include "sim/split_system.hh"

namespace duplex
{

namespace
{

/** Factory for the Splitwise-style disaggregated variants. */
SystemFactory
splitFactory(std::string display, SplitSpec spec)
{
    return [display = std::move(display),
            spec](const ModelConfig &model,
                  const SystemOptions &opts) {
        return std::make_unique<SplitSystem>(display, model,
                                             opts.seed, spec);
    };
}

void
registerPaperSystems(SystemRegistry &registry)
{
    for (const ClusterPreset &preset : clusterPresets()) {
        registry.add(preset.id, preset.display, preset.summary,
                     [&preset](const ModelConfig &model,
                               const SystemOptions &opts) {
                         return std::make_unique<ClusterSystem>(
                             preset.display,
                             makeClusterConfig(preset.id, model,
                                               opts.seed));
                     });
    }
    registry.add(
        "hetero", "Hetero",
        "2 GPUs + 2 Logic-PIM devices over NVLink (Section III-B)",
        [](const ModelConfig &model, const SystemOptions &opts) {
            return std::make_unique<HeteroSystem>(
                "Hetero", makeHeteroConfig(model, opts.seed));
        });
    registry.add("duplex-split", "Duplex-Split",
                 "Splitwise-style prefill/decode split (Fig. 16)",
                 splitFactory("Duplex-Split", SplitSpec{}));
    registry.add(
        "duplex-split-contended", "Duplex-Split-C",
        "symmetric split, KV migrations contend FIFO for NVLink",
        splitFactory("Duplex-Split-C",
                     SplitSpec{0, 0, /*contendedKvTransfer=*/true}));
    registry.add(
        "duplex-split-2p6d", "Duplex-Split-2P6D",
        "prefill-light split: 2 prefill + 6 decode devices, "
        "contended KV link",
        splitFactory("Duplex-Split-2P6D", SplitSpec{2, 6, true}));
    registry.add(
        "duplex-split-6p2d", "Duplex-Split-6P2D",
        "prefill-heavy split: 6 prefill + 2 decode devices, "
        "contended KV link",
        splitFactory("Duplex-Split-6P2D", SplitSpec{6, 2, true}));
}

} // namespace

template <>
SystemRegistry &
SystemRegistry::instance()
{
    static SystemRegistry *registry = [] {
        auto *r = new SystemRegistry("SystemRegistry", "system");
        registerPaperSystems(*r);
        return r;
    }();
    return *registry;
}

std::unique_ptr<ServingSystem>
makeSystem(const std::string &id, const ModelConfig &model,
           const SystemOptions &opts)
{
    return SystemRegistry::instance().make(id, model, opts);
}

std::vector<std::string>
registeredSystems()
{
    return SystemRegistry::instance().ids();
}

void
registerServingSystem(const std::string &id,
                      const std::string &display,
                      const std::string &summary,
                      SystemFactory factory)
{
    SystemRegistry::instance().add(id, display, summary,
                                   std::move(factory));
}

} // namespace duplex
