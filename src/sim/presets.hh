/**
 * @file
 * System presets (Section VI): the cluster-level configurations
 * behind the registered serving systems.
 *
 * Default device counts: Mixtral/OPT/Llama3 one node of four
 * devices; GLaM one node of eight; Grok1 two nodes of eight. The
 * 2xGPU comparison doubles devices by first filling nodes to eight,
 * then adding nodes.
 *
 * Each homogeneous paper system is one clusterPresets() row; the
 * SystemRegistry (sim/registry.hh) registers every row, and
 * makeClusterConfig builds a row's config for callers that tweak
 * individual fields (gate policy, ablation studies) before building
 * the Cluster themselves.
 */

#ifndef DUPLEX_SIM_PRESETS_HH
#define DUPLEX_SIM_PRESETS_HH

#include <span>
#include <string>

#include "cluster/cluster.hh"

namespace duplex
{

/** One homogeneous (Cluster-backed) paper system. */
struct ClusterPreset
{
    const char *id;      //!< registry id ("duplex-pe-et")
    const char *display; //!< table name ("Duplex+PE+ET")
    const char *summary; //!< one line for --list-systems
    HybridDeviceSpec (*deviceSpec)(const HbmTiming &,
                                   const DramCalibration &);
    bool doubled;              //!< twice the devices (2xGPU)
    bool expertTensorParallel; //!< ET placement for MoE models
};

/** The homogeneous paper systems, in registration order. */
std::span<const ClusterPreset> clusterPresets();

/** Device count defaults per model. */
SystemTopology defaultTopology(const ModelConfig &model,
                               bool doubled = false);

/**
 * Cluster configuration of the clusterPresets() row @p system_id
 * ("gpu", "duplex-pe-et", ...). Fatal for ids without a homogeneous
 * cluster config (hetero, the split variants).
 */
ClusterConfig makeClusterConfig(const std::string &system_id,
                                const ModelConfig &model,
                                std::uint64_t seed = 7);

/** Hetero system: GPUs + PIM-only devices over NVLink. */
HeteroConfig makeHeteroConfig(const ModelConfig &model,
                              std::uint64_t seed = 7);

} // namespace duplex

#endif // DUPLEX_SIM_PRESETS_HH
