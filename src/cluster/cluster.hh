/**
 * @file
 * Multi-device stage execution.
 *
 * Every cluster kind prices a batched stage by one decoder-layer
 * schedule, written once in cluster.cc: embedding; per layer QKV,
 * attention, projection, elementwise, then the dense FFN or the MoE
 * step after the layer's expert draw, then the layer's collectives;
 * LM head. A kind supplies only what differs: the layer-invariant
 * device timings with the device count that multiplies their energy,
 * its per-layer communication time, and its MoE step. The schedule
 * prices each layer-invariant group once and multiplies it by the
 * number of layers that contain it, so a stage costs O(1) in the
 * layer count apart from the MoE layers' expert draws; times stay
 * exact, and class energies agree with the per-layer sums that
 * executeStageReference keeps to within 1e-12 relative. The result
 * is wall-clock time plus a per-layer-class time and energy
 * breakdown (Figs. 4(a), 15).
 *
 * Cluster is the homogeneous system. It applies the sharding plan:
 * tensor parallelism inside a node (all devices do identical shards,
 * so one representative device is evaluated), data parallelism
 * across nodes, and expert / expert-tensor parallelism for MoE
 * layers with the matching collectives.
 *
 * HeteroCluster models the Section III-B strawman: two GPUs for
 * high-Op/B work plus two Logic-PIM-only devices owning all expert
 * weights and the KV cache.
 */

#ifndef DUPLEX_CLUSTER_CLUSTER_HH
#define DUPLEX_CLUSTER_CLUSTER_HH

#include <array>
#include <memory>

#include "core/duplex_device.hh"
#include "model/kv.hh"
#include "parallel/collectives.hh"
#include "parallel/sharding.hh"
#include "workload/experts.hh"

namespace duplex
{

/** Number of LayerClass values. */
constexpr int kNumLayerClasses = 5;

/** Per-class slice of a stage. */
struct ClassSlice
{
    PicoSec time = 0;
    EnergyBreakdown energy;

    ClassSlice &operator+=(const ClassSlice &other)
    {
        time += other.time;
        energy += other.energy;
        return *this;
    }
};

/** Result of one stage (or an aggregation of stages). */
struct StageResult
{
    PicoSec time = 0;
    std::array<ClassSlice, kNumLayerClasses> byClass{};

    /**
     * Tokens routed to each expert across the stage's MoE layers
     * (empty for dense models); the ExpertRoutingCounts observer
     * folds these into a per-run histogram.
     */
    std::vector<std::int64_t> expertTokens;

    ClassSlice &slice(LayerClass cls)
    {
        return byClass[static_cast<int>(cls)];
    }

    const ClassSlice &slice(LayerClass cls) const
    {
        return byClass[static_cast<int>(cls)];
    }

    /** Total energy over all classes (joules). */
    double totalEnergyJ() const;

    StageResult &operator+=(const StageResult &other);
};

/**
 * The per-MoE-layer expert draw both cluster kinds share: the gate
 * selector and its RNG stream, the reused per-expert histogram and
 * the exact affine expert-FFN cost.
 */
class ExpertDraw
{
  public:
    ExpertDraw(const LayerCosts &costs, GatePolicy policy,
               double zipf_s, std::uint64_t seed);

    /**
     * Draw one MoE layer's gate over @p tokens tokens and add the
     * per-expert counts to out.expertTokens. The returned histogram
     * is valid until the next call.
     */
    const std::vector<std::int64_t> &draw(std::int64_t tokens,
                                          StageResult &out);

    /** Exact cost of one expert's FFN over @p tokens tokens. */
    OpCost expertCost(std::int64_t tokens) const
    {
        return expertCost_.at(tokens);
    }

  private:
    int numExperts_;
    ExpertSelector selector_;
    Rng rng_;
    std::vector<std::int64_t> hist_;
    AffineOpCost expertCost_;
};

/** Configuration of a homogeneous serving system. */
struct ClusterConfig
{
    ModelConfig model;
    SystemTopology topo;
    HybridDeviceSpec deviceSpec;
    ExpertPlacement expertPlacement = ExpertPlacement::ExpertParallel;
    GatePolicy gatePolicy = GatePolicy::Uniform;
    double zipfS = 1.0;
    std::uint64_t seed = 7;

    /** Activation / scratch reservation per device. */
    Bytes reservedBytesPerDevice = 1 * kGiB;
};

/** Homogeneous cluster: every device runs the same spec. */
class Cluster
{
  public:
    explicit Cluster(const ClusterConfig &config);

    const ClusterConfig &config() const { return cfg_; }
    const ShardingPlan &plan() const { return plan_; }

    /** Execute one batched stage; deterministic given the seed. */
    StageResult executeStage(const StageShape &stage);

    /**
     * Reference for executeStage, for the equivalence tests only: it
     * re-adds every layer-invariant group once per layer. Equal times
     * and expert tokens, energies within 1e-12 relative; it advances
     * the expert-draw stream exactly as executeStage does.
     */
    StageResult executeStageReference(const StageShape &stage);

    /** KV capacity of the whole system. */
    KvBudget kvBudget() const;

    /** Largest context-token count the KV cache can hold. */
    std::int64_t maxKvTokens() const { return kvBudget().maxKvTokens(cfg_.model); }

    /** Experts routed to the low engine in the last MoE layer. */
    int lastExpertsOnLow() const;

  private:
    ClusterConfig cfg_;
    LayerCosts costs_;
    ShardingPlan plan_;
    std::unique_ptr<Device> device_;
    std::unique_ptr<ExpertTimeLut> lut_;
    ExpertDraw draw_;

    /** Reused across stages: multi-node share of the stage. */
    StageShape nodeShareScratch_;

    /** Reused across MoE layers: per-group expert work. */
    std::vector<ExpertWork> moeWorkScratch_;

    /**
     * Sequences this node serves under data parallelism. Borrows
     * the original shape when one node serves everything; fills the
     * reused scratch shape otherwise. The returned reference is
     * valid until the next call.
     */
    const StageShape &nodeShare(const StageShape &stage);

    /** executeStage, or its reference when @p reference is set. */
    StageResult priceStage(const StageShape &stage, bool reference);

    /** MoE step: the gate plus the experts, grouped by the plan. */
    void runMoeLayer(const std::vector<std::int64_t> &hist,
                     const DeviceTiming &gate_t, StageResult &out);
    PicoSec moeCommTime(std::int64_t global_tokens,
                        std::int64_t node_tokens) const;
};

/** Section III-B heterogeneous system: GPUs + PIM-only devices. */
struct HeteroConfig
{
    ModelConfig model;
    int numGpus = 2;
    int numPimDevices = 2;
    HybridDeviceSpec gpuSpec;  //!< xPU side
    HybridDeviceSpec pimSpec;  //!< provides the low engine
    LinkSpec link;             //!< GPU <-> PIM interconnect
    GatePolicy gatePolicy = GatePolicy::Uniform;
    double zipfS = 1.0;
    std::uint64_t seed = 7;
    Bytes reservedBytesPerDevice = 1 * kGiB;
};

class HeteroCluster
{
  public:
    explicit HeteroCluster(const HeteroConfig &config);

    const HeteroConfig &config() const { return cfg_; }

    StageResult executeStage(const StageShape &stage);

    /** Reference for executeStage; see Cluster::executeStageReference. */
    StageResult executeStageReference(const StageShape &stage);

    /** KV lives on the PIM devices only. */
    KvBudget kvBudget() const;
    std::int64_t maxKvTokens() const
    {
        return kvBudget().maxKvTokens(cfg_.model);
    }

  private:
    HeteroConfig cfg_;
    LayerCosts costs_;
    EnergyModel energy_;
    ExpertDraw draw_;

    /** executeStage, or its reference when @p reference is set. */
    StageResult priceStage(const StageShape &stage, bool reference);

    /** MoE step: the gate on the GPUs, every expert on the PIMs. */
    void runMoeLayer(const std::vector<std::int64_t> &hist,
                     const DeviceTiming &gate_t, StageResult &out);
};

} // namespace duplex

#endif // DUPLEX_CLUSTER_CLUSTER_HH
