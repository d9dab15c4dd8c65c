/**
 * @file
 * The polymorphic serving-system interface.
 *
 * Every evaluated system — the GPU baseline, the Duplex variants,
 * the Bank-PIM hybrids, the Section III-B hetero strawman and the
 * Fig. 16 prefill/decode split — implements ServingSystem, so the
 * SimulationEngine, the benches and the tests can drive any of them
 * through one contract. Systems are created by name through the
 * SystemRegistry (sim/registry.hh); new systems implement this
 * interface and register a factory, nothing else.
 */

#ifndef DUPLEX_SIM_SERVING_SYSTEM_HH
#define DUPLEX_SIM_SERVING_SYSTEM_HH

#include <memory>
#include <optional>
#include <string>

#include "cluster/cluster.hh"
#include "sim/experiment.hh"

namespace duplex
{

class SimObserver;

/** A serving system the simulation engine can drive. */
class ServingSystem
{
  public:
    virtual ~ServingSystem() = default;

    /** Execute one batched stage; deterministic given the seed. */
    virtual StageResult executeStage(const StageShape &stage) = 0;

    /** KV capacity of the whole system. */
    virtual KvBudget kvBudget() const = 0;

    /** Largest context-token count the KV cache can hold. */
    virtual std::int64_t maxKvTokens() const = 0;

    /** Display name for tables and reports (e.g. "Duplex+PE"). */
    virtual const std::string &name() const = 0;

    /** One-line description of the modeled hardware. */
    virtual std::string describe() const = 0;

    /**
     * True when executeStage consumes per-sequence context values
     * (StageShape.decodeContexts) rather than the O(1)
     * StageAggregates. The engine's driver loop asks this before
     * building its scheduler: only systems that answer true pay
     * the per-stage O(batch) walk that fills the vector; everyone
     * else gets the aggregate-only stage view, which the PR-2
     * closed forms price bit-identically. Multi-node clusters
     * (nodeShare striping) are the one in-tree consumer.
     */
    virtual bool needsExactStageView() const { return false; }

    /**
     * Systems whose request lifecycle deviates from the engine's
     * continuous-batching loop (e.g. disaggregated prefill/decode)
     * run their own driver here and return the result; the default
     * nullopt means "use the engine's loop". The observer receives
     * the same callbacks either way.
     */
    virtual std::optional<SimResult>
    runCustomLoop(const SimConfig &config, SimObserver &observer)
    {
        (void)config;
        (void)observer;
        return std::nullopt;
    }

    /**
     * True when runCustomLoop replaces the engine's loop. A fleet
     * steps each instance through the engine's loop, so it refuses
     * such a system rather than silently dropping its lifecycle.
     */
    virtual bool hasCustomLoop() const { return false; }
};

/** Homogeneous cluster behind the ServingSystem interface. */
class ClusterSystem : public ServingSystem
{
  public:
    ClusterSystem(std::string name, const ClusterConfig &config);

    StageResult executeStage(const StageShape &stage) override;
    KvBudget kvBudget() const override;
    std::int64_t maxKvTokens() const override;
    const std::string &name() const override { return name_; }
    std::string describe() const override;

    /** Multi-node clusters stripe per-context values (nodeShare). */
    bool needsExactStageView() const override
    {
        return cluster_.config().topo.numNodes > 1;
    }

  private:
    std::string name_;
    Cluster cluster_;
};

/** Section III-B GPUs + PIM-only devices behind the interface. */
class HeteroSystem : public ServingSystem
{
  public:
    HeteroSystem(std::string name, const HeteroConfig &config);

    StageResult executeStage(const StageShape &stage) override;
    KvBudget kvBudget() const override;
    std::int64_t maxKvTokens() const override;
    const std::string &name() const override { return name_; }
    std::string describe() const override;

  private:
    std::string name_;
    HeteroCluster cluster_;
};

} // namespace duplex

#endif // DUPLEX_SIM_SERVING_SYSTEM_HH
