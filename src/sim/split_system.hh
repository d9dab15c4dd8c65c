/**
 * @file
 * The Duplex-Split serving system (Fig. 16, Splitwise-style): one
 * device group dedicates to prefill, another to decode; weights are
 * duplicated across the two groups and KV caches migrate over
 * NVLink after prefill.
 *
 * The split is parameterized by SplitSpec:
 *  - asymmetric group sizes (e.g. 1 prefill + 3 decode devices);
 *    the default (0/0) keeps the paper's symmetric half/half split;
 *  - a KV-transfer contention model: when enabled, concurrent
 *    prompt-KV migrations serialize FIFO on the NVLink (LinkQueue)
 *    and delay decode admission, instead of the seed's free
 *    parallel-copy assumption.
 *
 * The driver loop honors workload.qps: with qps > 0 the prefill
 * group consumes the same open-loop Poisson arrival stream the
 * engine loop does (shared ArrivalQueue / idleAdvance semantics in
 * sched/arrivals.hh); with qps <= 0 it runs the paper's closed
 * loop, bit-identical to the pre-SplitSpec implementation.
 *
 * The split lifecycle (two device groups with independent clocks)
 * does not fit the engine's continuous-batching loop, so the system
 * overrides ServingSystem::runCustomLoop with its own driver and
 * feeds the same observer callbacks the engine fires — including
 * the per-group StageObservation breakdown (GroupObservation).
 */

#ifndef DUPLEX_SIM_SPLIT_SYSTEM_HH
#define DUPLEX_SIM_SPLIT_SYSTEM_HH

#include "sim/serving_system.hh"

namespace duplex
{

/** Shape of a disaggregated prefill/decode split. */
struct SplitSpec
{
    /** Prefill-group devices; 0 means half the default topology. */
    int prefillDevices = 0;

    /** Decode-group devices; 0 means half the default topology. */
    int decodeDevices = 0;

    /**
     * When true, concurrent prompt-KV migrations occupy the NVLink
     * for kvBytes/linkBW each and queue FIFO (LinkQueue); when
     * false, every migration starts immediately (the seed model,
     * kept as the default for golden-output compatibility).
     */
    bool contendedKvTransfer = false;
};

/** Disaggregated prefill/decode system over two device groups. */
class SplitSystem : public ServingSystem
{
  public:
    SplitSystem(std::string name, const ModelConfig &model,
                std::uint64_t seed, const SplitSpec &spec = {});

    /**
     * Prefill-only stages run on the prefill group, decode-only
     * stages on the decode group; a mixed stage runs each half on
     * its group and reports the serialized (summed) time.
     */
    StageResult executeStage(const StageShape &stage) override;

    /** KV lives on the decode group only. */
    KvBudget kvBudget() const override;
    std::int64_t maxKvTokens() const override;

    const std::string &name() const override { return name_; }
    std::string describe() const override;

    std::optional<SimResult>
    runCustomLoop(const SimConfig &config,
                  SimObserver &observer) override;
    bool hasCustomLoop() const override { return true; }

    const SplitSpec &spec() const { return spec_; }
    int prefillDevices() const;
    int decodeDevices() const;

  private:
    std::string name_;
    ModelConfig model_;
    SplitSpec spec_;
    Cluster prefill_;
    Cluster decode_;
    LinkSpec nvlink_;

    static ClusterConfig groupConfig(const ModelConfig &model,
                                     std::uint64_t seed,
                                     int devices);

    /** Devices a 0-valued SplitSpec entry resolves to. */
    static int defaultGroupDevices(const ModelConfig &model);
};

} // namespace duplex

#endif // DUPLEX_SIM_SPLIT_SYSTEM_HH
