#include "cluster/cluster.hh"

#include <algorithm>

#include "common/log.hh"

namespace duplex
{

double
StageResult::totalEnergyJ() const
{
    double total = 0.0;
    for (const auto &s : byClass)
        total += s.energy.totalJ();
    return total;
}

StageResult &
StageResult::operator+=(const StageResult &other)
{
    time += other.time;
    for (int i = 0; i < kNumLayerClasses; ++i)
        byClass[i] += other.byClass[i];
    if (expertTokens.size() < other.expertTokens.size())
        expertTokens.resize(other.expertTokens.size(), 0);
    for (std::size_t e = 0; e < other.expertTokens.size(); ++e)
        expertTokens[e] += other.expertTokens[e];
    return *this;
}

ExpertDraw::ExpertDraw(const LayerCosts &costs, GatePolicy policy,
                       double zipf_s, std::uint64_t seed)
    : numExperts_(costs.model().numExperts),
      selector_(std::max(1, numExperts_),
                std::max(1, costs.model().topK), policy, zipf_s),
      rng_(seed)
{
    if (numExperts_ > 0)
        expertCost_ = costs.expertFfnAffine();
}

const std::vector<std::int64_t> &
ExpertDraw::draw(std::int64_t tokens, StageResult &out)
{
    selector_.sampleInto(rng_, tokens, hist_);
    if (out.expertTokens.size() <
        static_cast<std::size_t>(numExperts_))
        out.expertTokens.resize(numExperts_, 0);
    for (int e = 0; e < numExperts_; ++e)
        out.expertTokens[e] += hist_[e];
    return hist_;
}

namespace
{

/**
 * One stage's layer-invariant pricing, filled by a cluster kind.
 * The devices are stateless for these groups, so each is priced once
 * per stage and counted once per layer that contains it.
 */
struct LayerTimings
{
    DeviceTiming embedding;
    DeviceTiming qkv;
    AttentionTiming attention;
    DeviceTiming projection;
    DeviceTiming elementwise;
    DeviceTiming ffn; //!< dense layers only
    DeviceTiming lmHead;
    double devices = 1.0;       //!< energy multiplier of each group
    double decodeDevices = 1.0; //!< ... except decode attention
    PicoSec denseComm = 0;      //!< collectives of a dense layer
    PicoSec moeComm = 0;        //!< collectives of an MoE layer
};

/** Add a group's time to @p slice and its energy times @p devices. */
void
addSlice(const DeviceTiming &t, double devices, ClassSlice &slice)
{
    slice.time += t.time;
    slice.energy.dramJ += t.energy.dramJ * devices;
    slice.energy.computeJ += t.energy.computeJ * devices;
}

/** addSlice into @p cls, and the group's time into the stage. */
void
addGroup(const DeviceTiming &t, double devices, LayerClass cls,
         StageResult &out)
{
    out.time += t.time;
    addSlice(t, devices, out.slice(cls));
}

/** addSlice of @p layers copies of @p t. */
void
addLayers(const DeviceTiming &t, std::int64_t layers, double devices,
          ClassSlice &slice)
{
    DeviceTiming all = t;
    all.time *= layers;
    addSlice(all, static_cast<double>(layers) * devices, slice);
}

/**
 * The decoder-layer schedule every cluster kind prices a stage by:
 * embedding; per layer QKV, attention, projection, elementwise, the
 * dense FFN or the MoE step, then the layer's collectives; LM head.
 * Each layer-invariant group is priced once and multiplied by the
 * number of layers that contain it. Only the MoE layers run one by
 * one, in layer order, since each draws its gate from the RNG:
 * @p moe_step(hist, out) prices one MoE layer from the per-expert
 * token counts that @p draw drew over @p moe_tokens tokens.
 *
 * Times are integer picoseconds, so the products are exact. Each
 * class energy is (sum of its per-layer groups) x layers x devices,
 * which agrees with per-layer addition (priceLayersReference) to
 * within 1e-12 relative.
 */
template <class MoeStep>
StageResult
priceLayers(const ModelConfig &m, const LayerTimings &t,
            ExpertDraw &draw, std::int64_t moe_tokens,
            MoeStep &&moe_step)
{
    StageResult out;
    const std::int64_t layers = m.numLayers;
    const std::int64_t moe_layers = m.numMoeLayers();
    for (std::int64_t layer = 0; layer < moe_layers; ++layer)
        moe_step(draw.draw(moe_tokens, out), out);

    // FC groups: QKV, projection and elementwise in every layer, the
    // dense FFN in the non-MoE layers.
    DeviceTiming per_layer = t.qkv;
    per_layer.time += t.projection.time + t.elementwise.time;
    per_layer.energy += t.projection.energy;
    per_layer.energy += t.elementwise.energy;
    ClassSlice &fc = out.slice(LayerClass::Fc);
    addSlice(t.embedding, t.devices, fc);
    addLayers(per_layer, layers, t.devices, fc);
    addLayers(t.ffn, layers - moe_layers, t.devices, fc);
    addSlice(t.lmHead, t.devices, fc);

    // Attention (decode + prefill groups, possibly co-processed).
    addLayers(t.attention.decode, layers, t.decodeDevices,
              out.slice(LayerClass::AttentionDecode));
    addLayers(t.attention.prefill, layers, t.devices,
              out.slice(LayerClass::AttentionPrefill));

    const PicoSec comm =
        t.denseComm * (layers - moe_layers) + t.moeComm * moe_layers;
    out.slice(LayerClass::Communication).time += comm;
    out.time += fc.time + t.attention.composed * layers + comm;
    return out;
}

/**
 * Reference for priceLayers, for the equivalence tests only: the
 * same schedule, re-adding every group once per layer in layer
 * order. Times and expert tokens are identical; energies agree to
 * within 1e-12 relative.
 */
template <class MoeStep>
StageResult
priceLayersReference(const ModelConfig &m, const LayerTimings t,
                     ExpertDraw &draw, std::int64_t moe_tokens,
                     MoeStep &&moe_step)
{
    StageResult out;
    addGroup(t.embedding, t.devices, LayerClass::Fc, out);
    for (int layer = 0; layer < m.numLayers; ++layer) {
        addGroup(t.qkv, t.devices, LayerClass::Fc, out);

        // Attention (decode + prefill groups, possibly co-processed).
        out.time += t.attention.composed;
        addSlice(t.attention.decode, t.decodeDevices,
                 out.slice(LayerClass::AttentionDecode));
        addSlice(t.attention.prefill, t.devices,
                 out.slice(LayerClass::AttentionPrefill));

        // Output projection + residual/layer norms.
        addGroup(t.projection, t.devices, LayerClass::Fc, out);
        addGroup(t.elementwise, t.devices, LayerClass::Fc, out);

        // FFN or MoE (the expert draw is the only per-layer
        // randomness), then the layer's collectives.
        PicoSec comm = t.denseComm;
        if (m.isMoeLayer(layer)) {
            moe_step(draw.draw(moe_tokens, out), out);
            comm = t.moeComm;
        } else {
            addGroup(t.ffn, t.devices, LayerClass::Fc, out);
        }
        out.time += comm;
        out.slice(LayerClass::Communication).time += comm;
    }
    addGroup(t.lmHead, t.devices, LayerClass::Fc, out);
    return out;
}

} // namespace

Cluster::Cluster(const ClusterConfig &config)
    : cfg_(config),
      costs_(config.model),
      plan_(makeShardingPlan(config.model, config.topo,
                             config.expertPlacement)),
      device_(makeDevice(config.deviceSpec)),
      draw_(costs_, config.gatePolicy, config.zipfS, config.seed)
{
    if (cfg_.deviceSpec.hasLowEngine && cfg_.model.numExperts > 0) {
        const double shard = plan_.expertShardFraction();
        lut_ = std::make_unique<ExpertTimeLut>(
            cfg_.deviceSpec.xpu, cfg_.deviceSpec.low,
            costs_.expertFfn(1).scaled(shard),
            costs_.expertFfn(2).scaled(shard));
        device_->setExpertLut(lut_.get());
    }
}

int
Cluster::lastExpertsOnLow() const
{
    if (auto *hybrid = dynamic_cast<HybridDevice *>(device_.get()))
        return hybrid->lastExpertsOnLow();
    return 0;
}

KvBudget
Cluster::kvBudget() const
{
    KvBudget budget;
    budget.deviceCapacity = cfg_.deviceSpec.memCapacity;
    budget.numDevices = cfg_.topo.totalDevices();
    budget.weightBytesTotal =
        weightBytesPerDevice(cfg_.model, cfg_.topo, plan_) *
        static_cast<Bytes>(budget.numDevices);
    budget.reservedBytes = cfg_.reservedBytesPerDevice;
    return budget;
}

const StageShape &
Cluster::nodeShare(const StageShape &stage)
{
    if (cfg_.topo.numNodes <= 1)
        return stage;
    StageShape &share = nodeShareScratch_;
    share.decodeContexts.clear();
    share.prefillLengths.clear();
    share.agg = {};
    for (std::size_t i = 0; i < stage.decodeContexts.size(); ++i)
        if (i % cfg_.topo.numNodes == 0) {
            share.decodeContexts.push_back(stage.decodeContexts[i]);
            share.agg.addDecode(stage.decodeContexts[i]);
        }
    for (std::size_t i = 0; i < stage.prefillLengths.size(); ++i)
        if (i % cfg_.topo.numNodes == 0) {
            share.prefillLengths.push_back(stage.prefillLengths[i]);
            share.agg.addPrefill(stage.prefillLengths[i]);
        }
    share.aggValid = true;
    return share;
}

void
Cluster::runMoeLayer(const std::vector<std::int64_t> &hist,
                     const DeviceTiming &gate_t, StageResult &out)
{
    const ModelConfig &m = cfg_.model;

    // Group the experts the way the plan places them.
    int num_groups = 0;
    int experts_per_group = 0;
    double shard = plan_.expertShardFraction();
    int shards_per_group = plan_.expertTpDegree;
    if (plan_.experts == ExpertPlacement::ExpertParallel) {
        experts_per_group = std::max(1, plan_.expertsPerDevice);
        num_groups = m.numExperts / experts_per_group;
    } else {
        num_groups = plan_.expertEpNodes;
        experts_per_group = m.numExperts / num_groups;
    }

    // One device call for the whole layer, so the device shares its
    // per-token-count memo across groups.
    std::vector<ExpertWork> &work = moeWorkScratch_;
    work.clear();
    work.reserve(static_cast<std::size_t>(num_groups) *
                 experts_per_group);
    for (int e = 0; e < num_groups * experts_per_group; ++e) {
        ExpertWork w;
        w.tokens = hist[e];
        w.cost = draw_.expertCost(hist[e]).scaled(shard);
        work.push_back(w);
    }
    const DeviceTiming moe = device_->runMoeGroups(
        work, experts_per_group,
        static_cast<double>(shards_per_group));

    out.time += gate_t.time + moe.time;
    auto &slice = out.slice(LayerClass::Moe);
    slice.time += gate_t.time + moe.time;
    const double devices =
        static_cast<double>(plan_.tpDegree) * plan_.dpDegree;
    slice.energy.dramJ +=
        moe.energy.dramJ + gate_t.energy.dramJ * devices;
    slice.energy.computeJ +=
        moe.energy.computeJ + gate_t.energy.computeJ * devices;
}

PicoSec
Cluster::moeCommTime(std::int64_t global_tokens,
                     std::int64_t node_tokens) const
{
    // Collectives: token dispatch + combine (all-to-all) for expert
    // parallelism; a single all-reduce for expert tensor parallelism
    // (Section V-B).
    const ModelConfig &m = cfg_.model;
    PicoSec comm = 0;
    const Bytes token_payload =
        static_cast<Bytes>(global_tokens) * m.topK * m.hidden *
        kFp16Bytes;
    if (plan_.experts == ExpertPlacement::ExpertParallel) {
        const Bytes per_device =
            token_payload / cfg_.topo.totalDevices();
        const LinkSpec &link = plan_.expertEpNodes > 1
                                   ? cfg_.topo.interNode
                                   : cfg_.topo.intraNode;
        const int peers = plan_.expertEpNodes > 1
                              ? cfg_.topo.numNodes
                              : cfg_.topo.devicesPerNode;
        comm += 2 * allToAllTime(per_device, peers, link);
    } else {
        const Bytes reduce_bytes = static_cast<Bytes>(node_tokens) *
                                   m.hidden * kFp16Bytes;
        comm += allReduceTime(reduce_bytes, plan_.tpDegree,
                              cfg_.topo.intraNode);
        if (plan_.expertEpNodes > 1) {
            const Bytes per_node = token_payload / cfg_.topo.numNodes;
            comm += 2 * allToAllTime(per_node, cfg_.topo.numNodes,
                                     cfg_.topo.interNode);
        }
    }
    return comm;
}

StageResult
Cluster::executeStage(const StageShape &stage)
{
    return priceStage(stage, false);
}

StageResult
Cluster::executeStageReference(const StageShape &stage)
{
    return priceStage(stage, true);
}

StageResult
Cluster::priceStage(const StageShape &stage, bool reference)
{
    const StageAggregates stage_agg = stage.aggregates();
    const std::int64_t global_tokens = stage_agg.totalTokens();
    if (global_tokens == 0)
        return {};
    const StageShape &node = nodeShare(stage);
    const StageAggregates agg =
        &node == &stage ? stage_agg : node.aggregates();
    const std::int64_t node_tokens = agg.totalTokens();

    const ModelConfig &m = cfg_.model;
    const double tp_shard = plan_.tpShardFraction();
    auto fc = [&](const OpCost &cost) {
        return device_->runHighOpb(cost.scaled(tp_shard));
    };

    LayerTimings t;
    t.devices = static_cast<double>(plan_.tpDegree) * plan_.dpDegree;
    t.decodeDevices = t.devices;
    t.embedding = fc(costs_.embedding(node_tokens));
    t.qkv = fc(costs_.qkv(node_tokens));
    t.attention = device_->runAttention(
        costs_.attentionDecode(agg).scaled(tp_shard),
        costs_.attentionPrefill(agg).scaled(tp_shard));
    t.projection = fc(costs_.projection(node_tokens));
    t.elementwise = fc(costs_.elementwise(node_tokens));
    if (m.numLayers > m.numMoeLayers())
        t.ffn = fc(costs_.denseFfn(node_tokens));
    // LM head: one next-token logit per decode sequence and per
    // prefill sequence.
    t.lmHead = fc(costs_.lmHead(agg.numDecode + agg.numPrefill));

    // All-reduce after the attention block and after the FFN/MoE
    // block output; MoE layers add their expert collectives.
    const Bytes reduce_bytes =
        static_cast<Bytes>(node_tokens) * m.hidden * kFp16Bytes;
    t.denseComm = 2 * allReduceTime(reduce_bytes, plan_.tpDegree,
                                    cfg_.topo.intraNode);
    DeviceTiming gate_t;
    if (m.numMoeLayers() > 0) {
        // Gate runs on every device over the node's tokens (DP
        // ceiling split, as the seed modeled it).
        const std::int64_t moe_node_tokens =
            (global_tokens + plan_.dpDegree - 1) / plan_.dpDegree;
        gate_t = fc(costs_.gate(moe_node_tokens));
        t.moeComm =
            t.denseComm + moeCommTime(global_tokens, moe_node_tokens);
    }

    auto moe_step = [&](const std::vector<std::int64_t> &hist,
                        StageResult &out) {
        runMoeLayer(hist, gate_t, out);
    };
    return reference ? priceLayersReference(m, t, draw_,
                                            global_tokens, moe_step)
                     : priceLayers(m, t, draw_, global_tokens,
                                   moe_step);
}

HeteroCluster::HeteroCluster(const HeteroConfig &config)
    : cfg_(config),
      costs_(config.model),
      energy_(config.gpuSpec.energyParams),
      draw_(costs_, config.gatePolicy, config.zipfS, config.seed)
{
    fatalIf(!cfg_.pimSpec.hasLowEngine,
            "HeteroCluster: PIM devices need a low engine");
}

KvBudget
HeteroCluster::kvBudget() const
{
    // Expert weights and KV cache live on the PIM devices.
    KvBudget budget;
    budget.deviceCapacity = cfg_.pimSpec.memCapacity;
    budget.numDevices = cfg_.numPimDevices;
    const ModelConfig &m = cfg_.model;
    double expert_params = 0.0;
    if (m.numExperts > 0) {
        expert_params = static_cast<double>(m.numMoeLayers()) *
                        m.numExperts * m.ffnParams();
    }
    budget.weightBytesTotal =
        static_cast<Bytes>(expert_params) * kFp16Bytes;
    budget.reservedBytes = cfg_.reservedBytesPerDevice;
    return budget;
}

void
HeteroCluster::runMoeLayer(const std::vector<std::int64_t> &hist,
                           const DeviceTiming &gate_t,
                           StageResult &out)
{
    // The PIM devices own every expert, in all stages.
    addGroup(gate_t, cfg_.numGpus, LayerClass::Moe, out);
    PicoSec worst = 0;
    EnergyBreakdown moe_energy;
    const int per_dev = cfg_.model.numExperts / cfg_.numPimDevices;
    for (int d = 0; d < cfg_.numPimDevices; ++d) {
        PicoSec dev_time = cfg_.pimSpec.low.dispatchOverhead;
        for (int e = d * per_dev; e < (d + 1) * per_dev; ++e) {
            if (hist[e] == 0)
                continue;
            const OpCost c = draw_.expertCost(hist[e]);
            dev_time += operatorTimeNoOverhead(cfg_.pimSpec.low,
                                               c.flops, c.bytes);
            moe_energy.dramJ +=
                energy_.dramEnergyJ(cfg_.pimSpec.lowPath, c.bytes);
            moe_energy.computeJ +=
                energy_.computeEnergyJ(cfg_.pimSpec.lowCls, c.flops);
        }
        worst = std::max(worst, dev_time);
    }
    out.time += worst;
    auto &slice = out.slice(LayerClass::Moe);
    slice.time += worst;
    slice.energy += moe_energy;
}

StageResult
HeteroCluster::executeStage(const StageShape &stage)
{
    return priceStage(stage, false);
}

StageResult
HeteroCluster::executeStageReference(const StageShape &stage)
{
    return priceStage(stage, true);
}

StageResult
HeteroCluster::priceStage(const StageShape &stage, bool reference)
{
    const StageAggregates agg = stage.aggregates();
    const std::int64_t tokens = agg.totalTokens();
    if (tokens == 0)
        return {};

    const ModelConfig &m = cfg_.model;
    const double gpu_shard = 1.0 / cfg_.numGpus;
    const double pim_shard = 1.0 / cfg_.numPimDevices;
    auto gpu = [&](const OpCost &cost) {
        return engineRun(cfg_.gpuSpec.xpu, cfg_.gpuSpec.xpuPath,
                         cfg_.gpuSpec.xpuCls, energy_,
                         cost.scaled(gpu_shard));
    };

    LayerTimings t;
    t.devices = cfg_.numGpus;
    t.decodeDevices = cfg_.numPimDevices;
    t.embedding = gpu(costs_.embedding(tokens));
    t.qkv = gpu(costs_.qkv(tokens));
    // Decode attention runs on the PIM devices beside the KV cache;
    // prefill attention stays on the GPUs (KV is streamed over).
    t.attention.decode = engineRun(
        cfg_.pimSpec.low, cfg_.pimSpec.lowPath, cfg_.pimSpec.lowCls,
        energy_, costs_.attentionDecode(agg).scaled(pim_shard));
    t.attention.prefill = gpu(costs_.attentionPrefill(agg));
    t.attention.composed =
        t.attention.decode.time + t.attention.prefill.time;
    t.projection = gpu(costs_.projection(tokens));
    t.elementwise = gpu(costs_.elementwise(tokens));
    if (m.numLayers > m.numMoeLayers())
        t.ffn = gpu(costs_.denseFfn(tokens));
    t.lmHead = gpu(costs_.lmHead(agg.numDecode + agg.numPrefill));

    // Activations cross to the PIM devices for attention and return
    // for the projection; MoE layers cross again for the experts.
    const Bytes activation_bytes =
        static_cast<Bytes>(tokens) * m.hidden * kFp16Bytes;
    t.denseComm = 2 * p2pTime(activation_bytes, cfg_.link);
    t.moeComm = 2 * t.denseComm;
    DeviceTiming gate_t;
    if (m.numMoeLayers() > 0)
        gate_t = gpu(costs_.gate(tokens));

    auto moe_step = [&](const std::vector<std::int64_t> &hist,
                        StageResult &out) {
        runMoeLayer(hist, gate_t, out);
    };
    return reference
               ? priceLayersReference(m, t, draw_, tokens, moe_step)
               : priceLayers(m, t, draw_, tokens, moe_step);
}

} // namespace duplex
