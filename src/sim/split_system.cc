#include "sim/split_system.hh"

#include <algorithm>
#include <sstream>
#include <vector>

#include "common/log.hh"
#include "sched/arrivals.hh"
#include "sim/engine.hh"
#include "workload/registry.hh"

namespace duplex
{

int
SplitSystem::defaultGroupDevices(const ModelConfig &model)
{
    // The paper's symmetric split: half the devices per group.
    const int half = defaultTopology(model, false).devicesPerNode / 2;
    fatalIf(half < 1, "split system needs at least two devices");
    return half;
}

ClusterConfig
SplitSystem::groupConfig(const ModelConfig &model,
                         std::uint64_t seed, int devices)
{
    // Each group gets its device count and a full copy of the
    // (sharded) weights.
    fatalIf(defaultTopology(model, false).numNodes != 1,
            "split system modeled for single-node configurations");
    fatalIf(devices < 1, "split group needs at least one device");
    ClusterConfig group =
        makeClusterConfig("duplex-pe-et", model, seed);
    group.topo.numNodes = 1;
    group.topo.devicesPerNode = devices;
    if (model.numExperts > 0 && model.numExperts % devices != 0) {
        group.expertPlacement = ExpertPlacement::ExpertTensorParallel;
    }
    return group;
}

SplitSystem::SplitSystem(std::string name, const ModelConfig &model,
                         std::uint64_t seed, const SplitSpec &spec)
    : name_(std::move(name)), model_(model), spec_(spec),
      prefill_(groupConfig(model, seed,
                           spec.prefillDevices > 0
                               ? spec.prefillDevices
                               : defaultGroupDevices(model))),
      decode_([&] {
          ClusterConfig decode_group = groupConfig(
              model, seed,
              spec.decodeDevices > 0 ? spec.decodeDevices
                                     : defaultGroupDevices(model));
          decode_group.seed = seed + 1;
          return decode_group;
      }()),
      nvlink_(SystemTopology{}.intraNode)
{
    // Both groups duplicate the full weights, and both need KV
    // headroom: the decode group holds every active context, the
    // prefill group holds a batch's prompt KV until it migrates.
    fatalIf(prefill_.maxKvTokens() <= 0,
            "split system '" + name_ + "': a prefill group of " +
                std::to_string(prefillDevices()) +
                " device(s) cannot hold the duplicated weights "
                "plus prompt KV for " +
                model.name);
    fatalIf(decode_.maxKvTokens() <= 0,
            "split system '" + name_ + "': a decode group of " +
                std::to_string(decodeDevices()) +
                " device(s) cannot hold the duplicated weights "
                "plus any KV cache for " +
                model.name);
}

int
SplitSystem::prefillDevices() const
{
    return prefill_.config().topo.devicesPerNode;
}

int
SplitSystem::decodeDevices() const
{
    return decode_.config().topo.devicesPerNode;
}

StageResult
SplitSystem::executeStage(const StageShape &stage)
{
    // Split the stage by aggregates so aggregate-only shapes (the
    // schedulers' default view) work too; per-context vectors are
    // forwarded when present (hand-built shapes).
    const StageAggregates agg = stage.aggregates();
    StageShape prefill_part;
    prefill_part.prefillLengths = stage.prefillLengths;
    prefill_part.agg = {0, 0, agg.numPrefill, agg.prefillSum,
                        agg.prefillSqSum};
    prefill_part.aggValid = true;
    StageShape decode_part;
    decode_part.decodeContexts = stage.decodeContexts;
    decode_part.agg = {agg.numDecode, agg.contextSum, 0, 0, 0};
    decode_part.aggValid = true;

    StageResult r;
    if (agg.numPrefill > 0)
        r += prefill_.executeStage(prefill_part);
    if (agg.numDecode > 0)
        r += decode_.executeStage(decode_part);
    return r;
}

KvBudget
SplitSystem::kvBudget() const
{
    return decode_.kvBudget();
}

std::int64_t
SplitSystem::maxKvTokens() const
{
    return decode_.maxKvTokens();
}

std::string
SplitSystem::describe() const
{
    std::ostringstream out;
    out << name_ << ": " << prefillDevices() << " prefill + "
        << decodeDevices()
        << " decode device(s), duplicated weights, KV migrates "
           "over NVLink";
    if (spec_.contendedKvTransfer)
        out << " (FIFO link contention)";
    return out.str();
}

std::optional<SimResult>
SplitSystem::runCustomLoop(const SimConfig &config,
                           SimObserver &observer)
{
    // The same arrival stream the engine loop would consume,
    // built through the workload registry: closed loop when the
    // source carries no arrival stamps, arrival-gated otherwise
    // (sched/arrivals.hh).
    ArrivalQueue waiting(makeWorkload(config.workloadIdOrDefault(),
                                      config.workload),
                         config.numRequests);

    // KV capacity of the decode group only.
    const std::int64_t kv_limit = decode_.maxKvTokens();

    struct PendingDecode
    {
        Request req;
        PicoSec issuedAt; //!< when the KV migration was issued
        PicoSec readyAt;  //!< when it lands on the decode group
    };

    std::vector<PendingDecode> transferred;
    std::vector<Request> active;

    // Retirement streaming, mirroring the engine loop: retired
    // requests are ingested (and dropped) immediately unless the
    // caller asked for the retained reference path.
    const bool retained =
        config.metricsMode == MetricsMode::Retained;
    MetricsAccumulator accumulator = makeMetricsAccumulator(
        config.metricsMode,
        static_cast<std::size_t>(config.warmupRequests),
        config.boundedLatency);
    std::vector<Request> finished;

    LinkQueue link(nvlink_);

    PicoSec prefill_now = 0;
    PicoSec decode_now = 0;
    PicoSec decode_link_wait = 0; //!< stalls since last decode stage
    std::int64_t total_generated = 0;
    SimResult result;
    std::int64_t stages = 0;

    const int max_prefill_batch = config.maxPrefillsPerStage;

    std::vector<GroupObservation> group_scratch;

    // Incrementally maintained over `active`, replacing the former
    // per-round walks: the full-lifetime KV budget (the batcher's
    // admission rule) and the decode-set aggregates the O(1) cost
    // model prices stages from.
    std::int64_t active_lifetime_kv = 0;
    StageAggregates decode_agg;

    while ((!waiting.empty() || !transferred.empty() ||
            !active.empty()) &&
           stages < config.maxStages) {
        // The prefill group paces itself against decode demand: it
        // keeps a small reserve of ready requests, no more.
        while (!waiting.empty() &&
               static_cast<int>(transferred.size() + active.size()) <
                   config.maxBatch + max_prefill_batch) {
            if (!waiting.hasAdmissible(prefill_now)) {
                // Open loop, prefill group idle: sit until the next
                // arrival (shared no-drift rule with the engine).
                prefill_now =
                    idleAdvance(prefill_now, waiting.nextArrival());
            }
            StageShape stage;
            std::vector<Request> batch;
            while (waiting.hasAdmissible(prefill_now) &&
                   static_cast<int>(batch.size()) <
                       max_prefill_batch) {
                Request r = waiting.pop(prefill_now);
                stage.prefillLengths.push_back(r.inputLen);
                stage.agg.addPrefill(r.inputLen);
                batch.push_back(std::move(r));
            }
            stage.aggValid = true;
            const PicoSec stage_start = prefill_now;
            const StageResult sr = prefill_.executeStage(stage);
            prefill_now += sr.time;
            result.totals += sr;
            group_scratch.clear();
            group_scratch.push_back(
                {"prefill", prefillDevices(), sr.time, 0});
            observer.onStage({stages, stage_start, prefill_now,
                              stage, sr, stage.contextTokens(),
                              &group_scratch});
            ++stages;
            for (auto &r : batch) {
                r.firstToken = prefill_now;
                r.generated = 1;
                r.tokenTimes.push_back(prefill_now);
                ++total_generated;
                // Migrate the prompt KV to the decode group: a free
                // parallel copy in the seed model, a FIFO-serialized
                // link occupancy when contention is enabled.
                const Bytes kv_bytes =
                    static_cast<Bytes>(r.inputLen) *
                    model_.kvBytesPerToken();
                const PicoSec ready =
                    spec_.contendedKvTransfer
                        ? link.transfer(prefill_now, kv_bytes)
                        : prefill_now + p2pTime(kv_bytes, nvlink_);
                transferred.push_back({r, prefill_now, ready});
            }
        }

        // Admit transferred requests the decode group can hold.
        std::sort(transferred.begin(), transferred.end(),
                  [](const PendingDecode &a, const PendingDecode &b) {
                      return a.readyAt < b.readyAt;
                  });
        std::int64_t kv = active_lifetime_kv;
        for (auto it = transferred.begin();
             it != transferred.end();) {
            if (static_cast<int>(active.size()) >= config.maxBatch)
                break;
            if (it->readyAt > decode_now) {
                if (active.empty()) {
                    // Idle jump; the slice of the stall overlapping
                    // the KV migration itself is link-wait time.
                    const PicoSec migration_start =
                        std::max(decode_now, it->issuedAt);
                    if (it->readyAt > migration_start)
                        decode_link_wait +=
                            it->readyAt - migration_start;
                    decode_now = it->readyAt;
                } else {
                    break;
                }
            }
            const std::int64_t need =
                kv + it->req.inputLen + it->req.outputLen +
                static_cast<std::int64_t>(active.size()) + 1;
            if (need > kv_limit) {
                fatalIf(active.empty(),
                        "split system: one request's KV exceeds the "
                        "decode group's capacity");
                break;
            }
            kv += it->req.contextLen();
            active_lifetime_kv +=
                it->req.inputLen + it->req.outputLen;
            decode_agg.addDecode(it->req.contextLen());
            active.push_back(it->req);
            it = transferred.erase(it);
        }

        if (active.empty()) {
            if (transferred.empty() && waiting.empty())
                break;
            continue;
        }

        // One decode-only stage, published aggregate-only: the
        // decode group's O(1) cost model prices it from the
        // incrementally maintained sums, bit-identical to the
        // former per-context vector.
        StageShape stage;
        stage.agg = decode_agg;
        stage.aggValid = true;
        const PicoSec stage_start = decode_now;
        const StageResult sr = decode_.executeStage(stage);
        decode_now += sr.time;
        result.totals += sr;
        group_scratch.clear();
        group_scratch.push_back(
            {"decode", decodeDevices(), sr.time, decode_link_wait});
        decode_link_wait = 0;
        observer.onStage({stages, stage_start, decode_now, stage,
                          sr, stage.contextTokens(),
                          &group_scratch});
        ++stages;

        std::vector<Request> still;
        still.reserve(active.size());
        for (auto &r : active) {
            decode_agg.removeDecode(r.contextLen());
            r.generated += 1;
            r.tokenTimes.push_back(decode_now);
            ++total_generated;
            if (r.done()) {
                r.finished = decode_now;
                active_lifetime_kv -= r.inputLen + r.outputLen;
                observer.onRequestRetired(r, decode_now);
                // Retirement feedback: a session workload releases
                // its next turn through the shared arrival stream
                // (no-op for every other source).
                waiting.notifyRetired(r, decode_now);
                if (retained)
                    finished.push_back(std::move(r));
                else
                    accumulator.ingest(r); // then dropped
            } else {
                decode_agg.addDecode(r.contextLen());
                still.push_back(std::move(r));
            }
        }
        active = std::move(still);
        result.peakBatch = std::max(
            result.peakBatch,
            static_cast<int>(stage.agg.numDecode));
    }

    result.metrics =
        retained ? collectMetrics(finished,
                                  static_cast<std::size_t>(
                                      config.warmupRequests))
                 : accumulator.takeMetrics();
    if (config.metricsMode == MetricsMode::Bounded)
        result.boundedLatency =
            std::make_shared<const BoundedLatencyMetrics>(
                accumulator.takeBounded());
    result.generatedTokens = total_generated;
    result.metrics.totalTokens = total_generated;
    result.metrics.elapsed = std::max(prefill_now, decode_now);
    result.metrics.decodingOnlyStages = stages;
    result.metrics.mixedStages = 0;
    return result;
}

} // namespace duplex
