/**
 * @file
 * Simulator performance harness: times the end-to-end hot path and
 * writes BENCH_perf.json (a bench_util.hh PerfReport), which the CI
 * perf job gates (tools/check_perf.py) and uploads per PR.
 *
 * Three probes:
 *  - cost model: the O(1) closed-form attention costs against the
 *    retained per-context reference loops (batch 256);
 *  - stage execution: stages/sec of Cluster::executeStage on a
 *    representative decode and mixed stage of Mixtral (each MoE
 *    pricing path: GPU, whole-group Duplex, co-processed expert- and
 *    expert-tensor-parallel groups), on GLaM's 64-expert decode
 *    stage, and on the decode stage of the dense 80-layer Llama3;
 *  - figure sweeps: wall-clock of the Fig. 11 throughput sweep
 *    (the paper's headline figure, 135 simulations) and the
 *    Fig. 12 GLaM latency sweep through the SweepRunner, with
 *    stages/sec and requests/sec;
 *  - workload generation: requests/sec drawn from the registered
 *    workload sources (the streaming ArrivalQueue puts source
 *    draws on the driver loop's critical path);
 *  - prefix cache: acquire+install ops/sec of a PrefixCachePool
 *    under eviction churn (the kvcache probe sits on every
 *    admission and retirement of a cache-enabled run);
 *  - MoE expert draw: tokens/sec of ExpertSelector::sampleInto for
 *    the Mixtral (8-expert) and GLaM (64-expert) top-2 gates at a
 *    decode-sized and a prefill-sized MoE layer, and token-layers/sec
 *    of whole Mixtral stages (32 MoE layers) whose token count
 *    changes every stage, as moe-longrun's do, with the CPU seconds
 *    those stages take per wall second (the draw helper's share).
 */

#include <cstdio>

#include "bench_util.hh"
#include "kvcache/prefix_cache.hh"
#include "workload/expert_lanes.hh"
#include "workload/experts.hh"
#include "workload/registry.hh"

using namespace duplex;

namespace
{

/** One named probe's rate (stages/s, requests/s or tokens/s). */
struct Rate
{
    const char *name;
    double perSec;
};

/** Closed-form vs reference attention-cost microbenchmark. */
struct CostModelProbe
{
    double closedFormNs = 0.0;
    double referenceNs = 0.0;
    double speedup = 0.0;
    // Folded into the report so the compiler cannot drop the loops.
    double checksum = 0.0;
};

CostModelProbe
probeCostModel()
{
    const LayerCosts costs(mixtralConfig());
    StageShape stage;
    for (int i = 0; i < 256; ++i)
        stage.decodeContexts.push_back(1024 + 13 * i);
    for (int i = 0; i < 4; ++i)
        stage.prefillLengths.push_back(2048 + 101 * i);
    const StageAggregates agg = aggregatesOf(stage);

    CostModelProbe probe;
    const int iters = 20000;
    probe.closedFormNs = timed([&] {
        for (int i = 0; i < iters; ++i) {
            probe.checksum += costs.attentionDecode(agg).flops;
            probe.checksum += costs.attentionPrefill(agg).flops;
        }
    }) * 1e9 / iters;

    const int ref_iters = 2000;
    probe.referenceNs = timed([&] {
        for (int i = 0; i < ref_iters; ++i) {
            probe.checksum -=
                costs.attentionDecodeReference(stage).flops;
            probe.checksum -=
                costs.attentionPrefillReference(stage).flops;
        }
    }) * 1e9 / ref_iters;
    probe.speedup = probe.closedFormNs > 0.0
                        ? probe.referenceNs / probe.closedFormNs
                        : 0.0;
    return probe;
}

/** Stages/sec of one system on a fixed stage shape. */
double
probeStageExec(const std::string &system, const ModelConfig &model,
               const StageShape &stage)
{
    const std::unique_ptr<ServingSystem> sys = makeSystem(system, model);
    // Warm up once (expert price cache, scratch allocation).
    sys->executeStage(stage);
    // Whole batches of 300 stages until 50 ms have passed, so a
    // sub-microsecond dense stage is timed over enough iterations.
    const int batch = 300;
    std::int64_t iters = 0;
    double sec = 0.0;
    PicoSec sink = 0;
    do {
        sec += timed([&] {
            for (int i = 0; i < batch; ++i)
                sink += sys->executeStage(stage).time;
        });
        iters += batch;
    } while (sec < 0.05);
    return sink > 0 && sec > 0.0 ? iters / sec : 0.0;
}

struct SweepProbe
{
    const char *name = "";
    int configs = 0;
    double wallSec = 0.0;
    std::int64_t stages = 0;
    std::int64_t requests = 0;
    std::int64_t tokens = 0;
};

SweepProbe
timeSweep(const char *name, const std::vector<SimConfig> &configs)
{
    SweepProbe probe;
    probe.name = name;
    probe.configs = static_cast<int>(configs.size());
    std::vector<SimResult> results;
    probe.wallSec = timed([&] { results = runSweep(configs); });
    for (std::size_t i = 0; i < results.size(); ++i) {
        probe.stages += results[i].metrics.decodingOnlyStages +
                        results[i].metrics.mixedStages;
        probe.requests += configs[i].numRequests;
        probe.tokens += results[i].generatedTokens;
    }
    return probe;
}

// The sweeps time exactly the configs the figure benches run
// (bench_util's fig11SweepConfigs / fig12SweepConfigs), so the
// tracked numbers stay in lockstep with the figures.

/** Requests/sec one workload source sustains. */
double
probeWorkloadGen(const std::string &id)
{
    WorkloadSpec spec;
    spec.qps = 8.0;
    spec.diurnalPeriodSec = 30.0;
    const std::unique_ptr<WorkloadSource> source =
        makeWorkload(id, spec);
    // Warm up once (lookahead buffer, first-state draws).
    std::int64_t sink = source->next().inputLen;
    const int iters = 200000;
    const double sec = timed([&] {
        for (int i = 0; i < iters; ++i)
            sink += source->next().inputLen;
    });
    return sink > 0 && sec > 0.0 ? iters / sec : 0.0;
}

/**
 * Acquire+install cycles/sec of a PrefixCachePool whose working
 * set (512 sessions x 256 tokens) overflows the budget (64 Ki
 * tokens), so the eviction scan stays on the timed path.
 */
double
probePrefixCache()
{
    PrefixCacheSpec spec;
    spec.budgetBytes = 64ll << 20;
    spec.evictPolicy = "lru";
    PrefixCachePool pool(spec, 1024);
    Request r;
    r.inputLen = 256;
    const int sessions = 512;
    const int iters = 100000;
    std::int64_t sink = 0;
    const double sec = timed([&] {
        for (int i = 0; i < iters; ++i) {
            r.sessionId = i % sessions;
            sink += pool.acquire(r);
            pool.install(r);
        }
    });
    return sink >= 0 && sec > 0.0 ? iters / sec : 0.0;
}

/** Tokens/sec one uniform top-2 gate draws, @p tokens per call. */
double
probeMoeDraw(int experts, std::int64_t tokens)
{
    const ExpertSelector selector(experts, 2);
    Rng rng(7);
    std::vector<std::int64_t> hist;
    // Warm up once (histogram allocation).
    selector.sampleInto(rng, tokens, hist);
    std::int64_t sink = hist[0];
    const std::int64_t calls = (std::int64_t{1} << 24) / tokens;
    const double sec = timed([&] {
        for (std::int64_t i = 0; i < calls; ++i) {
            selector.sampleInto(rng, tokens, hist);
            sink += hist[0];
        }
    });
    return sink >= 0 && sec > 0.0 ? calls * tokens / sec : 0.0;
}

/**
 * Token-layers/sec of Mixtral stages: 32 consecutive MoE layers per
 * stage on one generator, @p tokens and @p tokens + 1 in turn, so
 * every stage misses the lane jump memo as a moe-longrun stage does.
 */
double
probeMoeStage(std::int64_t tokens)
{
    constexpr int kLayers = 32;
    const ExpertSelector selector(8, 2);
    Rng rng(7);
    std::vector<std::int64_t> hist;
    selector.sampleInto(rng, tokens, hist);
    std::int64_t sink = hist[0];
    const std::int64_t stages = (std::int64_t{1} << 24) / (tokens * kLayers);
    std::int64_t token_layers = 0;
    const double sec = timed([&] {
        for (std::int64_t s = 0; s < stages; ++s) {
            const std::int64_t t = tokens + (s & 1);
            for (int layer = 0; layer < kLayers; ++layer) {
                selector.sampleInto(rng, t, hist);
                sink += hist[0];
            }
            token_layers += t * kLayers;
        }
    });
    return sink >= 0 && sec > 0.0 ? token_layers / sec : 0.0;
}

} // namespace

int
main()
{
    banner("Perf: simulator throughput (BENCH_perf.json)");

    const CostModelProbe cost = probeCostModel();
    std::printf("cost model: closed form %.1f ns, reference %.1f "
                "ns, speedup %.1fx\n",
                cost.closedFormNs, cost.referenceNs, cost.speedup);

    StageShape decode_stage;
    for (int i = 0; i < 64; ++i)
        decode_stage.decodeContexts.push_back(2048);
    StageShape mixed_stage = decode_stage;
    mixed_stage.prefillLengths.push_back(2048);

    const ModelConfig mixtral = mixtralConfig();
    const ModelConfig llama3 = llama3Config();
    const Rate stage_probes[] = {
        {"gpu_decode64", probeStageExec("gpu", mixtral, decode_stage)},
        {"gpu_mixed64", probeStageExec("gpu", mixtral, mixed_stage)},
        {"duplex_decode64",
         probeStageExec("duplex-pe-et", mixtral, decode_stage)},
        {"duplex_mixed64",
         probeStageExec("duplex-pe-et", mixtral, mixed_stage)},
        // The other MoE pricing paths: whole groups on the faster
        // engine, co-processing over expert-parallel groups, and
        // GLaM's 64 experts in one co-processed group.
        {"duplex_decode64_nope",
         probeStageExec("duplex", mixtral, decode_stage)},
        {"duplex_pe_decode64",
         probeStageExec("duplex-pe", mixtral, decode_stage)},
        {"glam_duplex_pe_et_decode64",
         probeStageExec("duplex-pe-et", glamConfig(), decode_stage)},
        // Dense 80-layer model: no expert draws, so these time the
        // layer schedule itself.
        {"gpu_llama3_decode64",
         probeStageExec("gpu", llama3, decode_stage)},
        {"duplex_llama3_decode64",
         probeStageExec("duplex-pe-et", llama3, decode_stage)},
    };
    for (const Rate &p : stage_probes)
        std::printf("stage exec %-22s %10.0f stages/s\n", p.name,
                    p.perSec);

    const Rate workload_probes[] = {
        {"synthetic", probeWorkloadGen("synthetic")},
        {"bursty", probeWorkloadGen("bursty")},
        {"diurnal", probeWorkloadGen("diurnal")},
        {"mixed", probeWorkloadGen("mixed")},
        {"session", probeWorkloadGen("session")},
    };
    for (const Rate &p : workload_probes)
        std::printf("workload gen %-12s %12.0f requests/s\n",
                    p.name, p.perSec);

    const double prefix_cache_ops = probePrefixCache();
    std::printf("prefix cache %25.0f acquire+install/s\n",
                prefix_cache_ops);

    // 164 and 830 tokens are moe-longrun's decode and mixed stages.
    const Rate draw_probes[] = {
        {"mixtral_164", probeMoeDraw(8, 164)},
        {"mixtral_830", probeMoeDraw(8, 830)},
        {"mixtral_256", probeMoeDraw(8, 256)},
        {"mixtral_4096", probeMoeDraw(8, 4096)},
        {"glam_256", probeMoeDraw(64, 256)},
        {"glam_4096", probeMoeDraw(64, 4096)},
    };
    for (const Rate &p : draw_probes)
        std::printf("moe draw %-16s %12.0f tokens/s\n", p.name,
                    p.perSec);
    Rate stage_draw_probes[] = {{"mixtral_stage_164", 0.0},
                                {"mixtral_stage_830", 0.0}};
    const double stage_cpu0 = processCpuSec();
    const double stage_wall = timed([&] {
        stage_draw_probes[0].perSec = probeMoeStage(164);
        stage_draw_probes[1].perSec = probeMoeStage(830);
    });
    const double stage_cpu_per_wall =
        (processCpuSec() - stage_cpu0) / stage_wall;
    for (const Rate &p : stage_draw_probes)
        std::printf("moe draw %-18s %10.0f token-layers/s\n", p.name,
                    p.perSec);
    std::printf("moe draw stages: %.2f CPU s per wall s\n",
                stage_cpu_per_wall);
    std::printf("moe draw lane width %d, %d helper threads, IFMA "
                "remainder %s\n",
                Rng::laneWidth(), ExpertSelector::drawHelpers(),
                laneRemainderIfma() ? "yes" : "no");

    const SweepProbe sweeps[] = {
        timeSweep("fig11-throughput", fig11SweepConfigs()),
        timeSweep("fig12-glam-latency", fig12SweepConfigs())};
    for (const SweepProbe &s : sweeps)
        std::printf("%s: %d configs in %.2f s (%.0f stages/s, "
                    "%.0f requests/s)\n",
                    s.name, s.configs, s.wallSec,
                    s.stages / s.wallSec,
                    s.requests / s.wallSec);

    PerfReport report;
    report.add("sweep_workers", SweepRunner().workers());
    report.add("cost_model.closed_form_ns", cost.closedFormNs);
    report.add("cost_model.reference_ns", cost.referenceNs);
    report.add("cost_model.speedup", cost.speedup);
    report.add("cost_model.checksum", cost.checksum);
    for (const Rate &p : stage_probes)
        report.add(std::string("stage_exec.") + p.name, p.perSec);
    for (const Rate &p : workload_probes)
        report.add(std::string("workload_gen.") + p.name, p.perSec);
    report.add("prefix_cache.ops_per_sec", prefix_cache_ops);
    for (const Rate &p : draw_probes)
        report.add(std::string("moe_draw.") + p.name, p.perSec);
    for (const Rate &p : stage_draw_probes)
        report.add(std::string("moe_draw.") + p.name, p.perSec);
    report.add("moe_draw.lane_width", Rng::laneWidth());
    report.add("moe_draw.draw_helpers", ExpertSelector::drawHelpers());
    report.add("moe_draw.ifma", laneRemainderIfma() ? 1 : 0);
    report.add("moe_draw.stage_cpu_per_wall", stage_cpu_per_wall);
    for (const SweepProbe &s : sweeps) {
        const std::string key = std::string("figure_sweeps.") + s.name;
        report.add(key + ".configs", s.configs);
        report.add(key + ".wall_sec", s.wallSec);
        report.add(key + ".stages_per_sec", s.stages / s.wallSec);
        report.add(key + ".requests_per_sec", s.requests / s.wallSec);
        report.add(key + ".tokens_per_sec", s.tokens / s.wallSec);
    }
    return report.write("BENCH_perf.json") ? 0 : 1;
}
