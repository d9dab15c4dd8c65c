/**
 * @file
 * Simulator performance harness: times the end-to-end hot path and
 * emits BENCH_perf.json so the perf trajectory is a tracked,
 * per-PR artifact (uploaded by the CI Release job).
 *
 * Three probes:
 *  - cost model: the O(1) closed-form attention costs against the
 *    retained per-context reference loops (batch 256);
 *  - stage execution: stages/sec of Cluster::executeStage on a
 *    representative decode and mixed stage of Mixtral, and on the
 *    decode stage of the dense 80-layer Llama3;
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
 *    decode-sized and a prefill-sized MoE layer.
 */

#include <chrono>
#include <cstdio>

#include "bench_util.hh"
#include "kvcache/prefix_cache.hh"
#include "workload/experts.hh"
#include "workload/registry.hh"

using namespace duplex;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start)
        .count();
}

/** Closed-form vs reference attention-cost microbenchmark. */
struct CostModelProbe
{
    double closedFormNs = 0.0;
    double referenceNs = 0.0;
    double speedup = 0.0;
    // Folded into the JSON so the compiler cannot drop the loops.
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
    auto t0 = Clock::now();
    for (int i = 0; i < iters; ++i) {
        probe.checksum += costs.attentionDecode(agg).flops;
        probe.checksum += costs.attentionPrefill(agg).flops;
    }
    probe.closedFormNs = secondsSince(t0) * 1e9 / iters;

    const int ref_iters = 2000;
    t0 = Clock::now();
    for (int i = 0; i < ref_iters; ++i) {
        probe.checksum -= costs.attentionDecodeReference(stage).flops;
        probe.checksum -= costs.attentionPrefillReference(stage).flops;
    }
    probe.referenceNs = secondsSince(t0) * 1e9 / ref_iters;
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
    // Warm up once (device LUT construction etc.).
    sys->executeStage(stage);
    // Whole batches of 300 stages until 50 ms have passed, so a
    // sub-microsecond dense stage is timed over enough iterations.
    const int batch = 300;
    std::int64_t iters = 0;
    double sec = 0.0;
    const auto t0 = Clock::now();
    PicoSec sink = 0;
    do {
        for (int i = 0; i < batch; ++i)
            sink += sys->executeStage(stage).time;
        iters += batch;
        sec = secondsSince(t0);
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
    const auto t0 = Clock::now();
    const std::vector<SimResult> results = runSweep(configs);
    probe.wallSec = secondsSince(t0);
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
    const auto t0 = Clock::now();
    for (int i = 0; i < iters; ++i)
        sink += source->next().inputLen;
    const double sec = secondsSince(t0);
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
    const auto t0 = Clock::now();
    for (int i = 0; i < iters; ++i) {
        r.sessionId = i % sessions;
        sink += pool.acquire(r);
        pool.install(r);
    }
    const double sec = secondsSince(t0);
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
    const auto t0 = Clock::now();
    for (std::int64_t i = 0; i < calls; ++i) {
        selector.sampleInto(rng, tokens, hist);
        sink += hist[0];
    }
    const double sec = secondsSince(t0);
    return sink >= 0 && sec > 0.0 ? calls * tokens / sec : 0.0;
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
    struct StageProbe
    {
        const char *name;
        double stagesPerSec;
    };
    const StageProbe stage_probes[] = {
        {"gpu_decode64", probeStageExec("gpu", mixtral, decode_stage)},
        {"gpu_mixed64", probeStageExec("gpu", mixtral, mixed_stage)},
        {"duplex_decode64",
         probeStageExec("duplex-pe-et", mixtral, decode_stage)},
        {"duplex_mixed64",
         probeStageExec("duplex-pe-et", mixtral, mixed_stage)},
        // Dense 80-layer model: no expert draws, so these time the
        // layer schedule itself.
        {"gpu_llama3_decode64",
         probeStageExec("gpu", llama3, decode_stage)},
        {"duplex_llama3_decode64",
         probeStageExec("duplex-pe-et", llama3, decode_stage)},
    };
    for (const StageProbe &p : stage_probes)
        std::printf("stage exec %-22s %10.0f stages/s\n", p.name,
                    p.stagesPerSec);

    struct WorkloadGenProbe
    {
        const char *name;
        double requestsPerSec;
    };
    const WorkloadGenProbe workload_probes[] = {
        {"synthetic", probeWorkloadGen("synthetic")},
        {"bursty", probeWorkloadGen("bursty")},
        {"diurnal", probeWorkloadGen("diurnal")},
        {"mixed", probeWorkloadGen("mixed")},
        {"session", probeWorkloadGen("session")},
    };
    for (const WorkloadGenProbe &p : workload_probes)
        std::printf("workload gen %-12s %12.0f requests/s\n",
                    p.name, p.requestsPerSec);

    const double prefix_cache_ops = probePrefixCache();
    std::printf("prefix cache %25.0f acquire+install/s\n",
                prefix_cache_ops);

    struct MoeDrawProbe
    {
        const char *name;
        double tokensPerSec;
    };
    const MoeDrawProbe draw_probes[] = {
        {"mixtral_256", probeMoeDraw(8, 256)},
        {"mixtral_4096", probeMoeDraw(8, 4096)},
        {"glam_256", probeMoeDraw(64, 256)},
        {"glam_4096", probeMoeDraw(64, 4096)},
    };
    for (const MoeDrawProbe &p : draw_probes)
        std::printf("moe draw %-16s %12.0f tokens/s\n", p.name,
                    p.tokensPerSec);

    const SweepProbe sweeps[] = {
        timeSweep("fig11-throughput", fig11SweepConfigs()),
        timeSweep("fig12-glam-latency", fig12SweepConfigs())};
    for (const SweepProbe &s : sweeps)
        std::printf("%s: %d configs in %.2f s (%.0f stages/s, "
                    "%.0f requests/s)\n",
                    s.name, s.configs, s.wallSec,
                    s.stages / s.wallSec,
                    s.requests / s.wallSec);

    std::FILE *json = std::fopen("BENCH_perf.json", "w");
    if (json == nullptr) {
        std::fprintf(stderr, "cannot write BENCH_perf.json\n");
        return 1;
    }
    std::fprintf(json, "{\n");
    std::fprintf(json, "  \"schema\": 1,\n");
    std::fprintf(json, "  \"sweep_workers\": %d,\n",
                 SweepRunner().workers());
    std::fprintf(json,
                 "  \"cost_model\": {\"closed_form_ns\": %.3f, "
                 "\"reference_ns\": %.3f, \"speedup\": %.3f, "
                 "\"checksum\": %.17g},\n",
                 cost.closedFormNs, cost.referenceNs, cost.speedup,
                 cost.checksum);
    std::fprintf(json, "  \"stage_exec\": {");
    for (std::size_t i = 0; i < std::size(stage_probes); ++i)
        std::fprintf(json, "%s\"%s\": %.3f", i ? ", " : "",
                     stage_probes[i].name,
                     stage_probes[i].stagesPerSec);
    std::fprintf(json, "},\n");
    std::fprintf(json, "  \"workload_gen\": {");
    for (std::size_t i = 0; i < std::size(workload_probes); ++i)
        std::fprintf(json, "%s\"%s\": %.3f", i ? ", " : "",
                     workload_probes[i].name,
                     workload_probes[i].requestsPerSec);
    std::fprintf(json, "},\n");
    std::fprintf(json,
                 "  \"prefix_cache\": {\"ops_per_sec\": %.3f},\n",
                 prefix_cache_ops);
    std::fprintf(json, "  \"moe_draw\": {");
    for (std::size_t i = 0; i < std::size(draw_probes); ++i)
        std::fprintf(json, "%s\"%s\": %.3f", i ? ", " : "",
                     draw_probes[i].name,
                     draw_probes[i].tokensPerSec);
    std::fprintf(json, "},\n");
    std::fprintf(json, "  \"figure_sweeps\": [");
    for (std::size_t i = 0; i < std::size(sweeps); ++i) {
        const SweepProbe &s = sweeps[i];
        std::fprintf(json,
                     "%s{\"name\": \"%s\", \"configs\": %d, "
                     "\"wall_sec\": %.3f, \"stages_per_sec\": %.1f, "
                     "\"requests_per_sec\": %.2f, "
                     "\"tokens_per_sec\": %.1f}",
                     i ? ", " : "", s.name, s.configs, s.wallSec,
                     s.stages / s.wallSec,
                     s.requests / s.wallSec,
                     s.tokens / s.wallSec);
    }
    std::fprintf(json, "]\n");
    std::fprintf(json, "}\n");
    std::fclose(json);
    std::printf("wrote BENCH_perf.json\n");
    return 0;
}
