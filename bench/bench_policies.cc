/**
 * @file
 * Scheduling-policy bench: the batcher-policy x workload sweep —
 * what admission ordering, chunked prefill and class-aware
 * preemption (sched/policy.hh) buy under bursty and mixed-scenario
 * arrivals.
 *
 * Every cell is one SimulationEngine run of the gpu system under a
 * policy variant: plain fcfs (the pre-policy baseline), fcfs with
 * 256-token chunked prefill, ttft-protect (widened prefill cap
 * under backlog), and the priority policy with a quarter of the
 * stream stamped class 1. Prompts are long (Lin ~ 2048, plus the
 * mixed scenario's 8k summarize class) so whole-prompt prefills
 * visibly stall decodes — the regime chunking and burst protection
 * exist for. Cells are independent and run on the SweepRunner
 * worker pool.
 *
 * Output discipline (same as bench_fleet/bench_faults): the sweep
 * table goes to stdout for the CI determinism diff; wall-clock and
 * RSS go to stderr and, with --json=PATH, into a perf report the
 * CI perf gate reads (policies.requests_per_sec floor; see
 * tools/check_perf.py).
 *
 *   ./bench_policies                    # the full sweep
 *   ./bench_policies --requests=48      # quick smoke run
 *   ./bench_policies --json=BENCH_policies.json
 */

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "common/argparse.hh"
#include "workload/registry.hh"

using namespace duplex;

namespace
{

constexpr int kBatch = 16;
constexpr double kOpenLoopQps = 6.0;

/** One batcher-policy configuration under test. */
struct PolicyVariant
{
    const char *label;       //!< table row label
    const char *sched;       //!< SchedulingPolicyRegistry id
    std::int64_t chunk;      //!< prefillChunkTokens (0 = off)
    double priorityFrac;     //!< fraction stamped class 1
};

constexpr PolicyVariant kVariants[] = {
    {"fcfs", "fcfs", 0, 0.0},
    {"fcfs+chunk256", "fcfs", 256, 0.0},
    {"ttft-protect+chunk", "ttft-protect", 256, 0.0},
    {"priority+chunk 25%", "priority", 256, 0.25},
};

const char *const kWorkloads[] = {"bursty", "mixed"};

/**
 * SloAttainment over one priority class only: the priority policy's
 * promise is that class-1 requests keep their SLO through a backlog
 * that sinks the aggregate, so the table splits them out.
 */
class ClassSloAttainment : public SloAttainment
{
  public:
    ClassSloAttainment(SloSpec slo, int priority_class)
        : SloAttainment(slo), class_(priority_class)
    {
    }

    void onRequestRetired(const Request &request,
                          PicoSec now) override
    {
        if (request.priorityClass == class_)
            SloAttainment::onRequestRetired(request, now);
    }

  private:
    int class_;
};

/** The spec every cell shares; long prompts stress prefill. */
WorkloadSpec
policySpec()
{
    WorkloadSpec spec;
    spec.meanInputLen = 2048;
    spec.meanOutputLen = 64;
    spec.qps = kOpenLoopQps;
    spec.burstQps = 100.0;
    spec.idleQps = 0.1;
    spec.meanBurstSec = 0.4;
    spec.meanIdleSec = 8.0;
    return spec;
}

SimConfig
cellConfig(const PolicyVariant &variant,
           const std::string &workload, int requests)
{
    SimConfig c;
    c.systemName = "gpu";
    c.model = mixtralConfig();
    c.workloadName = workload;
    c.workload = policySpec();
    c.workload.priorityFrac = variant.priorityFrac;
    c.maxBatch = kBatch;
    c.numRequests = requests;
    c.warmupRequests = defaultWarmupRequests(kBatch);
    // Runaway backstop, not the run's end: attainment numbers only
    // mean something if the stream drains.
    c.maxStages = 2000000;
    c.schedPolicy = variant.sched;
    c.prefillChunkTokens = variant.chunk;
    return c;
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args;
    args.addFlag("requests", "requests per cell", "96");
    args.addFlag("tbt-slo", "TBT SLO in ms", "40");
    args.addFlag("ttft-slo", "TTFT SLO in ms", "1500");
    args.addFlag("json",
                 "write policy-bench perf metrics to this file", "");
    args.parse(argc, argv);

    const int requests = static_cast<int>(args.getInt("requests"));
    const SloSpec slo{args.getDouble("ttft-slo"),
                      args.getDouble("tbt-slo")};

    banner("Scheduling policies: admission x chunking x priority");
    std::printf("gpu system, batch %d, Lin ~ 2048, Lout ~ 64, "
                "%d request(s)/cell, open loop (bursty 12/1 qps; "
                "mixed at %.0f qps), TTFT < %.0f ms, "
                "TBT < %.0f ms\n",
                kBatch, requests, kOpenLoopQps, slo.t2ftMs,
                slo.tbtMs);

    std::vector<SimConfig> configs;
    for (const char *workload : kWorkloads)
        for (const PolicyVariant &variant : kVariants)
            configs.push_back(
                cellConfig(variant, workload, requests));

    const ObserverFactory factory = [slo](const SimConfig &) {
        std::vector<std::unique_ptr<SimObserver>> obs;
        obs.push_back(std::make_unique<SloAttainment>(slo));
        obs.push_back(
            std::make_unique<ClassSloAttainment>(slo, 1));
        return obs;
    };
    std::vector<ObservedRun> runs;
    const double wall_sec = timed(
        [&] { runs = SweepRunner().runObserved(configs, factory); });

    // ---- deterministic sweep table (stdout, diffed by CI) ------
    Table t({"Workload", "Policy", "tokens/s", "TTFT p50 ms",
             "TTFT att", "TBT att", "req att", "hi att",
             "goodput/s", "preempt"});
    std::int64_t total_retired = 0;
    std::size_t next = 0;
    for (const char *workload : kWorkloads) {
        for (const PolicyVariant &variant : kVariants) {
            const ObservedRun &run = runs[next++];
            const SimResult &r = run.result;
            const auto *attainment =
                dynamic_cast<const SloAttainment *>(
                    run.observers[0].get());
            const auto *high_class =
                dynamic_cast<const ClassSloAttainment *>(
                    run.observers[1].get());
            total_retired += attainment->totalRequests();
            t.startRow();
            t.cell(WorkloadRegistry::instance().displayName(
                workload));
            t.cell(variant.label);
            t.cell(r.metrics.throughputTokensPerSec(), 0);
            t.cell(r.metrics.t2ftMs.percentile(50), 1);
            t.cell(attainment->t2ftAttainment(), 2);
            t.cell(attainment->tbtAttainment(), 2);
            t.cell(attainment->attainment(), 2);
            if (high_class->totalRequests() > 0)
                t.cell(high_class->attainment(), 2);
            else
                t.cell("-");
            t.cell(attainment->goodputTokensPerSec(), 0);
            t.cell(static_cast<double>(r.preemptions), 0);
        }
    }
    t.print();
    std::printf("fcfs is the pre-policy baseline; 'hi att' is SLO "
                "attainment over class-1 requests only (priority "
                "rows stamp 25%% of the stream class 1). Chunking "
                "bounds per-stage prefill tokens so decodes keep "
                "their cadence; priority preemptions restart "
                "evicted low-class decodes from prefill.\n");

    return reportSweep("policies", configs.size(), total_retired, wall_sec,
                       args.getString("json"));
}
