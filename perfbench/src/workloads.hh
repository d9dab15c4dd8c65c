/**
 * @file
 * The benchmark's workloads: what each one simulates, how one
 * repetition runs it (untraced through the public drivers, or traced
 * through the wrapped components), and the output checks every
 * repetition must pass.
 *
 *  - moe-longrun: one duplex-pe-et Mixtral instance on the engine's
 *    driver loop, open-loop Poisson just under its service rate.
 *  - dense-session-fleet: four Llama3-70B instances behind
 *    session-affinity routing, multi-turn sessions, per-instance lru
 *    prefix caches, random and correlated crashes, draining
 *    stragglers and retries.
 *  - paper-sweep: the Fig. 11 throughput sweep (135 closed-loop
 *    configurations) through SweepRunner on every hardware thread.
 *
 * See perfbench/README.md for why each workload exists.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fleet/fleet.hh"
#include "sim/experiment.hh"

namespace perfbench
{

/** Tiny: the benchmark's own smoke tests. Full: the benchmark. */
enum class Size
{
    Tiny,
    Full
};

/** Simulated counters the per-layer report reads. */
struct SimCounters
{
    std::int64_t retries = 0;
    std::int64_t migrated = 0;
    std::int64_t crashes = 0;
    duplex::PrefixCacheMetrics cache;

    /** Prompt tokens of the retired requests. */
    std::int64_t promptTokens = 0;
};

/** What one repetition produced. */
struct Outcome
{
    /** Canonical text of the simulated statistics (digest.hh). */
    std::string digest;

    /** Output checks that failed, one line each; empty = correct. */
    std::vector<std::string> violations;

    std::int64_t requests = 0; //!< simulated requests retired
    std::int64_t stages = 0;   //!< simulated stages executed
    double hostSec = 0.0;      //!< host time of the campaign

    SimCounters counters;
};

/** One named workload at a fixed seed and size. */
class BenchWorkload
{
  public:
    virtual ~BenchWorkload() = default;

    /**
     * The one-time set-up a run pays before its first stage: build
     * every system the workload uses (the first build runs the
     * process-wide DRAM calibration) and its workload source.
     */
    virtual void setup() = 0;

    /**
     * One repetition. Untraced runs go through the public drivers
     * with the stock registry ids; traced runs swap in the traced
     * ids (wrappers.hh) and add their own spans to the Tracer.
     */
    virtual Outcome run(bool traced) = 0;

    /** Worker threads the workload runs on. */
    virtual int workers() const { return 1; }
};

/** Names of every workload, in the order BENCHMARK.json lists them. */
const std::vector<std::string> &benchWorkloadNames();

/** Build a workload; nullptr for an unknown name. */
std::unique_ptr<BenchWorkload>
makeBenchWorkload(const std::string &name, std::uint64_t seed,
                  Size size);

// ---- the configurations, shared with the benchmark's tests --------

duplex::SimConfig moeLongrunConfig(std::uint64_t seed, Size size);
duplex::FleetConfig sessionFleetConfig(std::uint64_t seed, Size size);
std::vector<duplex::SimConfig> paperSweepConfigs(std::uint64_t seed,
                                                 Size size);

// ---- digests, shared with the benchmark's tests -------------------

/** Digest record of one engine run (stages/retired observed). */
std::string engineDigest(const std::string &label,
                         const duplex::SimResult &r,
                         std::int64_t stages, std::int64_t retired);

/** Digest record of one fleet run. */
std::string fleetDigest(const duplex::FleetResult &r,
                        std::int64_t stages);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
