/**
 * @file
 * Per-layer metrics of one traced repetition, named by src/ module.
 *
 * Everything is computed after the repetition from the Tracer's spans
 * and exec logs plus the repetition's simulated counters. Expert-draw
 * time is measured by replaying ExpertSelector::sampleInto on every
 * traced stage's token count, once per MoE layer, with a private Rng:
 * the draws the simulator made inside executeStage, timed on their
 * own. A layer's self time is its span minus the child spans inside
 * it. Layers a workload does not exercise report 0.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <string>
#include <vector>

#include "trace.hh"
#include "workloads.hh"

namespace perfbench
{

/** One per-layer metric. */
struct LayerMetric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/**
 * The per-layer metrics of the traced repetition recorded in
 * @p tracer, in BENCHMARK.json order, without trace.overhead_frac
 * (which compares against untraced repetitions; the caller adds it).
 * @p workers is the worker-thread count of a sweep workload.
 */
std::vector<LayerMetric> layerMetrics(const Tracer &tracer,
                                      const Outcome &outcome,
                                      int workers);

/** Median of @p v (mean of the middle two when even); 0 if empty. */
double median(std::vector<double> v);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
