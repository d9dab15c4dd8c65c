/**
 * @file
 * The workload axis: WorkloadRegistry, an alias of Registry
 * (common/registry.hh).
 *
 * Workloads register an id ("bursty"), a display name, a one-line
 * summary and a factory over WorkloadSpec; callers build sources
 * with makeWorkload(id, spec) and enumerate everything registered
 * with registeredWorkloads(). Pre-registered: "synthetic" (the
 * paper's Section VI stream, bit-identical to the old
 * RequestGenerator), "trace", "bursty", "diurnal", and the named
 * scenario presets "chat", "long-prefill-summarize",
 * "long-decode-codegen", "mixed". A new workload is one
 * registerWorkloadSource call — no enum edits, no new entry points,
 * and every registered id is swept automatically by the tests and
 * bench_scenarios.
 */

#ifndef DUPLEX_WORKLOAD_REGISTRY_HH
#define DUPLEX_WORKLOAD_REGISTRY_HH

#include <memory>
#include <string>
#include <vector>

#include "common/registry.hh"
#include "workload/source.hh"

namespace duplex
{

/** Registry of every workload the simulator can build. */
using WorkloadRegistry = Registry<WorkloadSource, const WorkloadSpec &>;

/** Builds one workload source from a spec. */
using WorkloadFactory = WorkloadRegistry::Factory;

/** The process-wide registry, with the stock workloads loaded. */
template <>
WorkloadRegistry &WorkloadRegistry::instance();

/**
 * Build a registered workload and stamp the spec's session count
 * and priority fraction on it — cross-cutting knobs every source
 * honors, so a factory never has to know sessions or priority
 * classes exist. Fatal on an unknown id.
 */
std::unique_ptr<WorkloadSource>
makeWorkload(const std::string &id, const WorkloadSpec &spec = {});

/** Ids of every registered workload. */
std::vector<std::string> registeredWorkloads();

/** Register a workload with the process-wide registry. */
void registerWorkloadSource(const std::string &id,
                            const std::string &display,
                            const std::string &summary,
                            WorkloadFactory factory);

} // namespace duplex

#endif // DUPLEX_WORKLOAD_REGISTRY_HH
