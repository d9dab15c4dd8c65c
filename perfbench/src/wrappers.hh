/**
 * @file
 * Traced twins of the simulator's pluggable components.
 *
 * The traced run needs per-layer time without touching the library,
 * so it registers a wrapper for every registered serving system,
 * workload source, routing policy and eviction policy under its own
 * registry id (tracedId("duplex-pe") == "traced:duplex-pe"). A
 * wrapper builds the original component through its registry,
 * forwards every call to it unchanged, and times the calls into the
 * layer's hot function: executeStage, next, route, victim. A
 * workload then runs traced by swapping ids in its config; the
 * simulated outcome stays bit-identical (pinned by the benchmark's
 * tests), so the digest of a traced run must equal the untraced one.
 */

#ifndef PERFBENCH_WRAPPERS_HH
#define PERFBENCH_WRAPPERS_HH

#include <string>

namespace perfbench
{

/** Registry id of the traced twin of @p id. */
std::string tracedId(const std::string &id);

/**
 * Register a traced twin of every component registered so far in
 * the system, workload, routing and eviction registries. Idempotent.
 * Call before any worker thread reads the registries.
 */
void registerTracedComponents();

} // namespace perfbench

#endif // PERFBENCH_WRAPPERS_HH
