#include "workload/registry.hh"

#include "common/log.hh"

namespace duplex
{

namespace
{

/** Factory for a single-class scenario preset: the synthetic
 *  generator with the preset's length profile; arrival discipline
 *  (qps), seed and minLen still come from the caller's spec. */
WorkloadFactory
scenarioFactory(std::string id, std::int64_t mean_in,
                std::int64_t mean_out, double cv,
                std::string summary)
{
    return [id = std::move(id), mean_in, mean_out, cv,
            summary =
                std::move(summary)](const WorkloadSpec &spec) {
        WorkloadConfig cfg = spec;
        cfg.meanInputLen = mean_in;
        cfg.meanOutputLen = mean_out;
        cfg.lengthCv = cv;
        return std::make_unique<SyntheticSource>(id, cfg, summary);
    };
}

// The scenario length profiles. Chat turns are prompt- and
// answer-sized; summarization is prefill-dominated (a document in,
// a short abstract out); code generation is decode-dominated (a
// short instruction in, a long completion out). "mixed" serves all
// three from one fleet, the ROADMAP's million-user shape.
constexpr std::int64_t kChatIn = 512, kChatOut = 256;
constexpr std::int64_t kSummarizeIn = 8192, kSummarizeOut = 256;
constexpr std::int64_t kCodegenIn = 512, kCodegenOut = 4096;

void
registerStockWorkloads(WorkloadRegistry &registry)
{
    registry.add(
        "synthetic", "Synthetic",
        "Section VI truncated-Gaussian stream (the paper's "
        "default; closed loop, or Poisson at spec.qps)",
        [](const WorkloadSpec &spec) {
            // Slice to the WorkloadConfig base: bit-identical to
            // the old RequestGenerator stream by construction.
            return std::make_unique<SyntheticSource>("synthetic",
                                                     spec);
        });
    registry.add(
        "trace", "Trace",
        "replay a recorded arrival,in,out CSV (spec.tracePath)",
        [](const WorkloadSpec &spec) {
            fatalIf(spec.tracePath.empty(),
                    "workload 'trace' needs spec.tracePath (CLI: "
                    "--trace=<path>)");
            return std::make_unique<TraceSource>(spec.tracePath);
        });
    registry.add(
        "bursty", "Bursty",
        "on/off modulated Poisson: burst QPS over an idle floor, "
        "exponential state durations",
        [](const WorkloadSpec &spec) {
            return std::make_unique<BurstySource>(spec);
        });
    registry.add(
        "diurnal", "Diurnal",
        "piecewise-linear periodic QPS ramp (low -> peak -> low)",
        [](const WorkloadSpec &spec) {
            return std::make_unique<DiurnalSource>(spec);
        });
    registry.add("chat", "Chat",
                 "conversational turns: Lin ~ 512, Lout ~ 256",
                 scenarioFactory("chat", kChatIn, kChatOut, 0.35,
                                 "conversational turns"));
    registry.add(
        "long-prefill-summarize", "Summarize",
        "prefill-heavy summarization: Lin ~ 8192, Lout ~ 256",
        scenarioFactory("long-prefill-summarize", kSummarizeIn,
                        kSummarizeOut, 0.25,
                        "document-in, abstract-out"));
    registry.add(
        "long-decode-codegen", "Codegen",
        "decode-heavy code generation: Lin ~ 512, Lout ~ 4096",
        scenarioFactory("long-decode-codegen", kCodegenIn,
                        kCodegenOut, 0.35,
                        "short instruction, long completion"));
    registry.add(
        "session", "Session",
        "multi-turn chat: open-loop fresh sessions, closed-loop "
        "turns gated on retirement + think time, growing prompts "
        "over a shared prefix",
        [](const WorkloadSpec &spec) {
            return std::make_unique<SessionSource>(spec);
        });
    registry.add(
        "mixed", "Mixed",
        "weighted mix: 50% chat, 25% summarize, 25% codegen",
        [](const WorkloadSpec &spec) {
            return std::make_unique<MixtureSource>(
                "mixed", spec,
                std::vector<ScenarioClass>{
                    {"chat", 0.50, kChatIn, kChatOut, 0.35},
                    {"summarize", 0.25, kSummarizeIn,
                     kSummarizeOut, 0.25},
                    {"codegen", 0.25, kCodegenIn, kCodegenOut,
                     0.35}});
        });
}

} // namespace

template <>
WorkloadRegistry &
WorkloadRegistry::instance()
{
    static WorkloadRegistry *registry = [] {
        auto *r = new WorkloadRegistry("WorkloadRegistry", "workload");
        registerStockWorkloads(*r);
        return r;
    }();
    return *registry;
}

std::unique_ptr<WorkloadSource>
makeWorkload(const std::string &id, const WorkloadSpec &spec)
{
    std::unique_ptr<WorkloadSource> source =
        WorkloadRegistry::instance().make(id, spec);
    source->setSessionCount(spec.numSessions);
    source->setPriorityFraction(spec.priorityFrac);
    return source;
}

std::vector<std::string>
registeredWorkloads()
{
    return WorkloadRegistry::instance().ids();
}

void
registerWorkloadSource(const std::string &id,
                       const std::string &display,
                       const std::string &summary,
                       WorkloadFactory factory)
{
    WorkloadRegistry::instance().add(id, display, summary,
                                     std::move(factory));
}

} // namespace duplex
