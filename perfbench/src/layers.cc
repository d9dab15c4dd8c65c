#include "layers.hh"

#include <algorithm>
#include <cstdint>

#include "common/rng.hh"
#include "workload/experts.hh"

using namespace duplex;

namespace perfbench
{

namespace
{

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/**
 * A repetition with more token-layers than this replays every k-th
 * stage of each exec log (k fixed per repetition) and scales each
 * log's replay time up to all of its token-layers, so a traced sweep
 * repetition does not spend several host seconds re-drawing.
 */
constexpr std::int64_t kReplayTokenLayers = 64'000'000;

/** Replayed expert-draw time and token-layers of every exec log. */
struct DrawReplay
{
    double ns = 0.0;
    std::int64_t tokenLayers = 0;
};

std::int64_t
tokenLayers(const ExecLog &log, const StageRecord &stage)
{
    return (stage.decodeTokens + stage.prefillTokens) * log.moeLayers;
}

DrawReplay
replayDraws(const std::vector<ExecLog> &logs)
{
    std::int64_t total = 0;
    for (const ExecLog &log : logs)
        for (const StageRecord &stage : log.stages)
            total += tokenLayers(log, stage);
    const std::int64_t stride = std::max<std::int64_t>(
        1, (total + kReplayTokenLayers - 1) / kReplayTokenLayers);

    DrawReplay replay;
    std::vector<std::int64_t> hist;
    std::int64_t sink = 0;
    for (const ExecLog &log : logs) {
        if (log.moeLayers <= 0 || log.experts <= 0)
            continue;
        const ExpertSelector selector(log.experts, log.topK);
        Rng rng(0x5eedULL + static_cast<std::uint64_t>(log.lane));
        std::int64_t all = 0, replayed = 0, ns = 0;
        for (std::size_t i = 0; i < log.stages.size(); ++i) {
            const StageRecord &stage = log.stages[i];
            all += tokenLayers(log, stage);
            if (static_cast<std::int64_t>(i) % stride != 0)
                continue;
            const std::int64_t tokens =
                stage.decodeTokens + stage.prefillTokens;
            const std::int64_t start = nowNs();
            for (int layer = 0; layer < log.moeLayers; ++layer) {
                selector.sampleInto(rng, tokens, hist);
                sink += hist[0];
            }
            ns += nowNs() - start;
            replayed += tokenLayers(log, stage);
        }
        replay.tokenLayers += all;
        if (replayed > 0)
            replay.ns += static_cast<double>(ns) *
                         static_cast<double>(all) /
                         static_cast<double>(replayed);
    }
    // Keeps the replayed histograms observable.
    if (sink < 0)
        replay.ns = -replay.ns;
    return replay;
}

/**
 * Total duration of the @p children that lie inside one of the
 * @p parents (parents disjoint, as the steps of one loop are).
 */
std::int64_t
nestedNs(std::vector<Span> parents, const std::vector<Span> &children)
{
    std::sort(parents.begin(), parents.end(),
              [](const Span &a, const Span &b) {
                  return a.start < b.start;
              });
    std::int64_t total = 0;
    for (const Span &child : children) {
        auto it = std::upper_bound(
            parents.begin(), parents.end(), child.start,
            [](std::int64_t t, const Span &p) { return t < p.start; });
        if (it == parents.begin())
            continue;
        --it;
        if (child.end <= it->end)
            total += child.ns();
    }
    return total;
}

} // namespace

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::vector<LayerMetric>
layerMetrics(const Tracer &tracer, const Outcome &outcome, int workers)
{
    // ---- spans by kind -------------------------------------------
    std::int64_t run_ns = 0;
    std::vector<double> config_s;
    double config_total_s = 0.0;
    std::vector<Span> steps;
    std::vector<Span> children; // exec, next, feedback, victim
    std::int64_t idle_steps = 0;
    std::int64_t next_calls = 0, next_ns = 0, feedback_ns = 0;
    std::int64_t route_calls = 0, route_ns = 0;
    std::int64_t victim_calls = 0, victim_ns = 0;
    for (const Span &s : tracer.spans()) {
        switch (s.kind) {
          case SpanKind::Run:
            run_ns += s.ns();
            break;
          case SpanKind::Config:
            config_s.push_back(static_cast<double>(s.ns()) * 1e-9);
            config_total_s += config_s.back();
            break;
          case SpanKind::Step:
            steps.push_back(s);
            idle_steps += s.key < 0 ? 1 : 0;
            break;
          case SpanKind::Exec:
            break;
          case SpanKind::Next:
            ++next_calls;
            next_ns += s.ns();
            children.push_back(s);
            break;
          case SpanKind::Feedback:
            feedback_ns += s.ns();
            children.push_back(s);
            break;
          case SpanKind::Route:
            ++route_calls;
            route_ns += s.ns();
            break;
          case SpanKind::Victim:
            ++victim_calls;
            victim_ns += s.ns();
            children.push_back(s);
            break;
        }
    }

    // ---- executeStage calls --------------------------------------
    std::int64_t exec_calls = 0, exec_ns = 0;
    std::int64_t decode_calls = 0, decode_ns = 0;
    std::int64_t decode_tokens = 0, prefill_tokens = 0;
    for (const ExecLog &log : tracer.execLogs())
        for (const StageRecord &r : log.stages) {
            ++exec_calls;
            exec_ns += r.end - r.start;
            decode_tokens += r.decodeTokens;
            prefill_tokens += r.prefillTokens;
            if (r.prefillTokens == 0) {
                ++decode_calls;
                decode_ns += r.end - r.start;
            }
            children.push_back({SpanKind::Exec, log.lane, 0, r.start,
                                r.end});
        }
    const std::int64_t mixed_calls = exec_calls - decode_calls;
    const std::int64_t mixed_ns = exec_ns - decode_ns;
    const DrawReplay draws = replayDraws(tracer.execLogs());

    // The campaign's busy host time: the worker-summed config spans
    // of a sweep, the run span otherwise.
    const double busy_ns =
        config_s.empty() ? static_cast<double>(run_ns)
                         : config_total_s * 1e9;
    const double calls = static_cast<double>(exec_calls);

    double step_ns = 0.0;
    for (const Span &s : steps)
        step_ns += static_cast<double>(s.ns());
    const double step_self_ns =
        step_ns - static_cast<double>(nestedNs(steps, children));

    // FleetDriver::run minus every timed child: only fleets route.
    const double fleet_self_share =
        route_calls > 0
            ? ratio(static_cast<double>(run_ns - exec_ns - route_ns -
                                        next_ns - feedback_ns -
                                        victim_ns),
                    static_cast<double>(run_ns))
            : 0.0;

    const SimCounters &c = outcome.counters;
    const double sweep_wall_s = static_cast<double>(run_ns) * 1e-9;
    return {
        {"moe.draw_tokens", static_cast<double>(draws.tokenLayers),
         "count"},
        {"moe.draw_ns_per_token_layer",
         ratio(static_cast<double>(draws.ns),
               static_cast<double>(draws.tokenLayers)),
         "ns"},
        {"moe.draw_share",
         ratio(static_cast<double>(draws.ns),
               static_cast<double>(exec_ns)),
         "ratio"},
        {"cluster.exec_calls", calls, "count"},
        {"cluster.exec_ns_per_stage",
         ratio(static_cast<double>(exec_ns), calls), "ns"},
        {"cluster.exec_ns_per_stage.decode",
         ratio(static_cast<double>(decode_ns),
               static_cast<double>(decode_calls)),
         "ns"},
        {"cluster.exec_ns_per_stage.mixed",
         ratio(static_cast<double>(mixed_ns),
               static_cast<double>(mixed_calls)),
         "ns"},
        {"cluster.price_ns_per_stage",
         ratio(static_cast<double>(exec_ns - draws.ns), calls), "ns"},
        {"cluster.exec_share", ratio(static_cast<double>(exec_ns), busy_ns),
         "ratio"},
        {"sched.step_calls", static_cast<double>(steps.size()), "count"},
        {"sched.idle_steps", static_cast<double>(idle_steps), "count"},
        {"sched.step_self_ns",
         ratio(step_self_ns, static_cast<double>(steps.size())), "ns"},
        {"sched.decode_tokens_per_stage",
         ratio(static_cast<double>(decode_tokens), calls), "tokens"},
        {"sched.prefill_tokens_per_stage",
         ratio(static_cast<double>(prefill_tokens), calls), "tokens"},
        {"sched.mixed_stage_frac",
         ratio(static_cast<double>(mixed_calls), calls), "ratio"},
        {"workload.next_calls", static_cast<double>(next_calls),
         "count"},
        {"workload.next_ns",
         ratio(static_cast<double>(next_ns),
               static_cast<double>(next_calls)),
         "ns"},
        {"fleet.route_calls", static_cast<double>(route_calls), "count"},
        {"fleet.route_ns",
         ratio(static_cast<double>(route_ns),
               static_cast<double>(route_calls)),
         "ns"},
        {"fleet.self_share", fleet_self_share, "ratio"},
        {"fleet.retries", static_cast<double>(c.retries), "count"},
        {"fleet.migrated", static_cast<double>(c.migrated), "count"},
        {"fleet.crashes", static_cast<double>(c.crashes), "count"},
        {"kvcache.hit_rate", c.cache.hitRate(), "ratio"},
        {"kvcache.hit_token_frac",
         ratio(static_cast<double>(c.cache.hitTokens),
               static_cast<double>(c.promptTokens)),
         "ratio"},
        {"kvcache.evictions", static_cast<double>(c.cache.evictions),
         "count"},
        {"kvcache.victim_calls", static_cast<double>(victim_calls),
         "count"},
        {"kvcache.victim_ns",
         ratio(static_cast<double>(victim_ns),
               static_cast<double>(victim_calls)),
         "ns"},
        {"sweep.worker_busy_frac",
         config_s.empty()
             ? 0.0
             : ratio(config_total_s, workers * sweep_wall_s),
         "ratio"},
        {"sweep.config_s_p50", median(config_s), "s"},
        {"sweep.config_s_max",
         config_s.empty()
             ? 0.0
             : *std::max_element(config_s.begin(), config_s.end()),
         "s"},
    };
}

} // namespace perfbench
