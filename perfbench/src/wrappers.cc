#include "wrappers.hh"

#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "fleet/policy.hh"
#include "kvcache/prefix_cache.hh"
#include "sim/registry.hh"
#include "trace.hh"
#include "workload/registry.hh"

using namespace duplex;

namespace perfbench
{

namespace
{

const std::string kPrefix = "traced:";

bool
isTraced(const std::string &id)
{
    return id.compare(0, kPrefix.size(), kPrefix) == 0;
}

/** Times executeStage; everything else forwards. */
class TracedSystem final : public ServingSystem
{
  public:
    TracedSystem(std::unique_ptr<ServingSystem> inner,
                 const ModelConfig &model)
        : inner_(std::move(inner))
    {
        log_.lane = Tracer::instance().newLane();
        log_.experts = model.numExperts;
        log_.topK = model.topK;
        log_.moeLayers = model.numMoeLayers();
    }

    ~TracedSystem() override
    {
        Tracer::instance().addExecLog(std::move(log_));
    }

    TracedSystem(const TracedSystem &) = delete;
    TracedSystem &operator=(const TracedSystem &) = delete;

    StageResult executeStage(const StageShape &stage) override
    {
        const std::int64_t start = nowNs();
        StageResult result = inner_->executeStage(stage);
        const std::int64_t end = nowNs();
        log_.stages.push_back({start, end, stage.decodeTokens(),
                               stage.prefillTokens()});
        return result;
    }

    KvBudget kvBudget() const override { return inner_->kvBudget(); }

    std::int64_t maxKvTokens() const override
    {
        return inner_->maxKvTokens();
    }

    const std::string &name() const override { return inner_->name(); }

    std::string describe() const override
    {
        return inner_->describe();
    }

    bool needsExactStageView() const override
    {
        return inner_->needsExactStageView();
    }

    std::optional<SimResult>
    runCustomLoop(const SimConfig &config,
                  SimObserver &observer) override
    {
        return inner_->runCustomLoop(config, observer);
    }

  private:
    std::unique_ptr<ServingSystem> inner_;
    ExecLog log_;
};

/**
 * Times next(); forwards the retirement-feedback contract so
 * session workloads behave exactly as unwrapped. The wrapper's own
 * lookahead buffer draws through inner_->next(), and hands buffered
 * requests back through inner_->restore(), so the inner stream sees
 * the same sequence of calls it would see from the driver directly.
 */
class TracedSource final : public WorkloadSource
{
  public:
    explicit TracedSource(std::unique_ptr<WorkloadSource> inner)
        : inner_(std::move(inner)),
          lane_(Tracer::instance().newLane())
    {
    }

    ~TracedSource() override
    {
        Tracer::instance().addSpans(std::move(spans_));
    }

    TracedSource(const TracedSource &) = delete;
    TracedSource &operator=(const TracedSource &) = delete;

    bool openLoop() const override { return inner_->openLoop(); }
    const std::string &name() const override { return inner_->name(); }

    std::string describe() const override
    {
        return inner_->describe();
    }

    bool wantsRetirements() const override
    {
        return inner_->wantsRetirements();
    }

  protected:
    Request generate() override
    {
        const std::int64_t start = nowNs();
        Request r = inner_->next();
        spans_.push_back({SpanKind::Next, lane_, r.id, start, nowNs()});
        return r;
    }

    std::int64_t generatorRemaining() const override
    {
        return inner_->remaining();
    }

    void onRetired(const Request &r, PicoSec now) override
    {
        const std::int64_t start = nowNs();
        inner_->notifyRetired(r, now);
        spans_.push_back(
            {SpanKind::Feedback, lane_, r.id, start, nowNs()});
    }

    void reabsorb(Request r) override
    {
        const std::int64_t id = r.id;
        const std::int64_t start = nowNs();
        inner_->restore(std::move(r));
        spans_.push_back({SpanKind::Feedback, lane_, id, start, nowNs()});
    }

  private:
    std::unique_ptr<WorkloadSource> inner_;
    int lane_;
    std::vector<Span> spans_;
};

/** Times route(). */
class TracedRouting final : public RoutingPolicy
{
  public:
    explicit TracedRouting(std::unique_ptr<RoutingPolicy> inner)
        : inner_(std::move(inner)),
          lane_(Tracer::instance().newLane())
    {
    }

    ~TracedRouting() override
    {
        Tracer::instance().addSpans(std::move(spans_));
    }

    TracedRouting(const TracedRouting &) = delete;
    TracedRouting &operator=(const TracedRouting &) = delete;

    int route(const Request &request,
              const std::vector<InstanceStatus> &instances) override
    {
        const std::int64_t start = nowNs();
        const int target = inner_->route(request, instances);
        spans_.push_back(
            {SpanKind::Route, lane_, request.id, start, nowNs()});
        return target;
    }

    const std::string &name() const override { return inner_->name(); }

    std::string describe() const override
    {
        return inner_->describe();
    }

  private:
    std::unique_ptr<RoutingPolicy> inner_;
    int lane_;
    std::vector<Span> spans_;
};

/** Times victim(). */
class TracedEviction final : public EvictionPolicy
{
  public:
    explicit TracedEviction(std::unique_ptr<EvictionPolicy> inner)
        : inner_(std::move(inner)),
          lane_(Tracer::instance().newLane())
    {
    }

    ~TracedEviction() override
    {
        Tracer::instance().addSpans(std::move(spans_));
    }

    TracedEviction(const TracedEviction &) = delete;
    TracedEviction &operator=(const TracedEviction &) = delete;

    std::int64_t
    victim(const std::vector<EvictionCandidate> &candidates) override
    {
        const std::int64_t start = nowNs();
        const std::int64_t key = inner_->victim(candidates);
        spans_.push_back({SpanKind::Victim, lane_, key, start, nowNs()});
        return key;
    }

    const std::string &name() const override { return inner_->name(); }

    std::string describe() const override
    {
        return inner_->describe();
    }

  private:
    std::unique_ptr<EvictionPolicy> inner_;
    int lane_;
    std::vector<Span> spans_;
};

} // namespace

std::string
tracedId(const std::string &id)
{
    return kPrefix + id;
}

void
registerTracedComponents()
{
    static std::once_flag once;
    std::call_once(once, [] {
        for (const std::string &id : registeredSystems()) {
            if (isTraced(id))
                continue;
            registerServingSystem(
                tracedId(id), SystemRegistry::instance().displayName(id),
                "executeStage-timed " + id,
                [id](const ModelConfig &model,
                     const SystemOptions &opts) {
                    return std::make_unique<TracedSystem>(
                        makeSystem(id, model, opts), model);
                });
        }
        for (const std::string &id : registeredWorkloads()) {
            if (isTraced(id))
                continue;
            registerWorkloadSource(
                tracedId(id),
                WorkloadRegistry::instance().displayName(id),
                "next-timed " + id, [id](const WorkloadSpec &spec) {
                    return std::make_unique<TracedSource>(
                        makeWorkload(id, spec));
                });
        }
        for (const std::string &id : registeredRoutingPolicies()) {
            if (isTraced(id))
                continue;
            registerRoutingPolicy(tracedId(id), "route-timed " + id,
                                  [id] {
                                      return std::make_unique<
                                          TracedRouting>(
                                          makeRoutingPolicy(id));
                                  });
        }
        for (const std::string &id : registeredEvictionPolicies()) {
            if (isTraced(id))
                continue;
            registerEvictionPolicy(tracedId(id), "victim-timed " + id,
                                   [id] {
                                       return std::make_unique<
                                           TracedEviction>(
                                           makeEvictionPolicy(id));
                                   });
        }
    });
}

} // namespace perfbench
