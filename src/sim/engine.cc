#include "sim/engine.hh"

#include "common/log.hh"
#include "sim/driver.hh"
#include "sim/registry.hh"
#include "workload/registry.hh"

namespace duplex
{

namespace
{

/** Fans one callback stream out to the attached observers. */
class ObserverMux : public SimObserver
{
  public:
    explicit ObserverMux(const std::vector<SimObserver *> &obs)
        : observers_(obs)
    {
    }

    void onSimBegin(const ServingSystem &system,
                    const SimConfig &config) override
    {
        for (SimObserver *o : observers_)
            o->onSimBegin(system, config);
    }

    void onStage(const StageObservation &obs) override
    {
        for (SimObserver *o : observers_)
            o->onStage(obs);
    }

    void onRequestRetired(const Request &request,
                          PicoSec now) override
    {
        for (SimObserver *o : observers_)
            o->onRequestRetired(request, now);
    }

    void onSimEnd(const SimResult &result) override
    {
        for (SimObserver *o : observers_)
            o->onSimEnd(result);
    }

  private:
    const std::vector<SimObserver *> &observers_;
};

} // namespace

SimulationEngine::SimulationEngine(SimConfig config)
    : config_(std::move(config))
{
}

void
SimulationEngine::addObserver(SimObserver *observer)
{
    panicIf(observer == nullptr, "null SimObserver attached");
    observers_.push_back(observer);
}

SimResult
SimulationEngine::run()
{
    SystemOptions opts;
    opts.seed = config_.seed;
    const std::unique_ptr<ServingSystem> system =
        makeSystem(config_.systemName, config_.model, opts);
    return run(*system);
}

SimResult
SimulationEngine::run(ServingSystem &system)
{
    // One check for both loops: the batcher's and a custom one.
    fatalIf(config_.maxStages < 1,
            "stage cap must be >= 1, got " +
                std::to_string(config_.maxStages));
    ObserverMux mux(observers_);
    mux.onSimBegin(system, config_);

    if (auto custom = system.runCustomLoop(config_, mux)) {
        mux.onSimEnd(*custom);
        return *custom;
    }

    SimResult result = runBatcherLoop(system, mux);
    mux.onSimEnd(result);
    return result;
}

SimResult
SimulationEngine::runBatcherLoop(ServingSystem &system,
                                 SimObserver &observer)
{
    // The same shared arrival stream every driver loop consumes
    // (sched/arrivals.hh): the workload registry builds the source
    // by name, and the closed/open-loop discipline lives in one
    // place. Streaming: only one lookahead request is ever
    // buffered. The loop body itself lives in DriverLoop
    // (sim/driver.hh) so the fleet layer steps the identical code.
    DriverLoop loop(
        config_, system, observer,
        ArrivalQueue(makeWorkload(config_.workloadIdOrDefault(),
                                  config_.workload),
                     config_.numRequests));
    while (!loop.done())
        loop.step();
    return loop.finish();
}

} // namespace duplex
