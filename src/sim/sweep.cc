#include "sim/sweep.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

#include "sim/engine.hh"
#include "workload/experts.hh"

namespace duplex
{

SweepRunner::SweepRunner(int num_workers)
    : workers_(num_workers)
{
    if (workers_ <= 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        workers_ = hw > 0 ? static_cast<int>(hw) : 1;
    }
}

namespace
{

ObservedRun
runOne(const SimConfig &config, const ObserverFactory &factory)
{
    ObservedRun run;
    if (factory)
        run.observers = factory(config);
    SimulationEngine engine(config);
    for (const std::unique_ptr<SimObserver> &o : run.observers)
        engine.addObserver(o.get());
    run.result = engine.run();
    return run;
}

} // namespace

std::vector<SimResult>
SweepRunner::run(const std::vector<SimConfig> &configs) const
{
    std::vector<ObservedRun> runs = runObserved(configs, {});
    std::vector<SimResult> results;
    results.reserve(runs.size());
    for (ObservedRun &r : runs)
        results.push_back(std::move(r.result));
    return results;
}

std::vector<ObservedRun>
SweepRunner::runObserved(const std::vector<SimConfig> &configs,
                         const ObserverFactory &factory) const
{
    std::vector<ObservedRun> results(configs.size());
    std::vector<std::function<void()>> tasks;
    tasks.reserve(configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i)
        tasks.push_back([&results, &configs, &factory, i] {
            results[i] = runOne(configs[i], factory);
        });
    runTasks(tasks);
    return results;
}

void
SweepRunner::runTasks(
    const std::vector<std::function<void()>> &tasks) const
{
    if (tasks.empty())
        return;

    const int pool =
        std::min(workers_, static_cast<int>(tasks.size()));
    if (pool <= 1) {
        for (const std::function<void()> &task : tasks)
            task();
        return;
    }

    // Registry lookups are concurrent reads; every task owns its
    // engines and observers, so workers only share the work queue
    // (tasks must be thread-safe, see sweep.hh).
    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    std::exception_ptr error;
    std::mutex error_mutex;

    auto worker = [&] {
        // The sweep's parallelism is whole runs: a worker's expert
        // draws leave the helper threads to non-sweep callers.
        ExpertSelector::drawAloneOnThisThread();
        for (;;) {
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= tasks.size() ||
                failed.load(std::memory_order_relaxed))
                return;
            try {
                tasks[i]();
            } catch (...) {
                const std::lock_guard<std::mutex> lock(error_mutex);
                if (!error)
                    error = std::current_exception();
                failed.store(true, std::memory_order_relaxed);
                return;
            }
        }
    };

    std::vector<std::thread> threads;
    threads.reserve(pool);
    for (int t = 0; t < pool; ++t)
        threads.emplace_back(worker);
    for (std::thread &t : threads)
        t.join();
    if (error)
        std::rethrow_exception(error);
}

} // namespace duplex
