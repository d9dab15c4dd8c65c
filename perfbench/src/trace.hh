/**
 * @file
 * In-memory spans for the benchmark's traced run.
 *
 * Every span is recorded from outside the simulator library: the
 * traced wrappers (wrappers.hh) time each call into a layer's public
 * function, and the workloads (workloads.hh) time the driver calls
 * they make themselves. Spans stay in memory while a repetition runs;
 * the per-layer numbers are computed from them afterwards (layers.hh)
 * and the last repetition's spans are written out once, at exit, as a
 * Chrome trace-event file that opens offline in Perfetto.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

/** Host time in nanoseconds on the steady clock. */
std::int64_t nowNs();

/** The layer boundary a span was recorded at. */
enum class SpanKind
{
    Run,      //!< one whole campaign (engine loop or fleet run)
    Config,   //!< one sweep configuration (engine onSimBegin..End)
    Step,     //!< DriverLoop::step
    Exec,     //!< ServingSystem::executeStage
    Next,     //!< WorkloadSource::next
    Feedback, //!< WorkloadSource::notifyRetired / restore
    Route,    //!< RoutingPolicy::route
    Victim,   //!< EvictionPolicy::victim
};

/** Display name of a span kind ("exec", "route", ...). */
const char *spanName(SpanKind kind);

/** One timed call. */
struct Span
{
    SpanKind kind = SpanKind::Run;

    /** Trace lane: one per traced component instance or thread. */
    int lane = 0;

    /**
     * What the span is about: the request id for next/route spans,
     * the stage index for step spans (-1 for an idle step that
     * executed no stage), the evicted key for victim spans.
     */
    std::int64_t key = 0;

    std::int64_t start = 0; //!< nowNs() at entry
    std::int64_t end = 0;   //!< nowNs() at exit

    std::int64_t ns() const { return end - start; }
};

/** One executeStage call as a traced system saw it. */
struct StageRecord
{
    std::int64_t start = 0;
    std::int64_t end = 0;
    std::int64_t decodeTokens = 0;
    std::int64_t prefillTokens = 0;
};

/**
 * Every executeStage call of one traced system instance, plus the
 * gate shape the expert-draw replay needs (layers.hh).
 */
struct ExecLog
{
    int lane = 0;
    int experts = 0;
    int topK = 0;
    int moeLayers = 0;
    std::vector<StageRecord> stages;
};

/**
 * The process-wide span sink. Traced components buffer their spans
 * locally and hand them over when they are destroyed, possibly from
 * sweep worker threads, so every add is serialized by one mutex.
 * Readers run after the repetition, on one thread.
 */
class Tracer
{
  public:
    static Tracer &instance();

    /** Drop every span (start of a traced repetition). */
    void clear();

    /** A fresh lane id for a new traced component or thread. */
    int newLane() { return nextLane_.fetch_add(1); }

    void add(const Span &span);
    void addSpans(std::vector<Span> spans);
    void addExecLog(ExecLog log);

    const std::vector<Span> &spans() const { return spans_; }
    const std::vector<ExecLog> &execLogs() const { return execLogs_; }

    /**
     * Write every span as Chrome trace-event JSON ("X" events, one
     * tid per lane, microseconds from the first span). Returns false
     * when the file cannot be written.
     */
    bool writeChromeTrace(const std::string &path) const;

  private:
    std::mutex mutex_; //!< guards spans_ and execLogs_
    std::vector<Span> spans_;
    std::vector<ExecLog> execLogs_;
    std::atomic<int> nextLane_{0};
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
