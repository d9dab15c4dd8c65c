/**
 * @file
 * The polymorphic workload-source interface.
 *
 * PR 1 put every evaluated serving system behind one ServingSystem
 * contract; this is the same move for the other half of an
 * experiment. A WorkloadSource produces the request stream a driver
 * loop consumes — synthetic truncated-Gaussian draws (the paper's
 * Section VI workload), recorded-trace replay, on/off bursty
 * arrivals, diurnal QPS ramps, or named scenario mixes — behind one
 * contract: next() / remaining() / name() / describe(). Sources are created by name through the
 * WorkloadRegistry (workload/registry.hh); new workloads implement
 * this interface and register a factory, nothing else.
 *
 * Sources stream: a million-request run draws requests one at a
 * time instead of materializing the whole vector up front
 * (sched/arrivals.hh buffers exactly one lookahead request).
 */

#ifndef DUPLEX_WORKLOAD_SOURCE_HH
#define DUPLEX_WORKLOAD_SOURCE_HH

#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "workload/generator.hh"

namespace duplex
{

/** One (time, QPS) breakpoint of a piecewise-linear arrival ramp. */
struct QpsPoint
{
    double timeSec = 0.0;
    double qps = 0.0;
};

/**
 * Everything a workload factory may consume. The WorkloadConfig
 * base is the synthetic spec (mean lengths, CV, QPS, seed) — kept
 * verbatim so every existing `config.workload.meanInputLen = ...`
 * call site still compiles and the default "synthetic" source is
 * bit-identical to the old RequestGenerator stream. The extra
 * fields parameterize the non-synthetic sources; each source reads
 * only what it documents and ignores the rest.
 */
struct WorkloadSpec : WorkloadConfig
{
    /** Trace file replayed by the "trace" source. */
    std::string tracePath;

    // --- "bursty": on/off modulated Poisson -----------------------
    double burstQps = 8.0;    //!< arrival rate inside a burst
    double idleQps = 0.25;    //!< rate between bursts (0 = silent)
    double meanBurstSec = 2.0; //!< mean burst duration
    double meanIdleSec = 6.0;  //!< mean idle-gap duration

    // --- "diurnal": piecewise-linear QPS ramp ---------------------
    /**
     * Breakpoints of one period, times in [0, diurnalPeriodSec).
     * Empty builds the default triangle ramp low -> high -> low
     * from the three scalars below.
     */
    std::vector<QpsPoint> qpsRamp;
    double diurnalLowQps = 1.0;
    double diurnalHighQps = 8.0;
    double diurnalPeriodSec = 60.0;

    /**
     * Distinct sessions to stamp onto the stream (request id modulo
     * this count); 0 leaves requests session-less. Consumed by the
     * registry for every source — see
     * WorkloadSource::setSessionCount for the no-RNG guarantee.
     */
    int numSessions = 0;

    /**
     * Fraction of requests stamped priorityClass = 1 (the rest stay
     * class 0) for the "priority" scheduling policy
     * (sched/policy.hh); 0 leaves the stream classless. Consumed by
     * the registry for every source — see
     * WorkloadSource::setPriorityFraction for the no-RNG guarantee.
     */
    double priorityFrac = 0.0;

    // --- "session": multi-turn chat over retirement feedback ------
    /**
     * Fresh-session arrival rate (sessions/s) when the base spec's
     * qps is <= 0; a positive spec.qps wins so `--qps` steers the
     * session workload like every other open-loop source.
     */
    double sessionQps = 2.0;

    /** Turns per session (>= 1); the loop closes between them. */
    int sessionTurns = 4;

    /**
     * Shared system-prompt tokens prepended to every session's
     * first turn — the cross-session prefix a KV prefix cache
     * (src/kvcache/) can serve warm.
     */
    std::int64_t sharedPrefixTokens = 256;

    /**
     * Mean think time (s) between a turn's retirement and the next
     * turn's arrival (exponentially distributed).
     */
    double meanThinkSec = 2.0;
};

/**
 * A request stream the driver loops can consume. Arrivals are
 * non-decreasing; closed-loop sources carry arrival = 0 (requests
 * are admitted whenever a slot frees, see sched/arrivals.hh).
 *
 * Subclasses implement generate() (draw one request) and
 * generatorRemaining(); the base class stamps sessions and
 * priorities on what next() returns. The one-request lookahead a
 * driver loop needs lives in ArrivalQueue (sched/arrivals.hh).
 */
class WorkloadSource
{
  public:
    /** remaining() of a generative (never-exhausted) source. */
    static constexpr std::int64_t kUnbounded =
        std::numeric_limits<std::int64_t>::max();

    virtual ~WorkloadSource() = default;

    /** Next request in arrival order; source must not be exhausted. */
    Request next();

    /** Requests the source can still produce (kUnbounded if endless). */
    std::int64_t remaining() const;

    /** True when the stream carries real arrival timestamps. */
    virtual bool openLoop() const = 0;

    /** Registry id / display handle ("synthetic", "bursty", ...). */
    virtual const std::string &name() const = 0;

    /** One-line description of the modeled request mix. */
    virtual std::string describe() const = 0;

    /**
     * Stamp requests with a session id (`id % count`) as they leave
     * next(); 0 (the default) leaves sessionId = -1. Applied by
     * makeWorkload from WorkloadSpec.numSessions. Pure
     * arithmetic on the request id — no RNG draws — so enabling
     * sessions never perturbs the golden request streams. Requests
     * that already carry a sessionId (trace replay) keep it.
     */
    void setSessionCount(int count) { numSessions_ = count; }

    /**
     * Stamp roughly this fraction of requests with
     * priorityClass = 1 as they leave next(); 0 (the default)
     * leaves every class untouched. Applied by makeWorkload from
     * WorkloadSpec.priorityFrac. Like session stamping, the
     * decision is pure arithmetic on the already-drawn request id
     * (a splitmix64 mix against a fixed-point threshold — no RNG
     * draws), so enabling priorities never perturbs the golden
     * request streams, and the same ids are high-class at every
     * fraction superset. Requests that already carry a non-zero
     * class (trace replay) keep it.
     */
    void setPriorityFraction(double frac);

    // --- Retirement feedback (PR 9) -------------------------------
    // Closed-over-sessions sources (SessionSource) create a
    // request's follow-up turn only when the driver retires the
    // previous one. The channel is strictly opt-in: a source that
    // does not override wantsRetirements() never sees a callback,
    // so every pre-existing source's draw stream — and therefore
    // every golden — is untouched by the plumbing below.

    /** True when the source consumes retirement notifications. */
    virtual bool wantsRetirements() const { return false; }

    /**
     * A driver loop retired @p r at time @p now. No-op unless
     * wantsRetirements(). A driver holding a drawn lookahead hands
     * it back through restore() first, so a retirement-created
     * request that precedes it is re-emitted in arrival order.
     */
    void notifyRetired(const Request &r, PicoSec now);

    /**
     * Hand an already-drawn, unconsumed request back to the source
     * (buffer unwind before a retirement re-orders the stream).
     * Only valid on wantsRetirements() sources.
     */
    void restore(Request r);

  protected:
    /** Draw the next request; called only while remaining() > 0. */
    virtual Request generate() = 0;

    /** Requests left to generate. */
    virtual std::int64_t generatorRemaining() const = 0;

    /** Retirement hook for wantsRetirements() sources; default no-op. */
    virtual void onRetired(const Request &r, PicoSec now);

    /**
     * Take back a request previously returned by generate().
     * Sources that opt into retirements must implement this (the
     * default panics): restored requests re-enter the stream and
     * are re-emitted in arrival order against newly created turns.
     */
    virtual void reabsorb(Request r);

  private:
    int numSessions_ = 0;

    /** Fixed-point (per-10000) priority threshold; 0 = off. */
    std::int64_t priorityThreshold_ = 0;
};

/**
 * The paper's Section VI synthetic workload behind the source
 * interface: a verbatim RequestGenerator wrap, so the draw stream
 * is bit-identical to the pre-registry code (pinned by
 * WorkloadSource.SyntheticMatchesRequestGeneratorExactly) and every
 * engine/split/figure golden holds. Scenario presets reuse this
 * class with overridden mean lengths.
 */
class SyntheticSource : public WorkloadSource
{
  public:
    SyntheticSource(std::string name, const WorkloadConfig &config,
                    std::string summary = "");

    bool openLoop() const override;
    const std::string &name() const override { return name_; }
    std::string describe() const override;

  protected:
    Request generate() override { return gen_.next(); }
    std::int64_t generatorRemaining() const override
    {
        return kUnbounded;
    }

  private:
    std::string name_;
    std::string summary_;
    RequestGenerator gen_;
};

/**
 * Replays a recorded trace (workload/trace.hh CSV): the recorded
 * `arrival,in,out` timestamps drive the engine as-is, so a
 * production trace and a synthetic stream run through the same
 * simulator. Always open loop — the stamps are the workload.
 */
class TraceSource : public WorkloadSource
{
  public:
    /** Load @p path (fatal if unreadable / malformed). */
    explicit TraceSource(const std::string &path);

    /** Replay an in-memory request vector (tests, round-trips). */
    TraceSource(std::string label, std::vector<Request> requests);

    bool openLoop() const override { return true; }
    const std::string &name() const override { return name_; }
    std::string describe() const override;

  protected:
    Request generate() override;
    std::int64_t generatorRemaining() const override
    {
        return static_cast<std::int64_t>(requests_.size()) - next_;
    }

  private:
    std::string name_;
    std::string label_;
    std::vector<Request> requests_;
    std::int64_t next_ = 0;
};

/**
 * On/off modulated Poisson arrivals (a two-state MMPP): bursts at
 * burstQps alternate with idle gaps at idleQps, both with
 * exponentially distributed durations. Request lengths come from
 * the synthetic spec's truncated Gaussians. Models the traffic
 * spikes a latency SLO actually has to survive.
 */
class BurstySource : public WorkloadSource
{
  public:
    explicit BurstySource(const WorkloadSpec &spec);

    bool openLoop() const override { return true; }
    const std::string &name() const override { return name_; }
    std::string describe() const override;

  protected:
    Request generate() override;
    std::int64_t generatorRemaining() const override
    {
        return kUnbounded;
    }

  private:
    std::string name_;
    WorkloadSpec spec_;
    Rng rng_;
    int nextId_ = 0;
    PicoSec clock_ = 0;
    bool inBurst_ = true;
    PicoSec stateEnd_ = 0;
};

/**
 * Non-homogeneous Poisson arrivals whose rate follows a
 * piecewise-linear periodic ramp (default: a low -> high -> low
 * triangle over diurnalPeriodSec), sampled by thinning against the
 * ramp's peak rate. Request lengths come from the synthetic spec.
 */
class DiurnalSource : public WorkloadSource
{
  public:
    explicit DiurnalSource(const WorkloadSpec &spec);

    bool openLoop() const override { return true; }
    const std::string &name() const override { return name_; }
    std::string describe() const override;

    /** Ramp rate at @p t (wrapped into the period); for tests. */
    double qpsAt(PicoSec t) const;

  protected:
    Request generate() override;
    std::int64_t generatorRemaining() const override
    {
        return kUnbounded;
    }

  private:
    std::string name_;
    WorkloadSpec spec_;
    std::vector<QpsPoint> ramp_;
    double peakQps_ = 0.0;
    Rng rng_;
    int nextId_ = 0;
    PicoSec clock_ = 0;
};

/** One component of a request-mix scenario. */
struct ScenarioClass
{
    std::string label;        //!< e.g. "chat"
    double weight = 1.0;      //!< relative draw probability
    std::int64_t meanInputLen = 1024;
    std::int64_t meanOutputLen = 1024;
    double lengthCv = 0.25;
};

/**
 * Draws each request from a weighted mix of length classes (the
 * "mixed" scenario: chat turns, long-prefill summarization and
 * long-decode code generation sharing one serving fleet). Arrivals
 * follow the synthetic spec: closed loop, or Poisson at spec.qps.
 */
class MixtureSource : public WorkloadSource
{
  public:
    MixtureSource(std::string name, const WorkloadConfig &base,
                  std::vector<ScenarioClass> classes);

    bool openLoop() const override;
    const std::string &name() const override { return name_; }
    std::string describe() const override;

    const std::vector<ScenarioClass> &classes() const
    {
        return classes_;
    }

  protected:
    Request generate() override;
    std::int64_t generatorRemaining() const override
    {
        return kUnbounded;
    }

  private:
    std::string name_;
    WorkloadConfig base_;
    std::vector<ScenarioClass> classes_;
    double totalWeight_ = 0.0;
    Rng rng_;
    int nextId_ = 0;
    PicoSec clock_ = 0;
};

/**
 * Multi-turn conversational traffic: fresh sessions open as an
 * open-loop Poisson stream, but each session's turns form a closed
 * loop — turn t+1 arrives one exponential think time after the
 * driver RETIRES turn t (wantsRetirements() feedback, see the base
 * class). Turn t+1's prompt is the shared system prefix plus the
 * accumulated history (all previous prompts and completions) plus
 * freshly drawn user tokens, so prompts grow and re-send a prefix a
 * KV cache (src/kvcache/) can serve warm.
 *
 * Determinism: turn lengths and think times come from a private
 * per-(session, turn) RNG (a splitmix mix of seed, session, turn),
 * so a turn's content is a pure function of the spec — independent
 * of how driver loops interleave retirements — and only the arrival
 * time depends on when the previous turn finished. Double runs of
 * any driver are byte-identical.
 */
class SessionSource : public WorkloadSource
{
  public:
    explicit SessionSource(const WorkloadSpec &spec);

    bool openLoop() const override { return true; }
    const std::string &name() const override { return name_; }
    std::string describe() const override;
    bool wantsRetirements() const override { return true; }

    /** Fresh-session arrival rate actually in use (sessions/s). */
    double sessionQps() const { return sessionQps_; }

  protected:
    Request generate() override;
    std::int64_t generatorRemaining() const override
    {
        return kUnbounded;
    }
    void onRetired(const Request &r, PicoSec now) override;
    void reabsorb(Request r) override;

  private:
    /** Draws of one (session, turn): user/output tokens + think. */
    struct TurnDraw
    {
        std::int64_t userTokens = 0;
        std::int64_t outputTokens = 0;
        PicoSec think = 0;
    };

    /** Per-session progress between retirements. */
    struct SessionState
    {
        int nextTurn = 1;            //!< next turn index to emit
        std::int64_t contextLen = 0; //!< history after the last turn
    };

    TurnDraw drawTurn(std::int64_t session, int turn) const;
    void ensureFresh();

    std::string name_;
    WorkloadSpec spec_;
    double sessionQps_ = 0.0;
    Rng rng_; //!< fresh-session arrival gaps only
    int nextId_ = 0;
    std::int64_t nextSession_ = 0;
    PicoSec clock_ = 0;

    /** Next fresh session's first turn, drawn lazily. */
    std::optional<Request> fresh_;

    /** Materialized pending turns (retirement-created + restored),
     *  a min-heap on (arrival, sessionId, id). */
    std::vector<Request> heap_;

    std::map<std::int64_t, SessionState> sessions_;
};

} // namespace duplex

#endif // DUPLEX_WORKLOAD_SOURCE_HH
