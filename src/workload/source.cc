#include "workload/source.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/log.hh"
#include "workload/trace.hh"

namespace duplex
{

namespace
{

/**
 * The deterministic splitmix64 finalizer priority stamping mixes
 * request ids with (same mix as fleet/policy.hh mixSessionHash,
 * repeated here so the workload layer does not depend on the fleet
 * layer). NOT std::hash — the stamp must be byte-stable across
 * libstdc++ and libc++ for the CI determinism matrix.
 */
std::uint64_t
mixPriorityHash(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

} // namespace

// ------------------------------------------------------- base class

Request
WorkloadSource::next()
{
    panicIf(generatorRemaining() <= 0,
            "WorkloadSource::next on an exhausted source");
    Request r = generate();
    // Session stamping is arithmetic on the already-drawn id — no
    // RNG draws, so every golden request stream stays bit-identical
    // whether or not sessions are enabled. Recorded session ids
    // (trace replay) win over the stamp.
    if (numSessions_ > 0 && r.sessionId < 0)
        r.sessionId = r.id % numSessions_;
    // Priority stamping follows the same no-RNG rule: a splitmix
    // mix of the id against a fixed-point threshold, so the class-1
    // subset is a deterministic function of (id, fraction) and
    // trace-carried classes win.
    if (priorityThreshold_ > 0 && r.priorityClass == 0 &&
        static_cast<std::int64_t>(
            mixPriorityHash(static_cast<std::uint64_t>(r.id)) %
            10000) < priorityThreshold_)
        r.priorityClass = 1;
    return r;
}

void
WorkloadSource::setPriorityFraction(double frac)
{
    fatalIf(frac < 0.0 || frac > 1.0,
            "priority fraction must be in [0, 1]");
    priorityThreshold_ =
        static_cast<std::int64_t>(std::llround(frac * 10000.0));
}

std::int64_t
WorkloadSource::remaining() const
{
    return generatorRemaining();
}

void
WorkloadSource::notifyRetired(const Request &r, PicoSec now)
{
    if (wantsRetirements())
        onRetired(r, now);
}

void
WorkloadSource::restore(Request r)
{
    panicIf(!wantsRetirements(),
            "WorkloadSource::restore on a source without "
            "retirement feedback");
    reabsorb(std::move(r));
}

void
WorkloadSource::onRetired(const Request &, PicoSec)
{
}

void
WorkloadSource::reabsorb(Request)
{
    panic("WorkloadSource::reabsorb not supported by this source");
}

// -------------------------------------------------- SyntheticSource

SyntheticSource::SyntheticSource(std::string name,
                                 const WorkloadConfig &config,
                                 std::string summary)
    : name_(std::move(name)), summary_(std::move(summary)),
      gen_(config)
{
}

bool
SyntheticSource::openLoop() const
{
    return gen_.config().openLoop();
}

std::string
SyntheticSource::describe() const
{
    std::ostringstream out;
    out << name_ << ": truncated-Gaussian lengths, Lin ~ "
        << gen_.config().meanInputLen << ", Lout ~ "
        << gen_.config().meanOutputLen << " (cv "
        << gen_.config().lengthCv << "), ";
    if (gen_.config().openLoop())
        out << "Poisson arrivals at " << gen_.config().qps
            << " req/s";
    else
        out << "closed loop";
    if (!summary_.empty())
        out << " — " << summary_;
    return out.str();
}

// ------------------------------------------------------ TraceSource

TraceSource::TraceSource(const std::string &path)
    : name_("trace"), label_(path), requests_(loadTrace(path))
{
}

TraceSource::TraceSource(std::string label,
                         std::vector<Request> requests)
    : name_("trace"), label_(std::move(label)),
      requests_(std::move(requests))
{
    for (std::size_t i = 1; i < requests_.size(); ++i)
        fatalIf(requests_[i].arrival < requests_[i - 1].arrival,
                "TraceSource: arrivals must be non-decreasing");
}

std::string
TraceSource::describe() const
{
    std::ostringstream out;
    out << name_ << ": replays " << requests_.size()
        << " recorded request(s) from '" << label_
        << "', arrival stamps drive admission";
    return out.str();
}

Request
TraceSource::generate()
{
    panicIf(next_ >= static_cast<std::int64_t>(requests_.size()),
            "TraceSource::generate past the end of the trace");
    return requests_[next_++];
}

// ----------------------------------------------------- BurstySource

BurstySource::BurstySource(const WorkloadSpec &spec)
    : name_("bursty"), spec_(spec), rng_(spec.seed)
{
    fatalIf(spec_.burstQps <= 0.0,
            "BurstySource: burstQps must be positive");
    fatalIf(spec_.idleQps < 0.0,
            "BurstySource: idleQps must be non-negative");
    fatalIf(spec_.meanBurstSec <= 0.0 || spec_.meanIdleSec <= 0.0,
            "BurstySource: mean state durations must be positive");
    fatalIf(spec_.meanInputLen <= 0 || spec_.meanOutputLen <= 0,
            "BurstySource: mean lengths must be positive");
    // The stream opens inside a burst so the first arrivals come at
    // burst pace; the state machine takes over from there.
    stateEnd_ = secToPs(rng_.exponential(1.0 / spec_.meanBurstSec));
}

std::string
BurstySource::describe() const
{
    std::ostringstream out;
    out << name_ << ": on/off Poisson, bursts at " << spec_.burstQps
        << " req/s (~" << spec_.meanBurstSec << " s) over an idle "
        << "floor of " << spec_.idleQps << " req/s (~"
        << spec_.meanIdleSec << " s), Lin ~ " << spec_.meanInputLen
        << ", Lout ~ " << spec_.meanOutputLen;
    return out.str();
}

Request
BurstySource::generate()
{
    Request r;
    r.id = nextId_++;
    drawLengths(rng_, r, spec_.meanInputLen, spec_.meanOutputLen,
                spec_.lengthCv, spec_.minLen);

    // Two-state MMPP: by memorylessness, a gap drawn in the current
    // state is valid only while the state lasts; crossing the state
    // boundary discards it and redraws at the new rate.
    for (;;) {
        const double rate =
            inBurst_ ? spec_.burstQps : spec_.idleQps;
        if (rate > 0.0) {
            const PicoSec gap = secToPs(rng_.exponential(rate));
            if (clock_ + gap <= stateEnd_) {
                clock_ += gap;
                break;
            }
        }
        // No arrival before the state flips (or a silent state):
        // jump to the boundary and draw the next state's duration.
        clock_ = stateEnd_;
        inBurst_ = !inBurst_;
        const double mean_dur =
            inBurst_ ? spec_.meanBurstSec : spec_.meanIdleSec;
        stateEnd_ =
            clock_ + secToPs(rng_.exponential(1.0 / mean_dur));
    }
    r.arrival = clock_;
    return r;
}

// ---------------------------------------------------- DiurnalSource

DiurnalSource::DiurnalSource(const WorkloadSpec &spec)
    : name_("diurnal"), spec_(spec), rng_(spec.seed)
{
    fatalIf(spec_.diurnalPeriodSec <= 0.0,
            "DiurnalSource: period must be positive");
    fatalIf(spec_.meanInputLen <= 0 || spec_.meanOutputLen <= 0,
            "DiurnalSource: mean lengths must be positive");
    ramp_ = spec_.qpsRamp;
    if (ramp_.empty()) {
        fatalIf(spec_.diurnalLowQps < 0.0 ||
                    spec_.diurnalHighQps <= 0.0,
                "DiurnalSource: ramp rates must be non-negative "
                "with a positive peak");
        ramp_ = {{0.0, spec_.diurnalLowQps},
                 {spec_.diurnalPeriodSec / 2.0,
                  spec_.diurnalHighQps}};
    }
    double prev = -1.0;
    for (const QpsPoint &p : ramp_) {
        fatalIf(p.timeSec < 0.0 ||
                    p.timeSec >= spec_.diurnalPeriodSec,
                "DiurnalSource: breakpoint times must lie in "
                "[0, period)");
        fatalIf(p.timeSec <= prev && prev >= 0.0,
                "DiurnalSource: breakpoints must be strictly "
                "increasing");
        fatalIf(p.qps < 0.0,
                "DiurnalSource: ramp rates must be non-negative");
        prev = p.timeSec;
        peakQps_ = std::max(peakQps_, p.qps);
    }
    fatalIf(peakQps_ <= 0.0,
            "DiurnalSource: the ramp never rises above zero");
}

double
DiurnalSource::qpsAt(PicoSec t) const
{
    const double period = spec_.diurnalPeriodSec;
    double sec = std::fmod(psToSec(t), period);
    if (sec < 0.0)
        sec += period;
    // Find the segment [a, b) containing sec; the ramp wraps from
    // the last breakpoint back to the first across the period end.
    const std::size_t n = ramp_.size();
    for (std::size_t i = 0; i < n; ++i) {
        const QpsPoint &a = ramp_[i];
        const bool last = i + 1 == n;
        const QpsPoint &b = ramp_[last ? 0 : i + 1];
        const double span =
            (last ? period + b.timeSec : b.timeSec) - a.timeSec;
        if (sec >= a.timeSec &&
            (last || sec < b.timeSec)) {
            if (span <= 0.0)
                return a.qps;
            const double f = (sec - a.timeSec) / span;
            return a.qps + f * (b.qps - a.qps);
        }
    }
    // sec precedes the first breakpoint: the wrap segment covers it.
    const QpsPoint &a = ramp_.back();
    const QpsPoint &b = ramp_.front();
    const double span = period - a.timeSec + b.timeSec;
    if (span <= 0.0)
        return b.qps;
    const double f = (period - a.timeSec + sec) / span;
    return a.qps + f * (b.qps - a.qps);
}

std::string
DiurnalSource::describe() const
{
    std::ostringstream out;
    out << name_ << ": piecewise-linear QPS ramp over "
        << spec_.diurnalPeriodSec << " s (" << ramp_.size()
        << " breakpoint(s), peak " << peakQps_
        << " req/s), Lin ~ " << spec_.meanInputLen << ", Lout ~ "
        << spec_.meanOutputLen;
    return out.str();
}

Request
DiurnalSource::generate()
{
    Request r;
    r.id = nextId_++;
    drawLengths(rng_, r, spec_.meanInputLen, spec_.meanOutputLen,
                spec_.lengthCv, spec_.minLen);
    // Thinning: candidate arrivals at the peak rate, accepted with
    // probability qps(t) / peak — a textbook non-homogeneous
    // Poisson sampler, deterministic given the seed.
    for (;;) {
        clock_ += secToPs(rng_.exponential(peakQps_));
        if (rng_.uniform() * peakQps_ <= qpsAt(clock_))
            break;
    }
    r.arrival = clock_;
    return r;
}

// ---------------------------------------------------- MixtureSource

MixtureSource::MixtureSource(std::string name,
                             const WorkloadConfig &base,
                             std::vector<ScenarioClass> classes)
    : name_(std::move(name)), base_(base),
      classes_(std::move(classes)), rng_(base.seed)
{
    fatalIf(classes_.empty(),
            "MixtureSource: need at least one scenario class");
    for (const ScenarioClass &c : classes_) {
        fatalIf(c.weight <= 0.0,
                "MixtureSource: class weights must be positive");
        fatalIf(c.meanInputLen <= 0 || c.meanOutputLen <= 0,
                "MixtureSource: class mean lengths must be "
                "positive");
        totalWeight_ += c.weight;
    }
}

bool
MixtureSource::openLoop() const
{
    return base_.openLoop();
}

std::string
MixtureSource::describe() const
{
    std::ostringstream out;
    out << name_ << ": weighted mix of";
    for (const ScenarioClass &c : classes_) {
        out << " " << c.label << " ("
            << static_cast<int>(
                   100.0 * c.weight / totalWeight_ + 0.5)
            << "%, " << c.meanInputLen << "/" << c.meanOutputLen
            << ")";
    }
    if (base_.openLoop())
        out << ", Poisson arrivals at " << base_.qps << " req/s";
    else
        out << ", closed loop";
    return out.str();
}

Request
MixtureSource::generate()
{
    double pick = rng_.uniform() * totalWeight_;
    const ScenarioClass *chosen = &classes_.back();
    for (const ScenarioClass &c : classes_) {
        if (pick < c.weight) {
            chosen = &c;
            break;
        }
        pick -= c.weight;
    }
    Request r;
    r.id = nextId_++;
    drawLengths(rng_, r, chosen->meanInputLen,
                chosen->meanOutputLen, chosen->lengthCv,
                base_.minLen);
    if (base_.qps > 0.0) {
        clock_ += secToPs(rng_.exponential(base_.qps));
        r.arrival = clock_;
    }
    return r;
}

// ---------------------------------------------------- SessionSource

namespace
{

/** Min-heap comparator: later (arrival, sessionId, id) sinks. */
bool
laterTurn(const Request &a, const Request &b)
{
    if (a.arrival != b.arrival)
        return a.arrival > b.arrival;
    if (a.sessionId != b.sessionId)
        return a.sessionId > b.sessionId;
    return a.id > b.id;
}

} // namespace

SessionSource::SessionSource(const WorkloadSpec &spec)
    : name_("session"), spec_(spec), rng_(spec.seed)
{
    fatalIf(spec_.sessionTurns < 1,
            "SessionSource: need at least one turn per session");
    fatalIf(spec_.sharedPrefixTokens < 0,
            "SessionSource: shared prefix tokens must be "
            "non-negative");
    fatalIf(spec_.meanThinkSec < 0.0,
            "SessionSource: mean think time must be non-negative");
    fatalIf(spec_.meanInputLen <= 0 || spec_.meanOutputLen <= 0,
            "SessionSource: mean lengths must be positive");
    sessionQps_ = spec_.qps > 0.0 ? spec_.qps : spec_.sessionQps;
    fatalIf(sessionQps_ <= 0.0,
            "SessionSource: fresh-session rate must be positive");
}

std::string
SessionSource::describe() const
{
    std::ostringstream out;
    out << name_ << ": multi-turn chat, " << spec_.sessionTurns
        << " turn(s)/session, fresh sessions at " << sessionQps_
        << " /s, shared prefix " << spec_.sharedPrefixTokens
        << " tokens, user turns ~ " << spec_.meanInputLen
        << ", replies ~ " << spec_.meanOutputLen << ", think ~ "
        << spec_.meanThinkSec << " s after each reply";
    return out.str();
}

SessionSource::TurnDraw
SessionSource::drawTurn(std::int64_t session, int turn) const
{
    // A turn's content is a pure function of (seed, session, turn):
    // driver loops may interleave retirements differently without
    // perturbing any draw, and double runs stay byte-identical.
    std::uint64_t s = mixPriorityHash(spec_.seed);
    s = mixPriorityHash(s ^ static_cast<std::uint64_t>(session));
    s = mixPriorityHash(s ^ static_cast<std::uint64_t>(turn));
    Rng tr(s);
    Request tmp;
    drawLengths(tr, tmp, spec_.meanInputLen, spec_.meanOutputLen,
                spec_.lengthCv, spec_.minLen);
    TurnDraw d;
    d.userTokens = tmp.inputLen;
    d.outputTokens = tmp.outputLen;
    d.think = spec_.meanThinkSec > 0.0
                  ? secToPs(tr.exponential(1.0 / spec_.meanThinkSec))
                  : 0;
    return d;
}

void
SessionSource::ensureFresh()
{
    if (fresh_.has_value())
        return;
    // Only the fresh-session Poisson gaps touch the main RNG, so
    // the open-session schedule is independent of retirements.
    clock_ += secToPs(rng_.exponential(sessionQps_));
    const std::int64_t sid = nextSession_++;
    const TurnDraw d = drawTurn(sid, 0);
    Request r;
    r.id = nextId_++;
    r.sessionId = sid;
    r.inputLen = spec_.sharedPrefixTokens + d.userTokens;
    r.outputLen = d.outputTokens;
    r.arrival = clock_;
    sessions_[sid] =
        SessionState{1, r.inputLen + r.outputLen};
    fresh_ = r;
}

Request
SessionSource::generate()
{
    ensureFresh();
    // Earliest of the materialized pending turns and the next fresh
    // session; the heap wins ties so a follow-up turn created at
    // the same instant precedes a new conversation.
    if (!heap_.empty() &&
        heap_.front().arrival <= fresh_->arrival) {
        std::pop_heap(heap_.begin(), heap_.end(), laterTurn);
        Request r = std::move(heap_.back());
        heap_.pop_back();
        return r;
    }
    Request r = *fresh_;
    fresh_.reset();
    return r;
}

void
SessionSource::onRetired(const Request &r, PicoSec now)
{
    if (r.sessionId < 0)
        return;
    auto it = sessions_.find(r.sessionId);
    if (it == sessions_.end())
        return;
    SessionState &st = it->second;
    if (st.nextTurn >= spec_.sessionTurns)
        return;
    const int turn = st.nextTurn;
    const TurnDraw d = drawTurn(r.sessionId, turn);
    Request nr;
    nr.id = nextId_++;
    nr.sessionId = r.sessionId;
    // Prompt = shared prefix + full history + the new user turn;
    // contextLen already folds the prefix in from turn 0.
    nr.inputLen = st.contextLen + d.userTokens;
    nr.outputLen = d.outputTokens;
    nr.arrival = now + d.think;
    st.nextTurn = turn + 1;
    st.contextLen = nr.inputLen + nr.outputLen;
    heap_.push_back(std::move(nr));
    std::push_heap(heap_.begin(), heap_.end(), laterTurn);
}

void
SessionSource::reabsorb(Request r)
{
    heap_.push_back(std::move(r));
    std::push_heap(heap_.begin(), heap_.end(), laterTurn);
}

} // namespace duplex
