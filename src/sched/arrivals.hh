/**
 * @file
 * Request-arrival semantics shared by every driver loop.
 *
 * The engine's continuous-batching loop and the split system's
 * custom loop consume the same request stream under the same two
 * admission disciplines: closed loop (a finished request is
 * replaced immediately; arrival timestamps are overwritten at
 * admission) and open loop (arrivals stamped by the workload
 * source; a request is admissible only once its arrival time has
 * passed). ArrivalQueue owns that discipline in one place, so a new
 * driver loop cannot fork the arrival contract; idleAdvance owns
 * the matching no-drift clock rule for idle gaps.
 *
 * The queue streams: when constructed over a WorkloadSource it
 * buffers exactly one lookahead request and draws the rest on
 * demand, so a million-request run never materializes the stream.
 * The pre-generated-vector constructor remains for callers that
 * already hold a request vector (trace snippets, tests); both paths
 * behave bit-for-bit identically (pinned in
 * tests/sched/test_arrivals.cc).
 */

#ifndef DUPLEX_SCHED_ARRIVALS_HH
#define DUPLEX_SCHED_ARRIVALS_HH

#include <deque>
#include <memory>
#include <vector>

#include "workload/source.hh"

namespace duplex
{

/** FIFO request queue with closed/open-loop admission gating. */
class ArrivalQueue
{
  public:
    /** Wrap a pre-generated stream (vector callers, tests). */
    ArrivalQueue(std::vector<Request> requests, bool closed_loop);

    /**
     * Stream the synthetic stream a WorkloadConfig describes:
     * @p num_requests drawn lazily from the config's
     * RequestGenerator, open loop iff workload.qps > 0. Kept for
     * old call sites; identical to wrapping a SyntheticSource.
     */
    ArrivalQueue(const WorkloadConfig &workload, int num_requests);

    /**
     * Stream @p num_requests from a workload source built by the
     * WorkloadRegistry (capped by the source's own remaining()
     * count — a short trace ends the run early). This is the
     * arrival stream every driver loop consumes; the engine and
     * custom loops construct it the same way so both see identical
     * requests.
     */
    ArrivalQueue(std::unique_ptr<WorkloadSource> source,
                 std::int64_t num_requests);

    /**
     * An empty push-fed queue: requests arrive through push() as a
     * router delivers them (src/fleet/). The admission discipline
     * is identical to the other modes; only the feeding differs.
     */
    explicit ArrivalQueue(bool closed_loop);

    /**
     * Append one routed request. Push-fed and vector queues only
     * (a streaming queue owns its source; mixing feeds would fork
     * the arrival order). Arrivals must stay non-decreasing — a
     * router consuming a workload stream in arrival order delivers
     * them that way per instance by construction.
     */
    void push(Request r);

    /**
     * Move every buffered request into @p out (appending, in
     * arrival order) — the fleet crash-eviction path. Push-fed and
     * vector queues only, like push(): a streaming queue owns its
     * source and cannot give requests back without forking the
     * draw stream.
     */
    void drainPending(std::vector<Request> &out);

    bool empty() const { return size() == 0; }

    /** Requests still pending (buffered plus undrawn). */
    std::size_t size() const
    {
        return pending_.size() + static_cast<std::size_t>(budget_);
    }

    bool closedLoop() const { return closedLoop_; }

    /** Next request in arrival order; queue must be non-empty. */
    const Request &front() const;

    /**
     * True when the front request may be admitted at @p now: always
     * in closed loop, only once its arrival has passed in open loop.
     */
    bool hasAdmissible(PicoSec now) const;

    /**
     * Pop the front request. Closed-loop admission overwrites the
     * arrival timestamp with @p now (the request conceptually enters
     * the queue the moment a slot frees).
     */
    Request pop(PicoSec now);

    /**
     * Open loop: move every request whose arrival has passed at
     * @p now into @p out (appending, in arrival order). Closed
     * loop: no-op — pop() stamps a closed-loop draw's arrival at
     * admission, so materializing it early would fork the
     * timestamps.
     */
    void popArrived(PicoSec now, std::deque<Request> &out);

    /**
     * Earliest arrival among pending requests (open loop); used to
     * advance an idle clock across arrival gaps. -1 when empty.
     */
    PicoSec nextArrival() const;

    /**
     * A driver loop retired @p r at @p now. No-op unless this is a
     * streaming queue over a wantsRetirements() source (so every
     * pre-existing workload keeps its exact draw stream). Otherwise
     * the buffered lookahead is handed back to the source (its
     * budget restored) before forwarding, so a retirement-created
     * turn that precedes the buffer is re-emitted in arrival order.
     */
    void notifyRetired(const Request &r, PicoSec now);

  private:
    /** Buffered requests: the whole stream in vector mode, at most
     *  one lookahead draw in streaming mode. */
    mutable std::deque<Request> pending_;

    /** Streaming generator; null in vector mode. */
    mutable std::unique_ptr<WorkloadSource> source_;

    /** Requests still to draw from source_. */
    mutable std::int64_t budget_ = 0;

    bool closedLoop_ = true;

    /** Pull the next request into pending_ when it runs dry. */
    void refill() const;
};

/**
 * Idle-clock advance rule shared by the driver loops: jump exactly
 * to the next arrival; the one-picosecond bump exists only for
 * stalls where the clock would not otherwise move (admission blocked
 * with the arrival already in the past). For an integer clock this
 * is equivalent to max(now + 1, arrival) — spelled out so the
 * no-drift-ahead-of-arrival invariant is explicit (pinned by
 * Engine.OpenLoopIdleAdvanceJumpsExactlyToArrival).
 */
inline PicoSec
idleAdvance(PicoSec now, PicoSec next_arrival)
{
    return next_arrival > now ? next_arrival : now + 1;
}

} // namespace duplex

#endif // DUPLEX_SCHED_ARRIVALS_HH
