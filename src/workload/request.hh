/**
 * @file
 * Inference request records and their lifecycle timestamps.
 */

#ifndef DUPLEX_WORKLOAD_REQUEST_HH
#define DUPLEX_WORKLOAD_REQUEST_HH

#include <cstdint>
#include <vector>

#include "common/units.hh"

namespace duplex
{

/** One inference request as the serving scheduler sees it. */
struct Request
{
    int id = -1;
    std::int64_t inputLen = 0;   //!< prompt tokens (Lin)
    std::int64_t outputLen = 0;  //!< tokens to generate (Lout)
    PicoSec arrival = 0;         //!< when the request enters the queue

    /**
     * Conversation/session handle, -1 when absent. Purely a routing
     * tag: the session-affinity fleet policy (src/fleet/) hashes it
     * so one session's turns land on the same instance (warm KV
     * reuse in a real deployment). No cost path reads it.
     */
    std::int64_t sessionId = -1;

    /**
     * Scheduling class for the "priority" batcher policy
     * (sched/policy.hh): higher admits first and may preempt
     * strictly-lower-class decodes. 0 (the default) is the baseline
     * class; FCFS-style policies ignore it entirely. Stamped by the
     * workload layer (WorkloadSpec.priorityFrac) or carried by the
     * optional trace-CSV column; no cost path reads it.
     */
    int priorityClass = 0;

    /**
     * Times this request was re-queued from prefill: fleet crash
     * re-routes (fleet/faults.hh, RetrySpec caps those) and batcher
     * preemptions (sched/policy.hh) both count here. Zero outside
     * faulted or preempting runs; no cost path reads it.
     */
    int retries = 0;

    // --- Lifecycle, filled by the scheduler -----------------------
    PicoSec firstToken = -1;     //!< completion of the prefill stage
    PicoSec finished = -1;       //!< completion of the last token
    std::int64_t generated = 0;  //!< tokens produced so far

    /**
     * Prompt tokens already processed under chunked prefill
     * (BatcherConfig.prefillChunkTokens); stays 0 when chunking is
     * off — generated == 0 remains the prefill flag there.
     */
    std::int64_t prefilled = 0;

    /**
     * Prompt tokens served from a KV prefix cache at admission
     * (src/kvcache/); 0 means a cold prefill. Set by the batcher
     * when a PrefixCachePool is active, reset on preemption/retry
     * re-queues (the re-admission looks the prefix up again), and
     * read by SloAttainment/PrefixCacheStats for the warm-vs-cold
     * TTFT split. No cost path reads it directly — the cached
     * tokens shrink `prefilled` instead, which the cost model sees.
     */
    std::int64_t cachedTokens = 0;

    /**
     * Index, in the driver loop's StageLog (sched/stage_log.hh), of
     * the first stage this request decoded in; -1 until then.
     */
    std::int64_t decodeFrom = -1;

    /**
     * Completion time per token: firstToken, then one stage end
     * per decode token. The driver loop fills it once, at exact
     * size, when the request retires and before any observer or
     * metric sees it; it stays empty while the request is active.
     */
    std::vector<PicoSec> tokenTimes;

    /** Context length the KV cache holds for this request. */
    std::int64_t contextLen() const { return inputLen + generated; }

    bool done() const { return generated >= outputLen; }

    /**
     * Re-queue from prefill: the batch slot's KV is gone (a batcher
     * preemption or a fleet crash retry), so count one more retry
     * and clear every lifecycle field, cache probe included. The
     * arrival is left alone: a preempted request keeps it, so its
     * eventual TTFT/E2E carries the restart's full penalty.
     */
    void restartFromPrefill()
    {
        retries += 1;
        generated = 0;
        prefilled = 0;
        cachedTokens = 0;
        firstToken = -1;
        finished = -1;
        decodeFrom = -1;
        tokenTimes.clear();
    }
};

} // namespace duplex

#endif // DUPLEX_WORKLOAD_REQUEST_HH
