/**
 * @file
 * One driver loop's log of stage end times, the source of every
 * retired request's token times.
 *
 * Under continuous batching (Section II-C) an active request emits
 * one token in every stage after its first, so its token times past
 * the first are the end times of a contiguous run of its loop's
 * stages. A loop appends one end time per stage that produced a
 * token; a request records only `decodeFrom`, the log index of its
 * first decode stage, and gets its `tokenTimes` once, at exact
 * size, when it retires. Live token-time memory is then O(batch +
 * the longest live request in stages), not O(batch x output
 * length).
 */

#ifndef DUPLEX_SCHED_STAGE_LOG_HH
#define DUPLEX_SCHED_STAGE_LOG_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/log.hh"
#include "workload/request.hh"

namespace duplex
{

class StageLog
{
  public:
    /** Fewest entries the log holds before it tries a trim. */
    static constexpr std::size_t kMinTrim = 256;

    /** Log index the next appended stage end gets. */
    std::int64_t next() const
    {
        return base_ + static_cast<std::int64_t>(ends_.size());
    }

    /** Entries held now (older ones are trimmed away). */
    std::size_t size() const { return ends_.size(); }

    /** Record the end time of a stage that produced tokens. */
    void append(PicoSec end) { ends_.push_back(end); }

    /**
     * Fill @p r.tokenTimes at exact size: its first token, then
     * every stage end from r.decodeFrom to the newest (none when it
     * never decoded). Call at retirement, after the stage's append.
     */
    void fillTokenTimes(Request &r) const
    {
        std::size_t from = ends_.size();
        if (r.decodeFrom >= 0) {
            panicIf(r.decodeFrom < base_ || r.decodeFrom > next(),
                    "StageLog: decodeFrom outside the live log");
            from = static_cast<std::size_t>(r.decodeFrom - base_);
        }
        r.tokenTimes.resize(1 + ends_.size() - from);
        r.tokenTimes.front() = r.firstToken;
        std::copy(ends_.begin() + static_cast<std::ptrdiff_t>(from),
                  ends_.end(), r.tokenTimes.begin() + 1);
    }

    /**
     * Once the log has doubled since the last trim, drop the
     * entries before the oldest decodeFrom in @p live (all of them
     * when none decodes yet). Amortised O(1) per append, and the
     * log never holds more than max(kMinTrim, 2 x the longest live
     * span) entries.
     */
    void trim(const std::vector<Request> &live)
    {
        if (ends_.size() < trimAt_)
            return;
        std::int64_t oldest = next();
        for (const Request &r : live)
            if (r.decodeFrom >= 0)
                oldest = std::min(oldest, r.decodeFrom);
        panicIf(oldest < base_,
                "StageLog: a live request reads a trimmed entry");
        ends_.erase(ends_.begin(),
                    ends_.begin() +
                        static_cast<std::ptrdiff_t>(oldest - base_));
        base_ = oldest;
        trimAt_ = std::max(kMinTrim, 2 * ends_.size());
    }

  private:
    std::vector<PicoSec> ends_;
    std::int64_t base_ = 0; //!< log index of ends_[0]
    std::size_t trimAt_ = kMinTrim;
};

} // namespace duplex

#endif // DUPLEX_SCHED_STAGE_LOG_HH
