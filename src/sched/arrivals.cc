#include "sched/arrivals.hh"

#include <algorithm>

#include "common/log.hh"

namespace duplex
{

ArrivalQueue::ArrivalQueue(std::vector<Request> requests,
                           bool closed_loop)
    : pending_(requests.begin(), requests.end()),
      closedLoop_(closed_loop)
{
}

ArrivalQueue::ArrivalQueue(const WorkloadConfig &workload,
                           int num_requests)
    : ArrivalQueue(
          std::make_unique<SyntheticSource>("synthetic", workload),
          num_requests)
{
}

ArrivalQueue::ArrivalQueue(std::unique_ptr<WorkloadSource> source,
                           std::int64_t num_requests)
{
    fatalIf(source == nullptr, "ArrivalQueue: null workload source");
    fatalIf(num_requests < 0,
            "ArrivalQueue: negative request count");
    closedLoop_ = !source->openLoop();
    budget_ = std::min(num_requests, source->remaining());
    source_ = std::move(source);
}

ArrivalQueue::ArrivalQueue(bool closed_loop)
    : closedLoop_(closed_loop)
{
}

void
ArrivalQueue::push(Request r)
{
    panicIf(source_ != nullptr,
            "ArrivalQueue::push on a streaming queue");
    panicIf(!pending_.empty() && r.arrival < pending_.back().arrival,
            "ArrivalQueue::push out of arrival order");
    pending_.push_back(std::move(r));
}

void
ArrivalQueue::drainPending(std::vector<Request> &out)
{
    panicIf(source_ != nullptr,
            "ArrivalQueue::drainPending on a streaming queue");
    for (auto &r : pending_)
        out.push_back(std::move(r));
    pending_.clear();
}

void
ArrivalQueue::refill() const
{
    if (pending_.empty() && budget_ > 0) {
        pending_.push_back(source_->next());
        --budget_;
    }
}

const Request &
ArrivalQueue::front() const
{
    refill();
    panicIf(pending_.empty(), "ArrivalQueue::front on empty queue");
    return pending_.front();
}

bool
ArrivalQueue::hasAdmissible(PicoSec now) const
{
    if (empty())
        return false;
    return closedLoop_ || front().arrival <= now;
}

Request
ArrivalQueue::pop(PicoSec now)
{
    refill();
    panicIf(pending_.empty(), "ArrivalQueue::pop on empty queue");
    Request r = std::move(pending_.front());
    pending_.pop_front();
    if (closedLoop_)
        r.arrival = now;
    return r;
}

void
ArrivalQueue::popArrived(PicoSec now, std::deque<Request> &out)
{
    if (closedLoop_)
        return;
    while (hasAdmissible(now))
        out.push_back(pop(now));
}

PicoSec
ArrivalQueue::nextArrival() const
{
    if (empty())
        return -1;
    return front().arrival;
}

void
ArrivalQueue::notifyRetired(const Request &r, PicoSec now)
{
    if (source_ == nullptr || !source_->wantsRetirements())
        return;
    while (!pending_.empty()) {
        source_->restore(std::move(pending_.back()));
        pending_.pop_back();
        ++budget_;
    }
    source_->notifyRetired(r, now);
}

} // namespace duplex
