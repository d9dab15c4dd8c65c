#include "sched/metrics.hh"

#include "common/log.hh"

namespace duplex
{

void
MetricsAccumulator::ingest(const Request &request)
{
    ++ingested_;
    if (ingested_ <= skip_)
        return; // warm-up request, excluded by completion order
    // One copy of the extraction rule, dispatched to either sink
    // family (SampleStats or BoundedStats — both expose add()).
    // The order (T2FT, E2E, then the token gaps) fixes the running
    // float sums: the golden outputs depend on it.
    const auto extract = [&](auto &t2ft, auto &e2e, auto &tbt,
                             auto &worst_gap) {
        if (request.firstToken >= 0)
            t2ft.add(psToMs(request.firstToken - request.arrival));
        if (request.finished >= 0)
            e2e.add(psToMs(request.finished - request.arrival));
        const double worst = visitTokenGapsMs(
            request, [&](double gap) { tbt.add(gap); });
        if (worst >= 0.0)
            worst_gap.add(worst);
    };
    if (bounded_)
        extract(bounded_->t2ftMs, bounded_->e2eMs,
                bounded_->tbtMs, bounded_->worstGapMs);
    else
        extract(metrics_.t2ftMs, metrics_.e2eMs, metrics_.tbtMs,
                worstGap_);
}

BoundedLatencyMetrics
MetricsAccumulator::takeBounded()
{
    panicIf(!bounded_,
            "takeBounded on an exact-mode MetricsAccumulator");
    BoundedLatencyMetrics out = std::move(*bounded_);
    bounded_.reset();
    return out;
}

ServingMetrics
collectMetrics(const std::vector<Request> &finished,
               std::size_t skip_requests)
{
    MetricsAccumulator acc(skip_requests);
    for (const Request &r : finished)
        acc.ingest(r);
    return acc.takeMetrics();
}

void
WarmupWindow::onStageCompleted(PicoSec now,
                               std::int64_t generated_tokens)
{
    ++stages_;
    if (stages_ == warmupStages_) {
        windowStart_ = now;
        tokensAtStart_ = generated_tokens;
    }
}

void
WarmupWindow::finalize(ServingMetrics &m, PicoSec now,
                       std::int64_t total_tokens) const
{
    if (stages_ > warmupStages_) {
        // Throughput over the post-warm-up window only.
        m.totalTokens = total_tokens - tokensAtStart_;
        m.elapsed = now - windowStart_;
    } else {
        m.totalTokens = total_tokens;
        m.elapsed = now;
    }
}

LatencySummary
summarizeLatency(const ServingMetrics &m)
{
    LatencySummary s;
    s.tbtP50 = m.tbtMs.percentile(50);
    s.tbtP90 = m.tbtMs.percentile(90);
    s.tbtP99 = m.tbtMs.percentile(99);
    s.t2ftP50 = m.t2ftMs.percentile(50);
    s.e2eP50 = m.e2eMs.percentile(50);
    return s;
}

} // namespace duplex
