#include "sim/observers.hh"

#include <algorithm>
#include <limits>

#include "common/log.hh"
#include "common/table.hh"

namespace duplex
{

void
StageTimeHistogram::onStage(const StageObservation &obs)
{
    stageMs_.add(psToMs(obs.result.time));
}

void
KvOccupancyTrace::onStage(const StageObservation &obs)
{
    points_.push_back({obs.end, obs.kvTokens});
}

std::int64_t
KvOccupancyTrace::peakKvTokens() const
{
    std::int64_t peak = 0;
    for (const Point &p : points_)
        peak = std::max(peak, p.kvTokens);
    return peak;
}

void
ExpertRoutingCounts::onStage(const StageObservation &obs)
{
    const std::vector<std::int64_t> &stage_tokens =
        obs.result.expertTokens;
    if (tokensPerExpert_.size() < stage_tokens.size())
        tokensPerExpert_.resize(stage_tokens.size(), 0);
    for (std::size_t e = 0; e < stage_tokens.size(); ++e)
        tokensPerExpert_[e] += stage_tokens[e];
}

std::int64_t
ExpertRoutingCounts::totalRouted() const
{
    std::int64_t total = 0;
    for (auto t : tokensPerExpert_)
        total += t;
    return total;
}

double
ExpertRoutingCounts::skew() const
{
    if (tokensPerExpert_.empty())
        return 1.0;
    const auto [lo, hi] = std::minmax_element(
        tokensPerExpert_.begin(), tokensPerExpert_.end());
    if (*hi == 0)
        return 1.0; // nothing routed: trivially uniform
    if (*lo == 0)
        return std::numeric_limits<double>::infinity();
    return static_cast<double>(*hi) / static_cast<double>(*lo);
}

void
GroupUtilization::onStage(const StageObservation &obs)
{
    for (const GroupObservation &g : obs.groupBreakdown()) {
        Group *slot = nullptr;
        for (Group &have : groups_) {
            if (have.name == g.group) {
                slot = &have;
                break;
            }
        }
        if (slot == nullptr) {
            groups_.push_back({g.group, g.devices, 0, 0, 0});
            slot = &groups_.back();
        }
        slot->busyTime += g.busy;
        slot->linkWaitTime += g.linkWait;
        ++slot->stages;
    }
}

void
GroupUtilization::onSimEnd(const SimResult &result)
{
    elapsed_ = result.metrics.elapsed;
}

const GroupUtilization::Group *
GroupUtilization::find(std::string_view name) const
{
    for (const Group &g : groups_)
        if (g.name == name)
            return &g;
    return nullptr;
}

double
GroupUtilization::busyFraction(std::string_view name) const
{
    const Group *g = find(name);
    if (g == nullptr || elapsed_ <= 0)
        return 0.0;
    return static_cast<double>(g->busyTime) /
           static_cast<double>(elapsed_);
}

SloAttainment::SloAttainment(SloSpec slo) : slo_(slo)
{
    fatalIf(!(slo.t2ftMs > 0.0 && slo.tbtMs > 0.0),
            "SLO objectives must be > 0 ms, got TTFT " +
                formatDouble(slo.t2ftMs, 3) + ", TBT " +
                formatDouble(slo.tbtMs, 3));
}

void
SloAttainment::onRequestRetired(const Request &request,
                                PicoSec now)
{
    ++total_;
    const bool t2ft_ok =
        request.firstToken >= 0 &&
        psToMs(request.firstToken - request.arrival) <= slo_.t2ftMs;
    // Every gap meets the objective exactly when the worst does.
    const bool tbt_ok =
        visitTokenGapsMs(request, [](double) {}) <= slo_.tbtMs;
    t2ftOk_ += t2ft_ok ? 1 : 0;
    tbtOk_ += tbt_ok ? 1 : 0;
    if (request.cachedTokens > 0) {
        ++warmTotal_;
        warmT2ftOk_ += t2ft_ok ? 1 : 0;
    }
    if (t2ft_ok && tbt_ok) {
        ++attained_;
        goodTokens_ += request.generated;
    }
    if (spanStart_ < 0 || request.arrival < spanStart_)
        spanStart_ = request.arrival;
    spanEnd_ = std::max(spanEnd_, now);
}

double
SloAttainment::t2ftAttainment() const
{
    return total_ > 0 ? static_cast<double>(t2ftOk_) /
                            static_cast<double>(total_)
                      : 1.0;
}

double
SloAttainment::tbtAttainment() const
{
    return total_ > 0 ? static_cast<double>(tbtOk_) /
                            static_cast<double>(total_)
                      : 1.0;
}

double
SloAttainment::attainment() const
{
    return total_ > 0 ? static_cast<double>(attained_) /
                            static_cast<double>(total_)
                      : 1.0;
}

double
SloAttainment::warmT2ftAttainment() const
{
    return warmTotal_ > 0 ? static_cast<double>(warmT2ftOk_) /
                                static_cast<double>(warmTotal_)
                          : 1.0;
}

double
SloAttainment::coldT2ftAttainment() const
{
    const std::int64_t cold = coldRequests();
    return cold > 0 ? static_cast<double>(t2ftOk_ - warmT2ftOk_) /
                          static_cast<double>(cold)
                    : 1.0;
}

double
SloAttainment::goodputTokensPerSec() const
{
    const PicoSec span = spanEnd_ - spanStart_;
    if (total_ == 0 || span <= 0)
        return 0.0;
    return static_cast<double>(goodTokens_) / psToSec(span);
}

void
PrefixCacheStats::onRequestRetired(const Request &request,
                                   PicoSec now)
{
    (void)now;
    // Requests that never prefilled here (evicted mid-flight) carry
    // no first token; skip them rather than skew the means.
    if (request.firstToken < 0)
        return;
    const double t2ft =
        psToMs(request.firstToken - request.arrival);
    if (request.cachedTokens > 0) {
        ++warm_;
        cachedTokens_ += request.cachedTokens;
        warmT2ftMsSum_ += t2ft;
    } else {
        ++cold_;
        coldT2ftMsSum_ += t2ft;
    }
}

double
PrefixCacheStats::warmFraction() const
{
    const std::int64_t total = warm_ + cold_;
    return total > 0 ? static_cast<double>(warm_) /
                           static_cast<double>(total)
                     : 0.0;
}

double
PrefixCacheStats::warmT2ftMs() const
{
    return warm_ > 0 ? warmT2ftMsSum_ / static_cast<double>(warm_)
                     : 0.0;
}

double
PrefixCacheStats::coldT2ftMs() const
{
    return cold_ > 0 ? coldT2ftMsSum_ / static_cast<double>(cold_)
                     : 0.0;
}

} // namespace duplex
