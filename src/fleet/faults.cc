#include "fleet/faults.hh"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "common/log.hh"
#include "common/number.hh"

namespace duplex
{

const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
      case FaultKind::Crash:
        return "crash";
      case FaultKind::Degrade:
        return "degrade";
      case FaultKind::Rejoin:
        return "rejoin";
      case FaultKind::Drain:
        return "drain";
    }
    return "?";
}

PicoSec
RetrySpec::backoffFor(int attempt) const
{
    panicIf(attempt < 1, "RetrySpec::backoffFor: 1-based attempt");
    double delay = backoffSec;
    for (int k = 1; k < attempt; ++k)
        delay *= multiplier;
    if (!withinClockRange(delay))
        fatal("RetrySpec: backoffSec grown by multiplier for attempt " +
              std::to_string(attempt) +
              " is beyond the simulated clock range");
    return secToPs(delay);
}

namespace
{

/** Fatal on a spec no plan can run; shared by both plan kinds. */
void
validateSpec(const FaultSpec &spec)
{
    fatalIf(spec.mtbfSec < 0.0, "FaultSpec: negative mtbfSec");
    fatalIf(spec.mtbfSec > 0.0 && spec.mttrSec <= 0.0,
            "FaultSpec: MTBF draws need a positive mttrSec");
    fatalIf(spec.stragglerFraction < 0.0 ||
                spec.stragglerFraction > 1.0,
            "FaultSpec: stragglerFraction must be in [0, 1]");
    fatalIf(spec.stragglerFraction > 0.0 &&
                spec.stragglerFactor <= 0.0,
            "FaultSpec: stragglerFactor must be positive");
    fatalIf(spec.stragglerDurationSec < 0.0,
            "FaultSpec: negative stragglerDurationSec");
    fatalIf(spec.numDomains < 0, "FaultSpec: negative numDomains");
    for (int d : spec.domainOf)
        fatalIf(d < 0, "FaultSpec: negative domain in domainOf");
    fatalIf(spec.domainMtbfSec < 0.0,
            "FaultSpec: negative domainMtbfSec");
    fatalIf(spec.domainMttrSec < 0.0,
            "FaultSpec: negative domainMttrSec");
    fatalIf(spec.domainMtbfSec > 0.0 && !spec.hasDomains(),
            "FaultSpec: domainMtbfSec needs a domain map "
            "(numDomains or domainOf)");
    fatalIf(spec.domainMtbfSec > 0.0 && spec.domainMttrSec <= 0.0 &&
                spec.mttrSec <= 0.0,
            "FaultSpec: domain MTBF draws need a positive repair "
            "time (domainMttrSec or mttrSec)");
    fatalIf(spec.drainFactorThreshold < 0.0,
            "FaultSpec: negative drainFactorThreshold");
    // Means and windows become picosecond times through secToPs.
    const std::pair<const char *, double> times[] = {
        {"mtbfSec", spec.mtbfSec},
        {"mttrSec", spec.mttrSec},
        {"stragglerDurationSec", spec.stragglerDurationSec},
        {"domainMtbfSec", spec.domainMtbfSec},
        {"domainMttrSec", spec.domainMttrSec}};
    for (const auto &[field, sec] : times)
        fatalIf(!withinClockRange(sec),
                "FaultSpec: " + std::string(field) +
                    " is beyond the simulated clock range");
}

} // namespace

FaultPlan::FaultPlan(const FaultSpec &spec, int instance,
                     std::uint64_t fleet_seed)
    : random_(spec.mtbfSec > 0.0), instance_(instance),
      mtbfSec_(spec.mtbfSec), mttrSec_(spec.mttrSec),
      stragglerFraction_(spec.stragglerFraction),
      stragglerFactor_(spec.stragglerFactor),
      stragglerDurationSec_(spec.stragglerDurationSec),
      rng_(faultStreamSeed(fleet_seed, instance))
{
    validateSpec(spec);
    for (const FaultEvent &e : spec.events) {
        fatalIf(e.kind == FaultKind::Rejoin,
                "FaultSpec: rejoin events are reported, not "
                "scheduled — schedule a crash with a downtime");
        fatalIf(e.kind == FaultKind::Drain,
                "FaultSpec: drain events are reported, not "
                "scheduled — they fire when a degrade crosses "
                "drainFactorThreshold");
        fatalIf(e.at < 0, "FaultSpec: negative event time");
        if (e.domain >= 0) {
            // Domain-targeted events belong to the domain plans;
            // validate the shared bits once, on every instance.
            fatalIf(e.kind != FaultKind::Crash,
                    "FaultSpec: only crashes can target a domain");
            fatalIf(!spec.hasDomains(),
                    "FaultSpec: a domain-targeted crash needs a "
                    "domain map (numDomains or domainOf)");
            fatalIf(e.domain >= spec.domainCount(),
                    "FaultSpec: crash targets a domain beyond the "
                    "domain map");
            continue;
        }
        if (e.instance != instance)
            continue;
        if (e.kind == FaultKind::Degrade) {
            fatalIf(e.duration <= 0,
                    "FaultSpec: degrade events need a positive "
                    "window");
            fatalIf(e.factor <= 0.0,
                    "FaultSpec: degrade factor must be positive");
        }
        explicit_.push_back(e);
    }
    start();
}

FaultPlan
FaultPlan::forDomain(const FaultSpec &spec, int domain,
                     std::uint64_t fleet_seed)
{
    validateSpec(spec);
    FaultPlan plan;
    plan.random_ = spec.domainMtbfSec > 0.0;
    plan.domain_ = domain;
    plan.mtbfSec_ = spec.domainMtbfSec;
    plan.mttrSec_ =
        spec.domainMttrSec > 0.0 ? spec.domainMttrSec : spec.mttrSec;
    plan.rng_ = Rng(domainStreamSeed(fleet_seed, domain));
    for (const FaultEvent &e : spec.events)
        if (e.domain == domain)
            plan.explicit_.push_back(e);
    plan.start();
    return plan;
}

void
FaultPlan::start()
{
    std::stable_sort(explicit_.begin(), explicit_.end(),
                     [](const FaultEvent &a, const FaultEvent &b) {
                         return a.at < b.at;
                     });
    if (random_)
        armRandom(0);
}

void
FaultPlan::armRandom(PicoSec after)
{
    nextRandomAt_ =
        after + secToPs(rng_.exponential(1.0 / mtbfSec_));
}

bool
FaultPlan::pending() const
{
    return !explicit_.empty() || nextRandomAt_ >= 0;
}

PicoSec
FaultPlan::nextAt() const
{
    if (!pending())
        return -1;
    if (explicit_.empty())
        return nextRandomAt_;
    if (nextRandomAt_ < 0)
        return explicit_.front().at;
    return std::min(explicit_.front().at, nextRandomAt_);
}

FaultEvent
FaultPlan::pop()
{
    panicIf(!pending(), "FaultPlan::pop with nothing scheduled");
    if (!explicit_.empty() &&
        (nextRandomAt_ < 0 ||
         explicit_.front().at <= nextRandomAt_)) {
        FaultEvent e = explicit_.front();
        explicit_.pop_front();
        return e;
    }
    // Random event: one fixed draw order (kind, then window) so the
    // stream is a pure function of the spec and the plan's seed. A
    // domain plan has no stragglers, so it skips the kind draw.
    FaultEvent e;
    e.instance = instance_;
    e.domain = domain_;
    e.at = nextRandomAt_;
    const bool straggle =
        stragglerFraction_ > 0.0 &&
        rng_.uniform() < stragglerFraction_;
    if (straggle) {
        e.kind = FaultKind::Degrade;
        e.factor = stragglerFactor_;
        const double window =
            stragglerDurationSec_ > 0.0
                ? stragglerDurationSec_
                : rng_.exponential(1.0 / mttrSec_);
        e.duration = std::max<PicoSec>(1, secToPs(window));
    } else {
        e.kind = FaultKind::Crash;
        e.duration = std::max<PicoSec>(
            1, secToPs(rng_.exponential(1.0 / mttrSec_)));
    }
    // The machine cannot fail again until this fault's window ends.
    armRandom(e.at + e.duration);
    return e;
}

std::uint64_t
faultStreamSeed(std::uint64_t fleet_seed, int instance)
{
    // splitmix finalizer over (seed, instance) plus a fault-only
    // salt: disjoint from the `seed + instance` workload streams by
    // construction, and stable across standard libraries.
    std::uint64_t x = fleet_seed * 0x9e3779b97f4a7c15ULL +
                      static_cast<std::uint64_t>(instance);
    x ^= 0xFA17'FA17'FA17'FA17ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

std::uint64_t
domainStreamSeed(std::uint64_t fleet_seed, int domain)
{
    // Same finalizer, a domain-only salt: disjoint from every
    // per-instance fault stream (different salt) and from every
    // workload/expert stream (different construction).
    std::uint64_t x = fleet_seed * 0x9e3779b97f4a7c15ULL +
                      static_cast<std::uint64_t>(domain);
    x ^= 0xD0'0D'D0'0D'D0'0D'D0'0DULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

namespace
{

/** Split @p text on any of @p seps, trimming surrounding
 *  whitespace and dropping empty pieces ("a; b" == "a;b"). */
std::vector<std::string>
splitAny(const std::string &text, const char *seps)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= text.size()) {
        const std::size_t end = text.find_first_of(seps, start);
        std::size_t stop =
            end == std::string::npos ? text.size() : end;
        while (start < stop && std::isspace(static_cast<unsigned char>(
                                   text[start])))
            ++start;
        while (stop > start && std::isspace(static_cast<unsigned char>(
                                   text[stop - 1])))
            --stop;
        if (stop > start)
            out.push_back(text.substr(start, stop - start));
        if (end == std::string::npos)
            break;
        start = end + 1;
    }
    return out;
}

/** The field as a finite number, or a fatal naming it. */
double
faultNumber(const std::string &field, const char *name,
            const std::string &item)
{
    const std::optional<double> v = parseFinite(field);
    if (!v)
        fatal("--faults: bad " + std::string(name) + " '" + field +
              "' in '" + item + "' (not a finite number)");
    return *v;
}

/** faultNumber for a time in seconds that fits the clock. */
double
faultSeconds(const std::string &field, const char *name,
             const std::string &item)
{
    const double v = faultNumber(field, name, item);
    if (!withinClockRange(v))
        fatal("--faults: bad " + std::string(name) + " '" + field +
              "' in '" + item + "' (beyond the simulated clock range)");
    return v;
}

/** The field as a non-negative int id, or a fatal naming it. */
int
faultId(const std::string &field, const char *name,
        const std::string &item)
{
    const std::optional<std::int64_t> v =
        parseWhole(field, 0, std::numeric_limits<int>::max());
    if (!v)
        fatal("--faults: " + std::string(name) +
              " must be a non-negative integer in '" + item + "'");
    return static_cast<int>(*v);
}

} // namespace

std::vector<FaultEvent>
parseFaultList(const std::string &text)
{
    std::vector<FaultEvent> events;
    for (const std::string &item : splitAny(text, ";,")) {
        const std::size_t atPos = item.find('@');
        fatalIf(atPos == std::string::npos,
                "--faults: '" + item +
                    "' — expected kind@sec:instance[:...]");
        const std::string kind = item.substr(0, atPos);
        const std::vector<std::string> fields =
            splitAny(item.substr(atPos + 1), ":");
        fatalIf(fields.size() < 2,
                "--faults: '" + item +
                    "' — need at least time and instance");
        FaultEvent e;
        const double sec = faultSeconds(fields[0], "time", item);
        fatalIf(sec < 0.0,
                "--faults: negative time in '" + item + "'");
        e.at = secToPs(sec);
        if (fields[1].rfind("domain=", 0) == 0) {
            // Correlated event: crash@sec:domain=D[:downtime-sec]
            // strikes every instance of the domain at once.
            fatalIf(kind != "crash",
                    "--faults: only crash can target a domain in '" +
                        item + "'");
            e.domain = faultId(fields[1].substr(7), "domain", item);
        } else {
            e.instance = faultId(fields[1], "instance", item);
        }
        if (kind == "crash") {
            fatalIf(fields.size() > 3,
                    "--faults: too many fields in '" + item +
                        "' (crash@sec:instance[:downtime-sec])");
            e.kind = FaultKind::Crash;
            e.duration = -1;
            if (fields.size() == 3) {
                const double down =
                    faultSeconds(fields[2], "downtime", item);
                fatalIf(down <= 0.0,
                        "--faults: downtime must be positive in '" +
                            item + "'");
                e.duration = secToPs(down);
            }
        } else if (kind == "degrade") {
            fatalIf(fields.size() < 3 || fields.size() > 4,
                    "--faults: '" + item +
                        "' — degrade@sec:instance:window-sec"
                        "[:factor]");
            e.kind = FaultKind::Degrade;
            const double window =
                faultSeconds(fields[2], "window", item);
            fatalIf(window <= 0.0,
                    "--faults: window must be positive in '" +
                        item + "'");
            e.duration = secToPs(window);
            e.factor = 3.0;
            if (fields.size() == 4) {
                e.factor = faultNumber(fields[3], "factor", item);
                fatalIf(e.factor <= 0.0,
                        "--faults: factor must be positive in '" +
                            item + "'");
            }
        } else {
            fatal("--faults: unknown kind '" + kind + "' in '" +
                  item + "' (crash | degrade)");
        }
        events.push_back(e);
    }
    return events;
}

} // namespace duplex
