#include "kvcache/prefix_cache.hh"

#include <algorithm>
#include <sstream>

#include "common/log.hh"

namespace duplex
{

void
PrefixCacheMetrics::merge(const PrefixCacheMetrics &other)
{
    lookups += other.lookups;
    hits += other.hits;
    misses += other.misses;
    hitTokens += other.hitTokens;
    installs += other.installs;
    evictions += other.evictions;
    installedBytes += other.installedBytes;
    evictedBytes += other.evictedBytes;
    acquiredBytes += other.acquiredBytes;
    residentBytes += other.residentBytes;
    peakResidentBytes += other.peakResidentBytes;
}

// ------------------------------------------------- stock policies

namespace
{

/** Least-recently-used: oldest lastUseTick goes first. */
class LruEviction : public EvictionPolicy
{
  public:
    std::int64_t
    victim(const std::vector<EvictionCandidate> &candidates) override
    {
        panicIf(candidates.empty(),
                "lru eviction over an empty candidate list");
        const EvictionCandidate *best = &candidates.front();
        for (const EvictionCandidate &c : candidates)
            if (c.lastUseTick < best->lastUseTick)
                best = &c;
        return best->key;
    }

    const std::string &name() const override
    {
        static const std::string kName = "lru";
        return kName;
    }

    std::string describe() const override
    {
        return "evict the least recently used prefix (oldest "
               "logical access tick; key breaks ties)";
    }
};

/** Least-frequently-used: fewest hits, then oldest, goes first. */
class LfuEviction : public EvictionPolicy
{
  public:
    std::int64_t
    victim(const std::vector<EvictionCandidate> &candidates) override
    {
        panicIf(candidates.empty(),
                "lfu eviction over an empty candidate list");
        const EvictionCandidate *best = &candidates.front();
        for (const EvictionCandidate &c : candidates) {
            if (c.useCount < best->useCount ||
                (c.useCount == best->useCount &&
                 c.lastUseTick < best->lastUseTick))
                best = &c;
        }
        return best->key;
    }

    const std::string &name() const override
    {
        static const std::string kName = "lfu";
        return kName;
    }

    std::string describe() const override
    {
        return "evict the least frequently used prefix (fewest "
               "hits; recency, then key, breaks ties)";
    }
};

void
registerStockEvictionPolicies(EvictionPolicyRegistry &registry)
{
    registry.add("lru",
                 "least recently used (oldest logical access tick)",
                 [] { return std::make_unique<LruEviction>(); });
    registry.add("lfu",
                 "least frequently used (fewest hits, then oldest)",
                 [] { return std::make_unique<LfuEviction>(); });
}

} // namespace

// ------------------------------------------------------- registry

template <>
EvictionPolicyRegistry &
EvictionPolicyRegistry::instance()
{
    static EvictionPolicyRegistry *registry = [] {
        auto *r = new EvictionPolicyRegistry("EvictionPolicyRegistry",
                                             "policy");
        registerStockEvictionPolicies(*r);
        return r;
    }();
    return *registry;
}

std::unique_ptr<EvictionPolicy>
makeEvictionPolicy(const std::string &id)
{
    return EvictionPolicyRegistry::instance().make(id);
}

std::vector<std::string>
registeredEvictionPolicies()
{
    return EvictionPolicyRegistry::instance().ids();
}

void
registerEvictionPolicy(const std::string &id,
                       const std::string &summary,
                       EvictionPolicyFactory factory)
{
    EvictionPolicyRegistry::instance().add(id, summary,
                                           std::move(factory));
}

// ------------------------------------------------ PrefixCachePool

PrefixCachePool::PrefixCachePool(const PrefixCacheSpec &spec,
                                 std::int64_t bytesPerToken)
    : spec_(spec), bytesPerToken_(bytesPerToken)
{
    if (!spec_.enabled())
        return;
    fatalIf(bytesPerToken_ <= 0,
            "PrefixCachePool: bytes per token must be positive");
    fatalIf(spec_.sharedPrefixTokens < 0,
            "PrefixCachePool: shared prefix tokens must be "
            "non-negative");
    policy_ = makeEvictionPolicy(spec_.evictPolicy);
    // Seed the cross-session shared system prompt: every fresh
    // session's first turn starts with it, so it is warm from the
    // first request (and evictable like any other entry).
    if (spec_.sharedPrefixTokens > 0 &&
        spec_.sharedPrefixTokens * bytesPerToken_ <=
            spec_.budgetBytes)
        insert(kSharedKey, spec_.sharedPrefixTokens);
}

std::int64_t
PrefixCachePool::acquire(const Request &r)
{
    if (!enabled() || r.sessionId < 0 || r.inputLen <= 0)
        return 0;
    ++metrics_.lookups;
    // Session history first: it contains the shared prefix, so it
    // is always the longer of the two possible hits.
    auto it = prefixes_.find(r.sessionId);
    if (it != prefixes_.end()) {
        const std::int64_t h =
            std::min(it->second.tokens, r.inputLen - 1);
        // Check the entry out: its bytes ride with the live batch
        // (which charges the full context) until retirement
        // re-installs, so cached KV is never counted twice.
        metrics_.acquiredBytes += it->second.bytes;
        metrics_.residentBytes -= it->second.bytes;
        residentTokens_ -= it->second.tokens;
        prefixes_.erase(it);
        ++metrics_.hits;
        metrics_.hitTokens += h;
        return h;
    }
    it = prefixes_.find(kSharedKey);
    if (it != prefixes_.end()) {
        const std::int64_t h =
            std::min(it->second.tokens, r.inputLen - 1);
        it->second.lastUseTick = ++tick_;
        ++it->second.useCount;
        ++metrics_.hits;
        metrics_.hitTokens += h;
        return h;
    }
    ++metrics_.misses;
    return 0;
}

void
PrefixCachePool::install(const Request &r)
{
    if (!enabled() || r.sessionId < 0)
        return;
    const std::int64_t tokens = r.inputLen + r.generated;
    if (tokens <= 0 || tokens * bytesPerToken_ > spec_.budgetBytes)
        return;
    // Re-installing a live key replaces it; the stale prefix counts
    // as an eviction so the byte ledger stays closed.
    auto it = prefixes_.find(r.sessionId);
    if (it != prefixes_.end())
        evict(it);
    while (residentTokens_ * bytesPerToken_ +
               tokens * bytesPerToken_ >
           spec_.budgetBytes)
        evictOne();
    insert(r.sessionId, tokens);
}

void
PrefixCachePool::reclaim(std::int64_t tokens)
{
    if (!enabled())
        return;
    const std::int64_t target =
        std::max<std::int64_t>(residentTokens_ - tokens, 0);
    while (residentTokens_ > target && !prefixes_.empty())
        evictOne();
}

void
PrefixCachePool::flush()
{
    while (!prefixes_.empty())
        evict(prefixes_.begin());
}

void
PrefixCachePool::evictOne()
{
    panicIf(prefixes_.empty(),
            "PrefixCachePool::evictOne on an empty pool");
    std::vector<EvictionCandidate> candidates;
    candidates.reserve(prefixes_.size());
    for (const auto &[key, e] : prefixes_)
        candidates.push_back(
            {key, e.tokens, e.bytes, e.lastUseTick, e.useCount});
    const std::int64_t key = policy_->victim(candidates);
    auto it = prefixes_.find(key);
    panicIf(it == prefixes_.end(),
            "eviction policy returned an unknown key");
    evict(it);
}

void
PrefixCachePool::evict(std::map<std::int64_t, Entry>::iterator it)
{
    ++metrics_.evictions;
    metrics_.evictedBytes += it->second.bytes;
    metrics_.residentBytes -= it->second.bytes;
    residentTokens_ -= it->second.tokens;
    prefixes_.erase(it);
}

void
PrefixCachePool::insert(std::int64_t key, std::int64_t tokens)
{
    Entry e;
    e.tokens = tokens;
    e.bytes = tokens * bytesPerToken_;
    e.lastUseTick = ++tick_;
    e.useCount = 0;
    ++metrics_.installs;
    metrics_.installedBytes += e.bytes;
    metrics_.residentBytes += e.bytes;
    metrics_.peakResidentBytes = std::max(
        metrics_.peakResidentBytes, metrics_.residentBytes);
    residentTokens_ += tokens;
    prefixes_[key] = e;
}

} // namespace duplex
