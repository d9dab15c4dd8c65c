/**
 * @file
 * KV prefix caching: the PrefixCachePool subsystem (PR 9).
 *
 * Production servers amortize conversational prefill by caching the
 * KV of prompt prefixes — the shared system prompt and each
 * session's accumulated history — and serving follow-up turns from
 * the cache, paying prefill only for the uncached suffix. This
 * directory models that mechanism for the simulator: a per-instance
 * PrefixCachePool tracks cached prefix KV per session (plus one
 * cross-session shared-prefix entry) against a configurable byte
 * budget, charged against the serving system's maxKvTokens headroom
 * so cache residency competes with live batches for the same HBM.
 *
 * The batcher (sched/batcher.hh) consults the pool at admission: a
 * hit pre-fills the request (`Request.prefilled` jumps to the hit
 * length, so the cost model and TTFT both see only the suffix) and
 * stamps `Request.cachedTokens` for the warm-vs-cold observers; a
 * miss pays full prefill. Retirement installs the session's full
 * context back into the pool. Session entries are CHECKED OUT on a
 * hit — the bytes move into the live batch (which charges the full
 * context) and return at retirement — so cached KV is never double
 * counted against the budget.
 *
 * Eviction is pluggable through EvictionPolicyRegistry, an alias of
 * Registry (common/registry.hh) like the other four axes ("lru", "lfu");
 * see the ROADMAP recipe for adding one. Everything is
 * deterministic: victims are chosen over key-sorted candidates with
 * a monotone logical tick for recency, no wall clock, no RNG — and
 * a disabled pool (budgetBytes == 0) leaves every existing run
 * byte-identical.
 */

#ifndef DUPLEX_KVCACHE_PREFIX_CACHE_HH
#define DUPLEX_KVCACHE_PREFIX_CACHE_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/registry.hh"
#include "workload/request.hh"

namespace duplex
{

/** Configures one PrefixCachePool; default-constructed = disabled. */
struct PrefixCacheSpec
{
    /** Cache budget in bytes; 0 (the default) disables the pool. */
    std::int64_t budgetBytes = 0;

    /** Eviction policy registry id ("lru", "lfu"). */
    std::string evictPolicy = "lru";

    /**
     * Cross-session shared system-prompt length; > 0 seeds the
     * pool with one always-warm candidate entry under the reserved
     * key kSharedKey (evictable like any other entry).
     */
    std::int64_t sharedPrefixTokens = 0;

    /** True when a pool should be built at all. */
    bool enabled() const { return budgetBytes > 0; }
};

/**
 * Counters a pool accumulates; aggregated across a fleet and
 * surfaced through SimResult/FleetResult. The byte ledger holds
 *   installedBytes == evictedBytes + acquiredBytes + residentBytes
 * at every step (pinned in tests/kvcache/test_prefix_cache.cc):
 * every installed byte is either still resident, was evicted, or
 * was checked out into a live batch by a session hit.
 */
struct PrefixCacheMetrics
{
    std::int64_t lookups = 0;   //!< admission-time probes
    std::int64_t hits = 0;      //!< probes served a prefix
    std::int64_t misses = 0;    //!< probes that paid full prefill
    std::int64_t hitTokens = 0; //!< prefill tokens served warm
    std::int64_t installs = 0;  //!< entries written
    std::int64_t evictions = 0; //!< entries evicted (incl. replace)
    std::int64_t installedBytes = 0;
    std::int64_t evictedBytes = 0;
    std::int64_t acquiredBytes = 0; //!< checked out by session hits
    std::int64_t residentBytes = 0; //!< in the pool right now
    std::int64_t peakResidentBytes = 0;

    double hitRate() const
    {
        return lookups > 0
                   ? static_cast<double>(hits) /
                         static_cast<double>(lookups)
                   : 0.0;
    }

    /** Fold another pool's counters in (fleet aggregation). */
    void merge(const PrefixCacheMetrics &other);
};

/** One cached prefix as an eviction policy sees it. */
struct EvictionCandidate
{
    std::int64_t key = 0;    //!< session id, or kSharedKey
    std::int64_t tokens = 0; //!< cached prefix length
    std::int64_t bytes = 0;  //!< budget charge
    std::int64_t lastUseTick = 0; //!< monotone logical recency
    std::int64_t useCount = 0;    //!< hits since install
};

/**
 * Picks the entry a full pool evicts next. Must be a pure function
 * of the (key-sorted, non-empty) candidate list — no RNG, no wall
 * clock — so cache runs stay byte-reproducible.
 */
class EvictionPolicy
{
  public:
    virtual ~EvictionPolicy() = default;

    /** Key of the candidate to evict. */
    virtual std::int64_t
    victim(const std::vector<EvictionCandidate> &candidates) = 0;

    /** Registry id / display handle ("lru", ...). */
    virtual const std::string &name() const = 0;

    /** One-line description of the eviction rule. */
    virtual std::string describe() const = 0;
};

/**
 * Registry of every eviction policy a pool can use, an alias of
 * Registry like the system, workload, scheduling and routing axes.
 * Stock entries: "lru", "lfu".
 */
using EvictionPolicyRegistry = Registry<EvictionPolicy>;

/** Builds one (stateful) policy instance per pool. */
using EvictionPolicyFactory = EvictionPolicyRegistry::Factory;

/** The process-wide registry, with the stock policies loaded. */
template <>
EvictionPolicyRegistry &EvictionPolicyRegistry::instance();

/** Build a registered eviction policy (registry shorthand). */
std::unique_ptr<EvictionPolicy>
makeEvictionPolicy(const std::string &id);

/** Ids of every registered eviction policy, sorted. */
std::vector<std::string> registeredEvictionPolicies();

/** Register an eviction policy with the process-wide registry. */
void registerEvictionPolicy(const std::string &id,
                            const std::string &summary,
                            EvictionPolicyFactory factory);

/**
 * Per-instance KV prefix cache. Keys are session ids; the reserved
 * kSharedKey holds the cross-session shared system prompt. The
 * batcher calls acquire() at admission and install() at retirement;
 * residentTokens() is the headroom charge and reclaim() frees bytes
 * when a live batch needs them (live work wins over cache).
 */
class PrefixCachePool
{
  public:
    /** Reserved key of the shared system-prompt entry. */
    static constexpr std::int64_t kSharedKey = -1;

    /**
     * @param spec           budget / policy / shared prefix
     * @param bytesPerToken  model KV bytes per cached token
     *                       (ModelConfig::kvBytesPerToken())
     */
    PrefixCachePool(const PrefixCacheSpec &spec,
                    std::int64_t bytesPerToken);

    bool enabled() const { return spec_.enabled(); }

    const PrefixCacheSpec &spec() const { return spec_; }

    /**
     * Admission-time probe for @p r. Returns the prefix tokens the
     * cache can serve (0 = cold), capped at inputLen - 1 so at
     * least one suffix token still runs through prefill. A
     * session-entry hit CHECKS the entry OUT (its bytes leave the
     * pool — the live batch carries them until retirement
     * re-installs); a shared-prefix hit only touches recency.
     * Requests without a session id never probe.
     */
    std::int64_t acquire(const Request &r);

    /**
     * Retirement install: caches @p r's full context
     * (inputLen + generated tokens) under its session id, evicting
     * by policy until it fits; an over-budget context is skipped.
     * No-op for session-less requests or a disabled pool.
     */
    void install(const Request &r);

    /** KV tokens resident — charged against maxKvTokens headroom. */
    std::int64_t residentTokens() const { return residentTokens_; }

    /**
     * Evict entries (by policy) until at least @p tokens of KV
     * headroom are freed or the pool is empty — the batcher's
     * live-work-wins pressure valve.
     */
    void reclaim(std::int64_t tokens);

    /**
     * Evict EVERY resident entry — the fleet crash path: the HBM
     * behind the cache is gone with the instance, so post-rejoin
     * lookups must all miss. Ledger-closed: flushed bytes count as
     * evictions (installedBytes == evictedBytes + acquiredBytes +
     * residentBytes still holds). Bytes checked out by session hits
     * stay checked out — the live requests carrying them were
     * evicted by the crash and never re-install.
     */
    void flush();

    /** Cached entries right now (tests / summaries). */
    std::size_t entryCount() const { return prefixes_.size(); }

    const PrefixCacheMetrics &metrics() const { return metrics_; }

  private:
    struct Entry
    {
        std::int64_t tokens = 0;
        std::int64_t bytes = 0;
        std::int64_t lastUseTick = 0;
        std::int64_t useCount = 0;
    };

    /** Evict the policy's victim; pool must be non-empty. */
    void evictOne();

    /** Remove @p it, crediting the byte ledger as an eviction. */
    void evict(std::map<std::int64_t, Entry>::iterator it);

    void insert(std::int64_t key, std::int64_t tokens);

    PrefixCacheSpec spec_;
    std::int64_t bytesPerToken_ = 0;
    std::unique_ptr<EvictionPolicy> policy_;

    /** key-sorted so eviction candidates enumerate deterministically. */
    std::map<std::int64_t, Entry> prefixes_;

    std::int64_t residentTokens_ = 0;
    std::int64_t tick_ = 0; //!< monotone logical clock for recency
    PrefixCacheMetrics metrics_;
};

} // namespace duplex

#endif // DUPLEX_KVCACHE_PREFIX_CACHE_HH
