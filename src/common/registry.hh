/**
 * @file
 * The one string-keyed factory registry behind every experiment
 * axis: serving systems, workloads, and the scheduling, routing and
 * eviction policies.
 *
 * An axis is one alias, e.g.
 *
 *   using SystemRegistry = Registry<ServingSystem,
 *                                   const ModelConfig &,
 *                                   const SystemOptions &>;
 *
 * plus one explicit specialization of instance(), declared in the
 * axis header and defined beside the axis's stock entries, which
 * names the registry for its messages and loads those entries. The
 * primary instance() is never defined, so an axis without its
 * specialization fails to link.
 *
 * Entries are kept in id order: ids() is lexicographically sorted,
 * NOT registration order, which keeps sweeps and bench tables
 * byte-stable across standard libraries (the g++/clang++ CI matrix
 * diffs them). Lookups happen only when a system, source or policy
 * is built, never per stage; concurrent lookups are safe once
 * registration is done.
 */

#ifndef DUPLEX_COMMON_REGISTRY_HH
#define DUPLEX_COMMON_REGISTRY_HH

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/log.hh"

namespace duplex
{

/** Id -> (display name, summary, factory) for one axis. */
template <typename Product, typename... Args>
class Registry
{
  public:
    /** Builds one Product from the axis's arguments. */
    using Factory = std::function<std::unique_ptr<Product>(Args...)>;

    /** The process-wide registry, with the stock entries loaded. */
    static Registry &instance();

    /** Register an entry; a duplicate id or null factory is fatal. */
    void add(const std::string &id, const std::string &display,
             const std::string &summary, Factory factory)
    {
        fatalIf(contains(id), name_ + ": duplicate " + noun_ +
                                  " id '" + id + "'");
        fatalIf(!factory, name_ + ": null factory for '" + id + "'");
        entries_.emplace(id, Entry{display, summary,
                                   std::move(factory)});
    }

    /** add() for an entry whose display name is its id. */
    void add(const std::string &id, const std::string &summary,
             Factory factory)
    {
        add(id, id, summary, std::move(factory));
    }

    /** True when @p id is registered. */
    bool contains(const std::string &id) const
    {
        return entries_.count(id) != 0;
    }

    /** Build one Product; fatal on an unknown id. */
    std::unique_ptr<Product> make(const std::string &id,
                                  Args... args) const
    {
        return find(id).factory(std::forward<Args>(args)...);
    }

    /** Registered ids, lexicographically sorted. */
    std::vector<std::string> ids() const
    {
        std::vector<std::string> out;
        out.reserve(entries_.size());
        for (const auto &[id, entry] : entries_)
            out.push_back(id);
        return out;
    }

    /** Display name for tables ("Duplex+PE"). */
    const std::string &displayName(const std::string &id) const
    {
        return find(id).display;
    }

    /** One-line summary for --list-* output. */
    const std::string &summary(const std::string &id) const
    {
        return find(id).summary;
    }

  private:
    /**
     * Only instance() builds one. @p name prefixes every fatal
     * message ("SystemRegistry"); @p noun says what an entry is
     * ("system").
     */
    Registry(std::string name, std::string noun)
        : name_(std::move(name)), noun_(std::move(noun))
    {
    }

    struct Entry
    {
        std::string display;
        std::string summary;
        Factory factory;
    };

    std::string name_;
    std::string noun_;
    std::map<std::string, Entry> entries_;

    const Entry &find(const std::string &id) const
    {
        const auto it = entries_.find(id);
        if (it != entries_.end())
            return it->second;
        std::string known;
        for (const auto &[k, entry] : entries_)
            known += (known.empty() ? "" : ", ") + k;
        fatal(name_ + ": unknown " + noun_ + " '" + id +
              "' (known: " + known + ")");
    }
};

} // namespace duplex

#endif // DUPLEX_COMMON_REGISTRY_HH
