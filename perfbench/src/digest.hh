/**
 * @file
 * The digest of a repetition's simulated statistics.
 *
 * The simulator is deterministic, so everything it reports repeats
 * exactly for a given seed: the digest is a canonical text of those
 * statistics (integers verbatim, doubles with all 17 significant
 * digits) plus its FNV-1a hash. Repetitions, traced and untraced
 * runs, and a perf-only change against its parent must all print the
 * same digest for the same seed.
 */

#ifndef PERFBENCH_DIGEST_HH
#define PERFBENCH_DIGEST_HH

#include <cstdint>
#include <string>

namespace perfbench
{

/** Builds the canonical "key=value" text of one record. */
class Digest
{
  public:
    /** Start a new line (one record: a run, a sweep config, ...). */
    void line(const std::string &label);

    void add(const char *key, std::int64_t value);
    void add(const char *key, double value);

    /** The canonical text, one record per line. */
    const std::string &text() const { return text_; }

  private:
    std::string text_;
};

/** FNV-1a 64-bit hash of @p text, as 16 hex digits. */
std::string digestHash(const std::string &text);

} // namespace perfbench

#endif // PERFBENCH_DIGEST_HH
