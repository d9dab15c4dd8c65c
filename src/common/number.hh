/**
 * @file
 * Whole-field number parsing for user input (trace files, fault
 * lists, command-line flags). The entire field, blanks around it
 * aside, must be one finite number: "1.5x", "", "nan", "inf" and
 * out-of-range exponents are rejected, and integer fields are
 * checked to be whole and in range before any cast.
 */

#ifndef DUPLEX_COMMON_NUMBER_HH
#define DUPLEX_COMMON_NUMBER_HH

#include <cstdint>
#include <optional>
#include <string>

namespace duplex
{

/** 2^53: every whole number up to this magnitude is exact. */
constexpr std::int64_t kMaxExactWhole = std::int64_t{1} << 53;

/** The field as one finite number, or nullopt. */
std::optional<double> parseFinite(const std::string &field);

/**
 * The field as a whole number in [@p lo, @p hi], or nullopt. The
 * bounds must lie within +-kMaxExactWhole, so the cast is exact.
 */
std::optional<std::int64_t>
parseWhole(const std::string &field, std::int64_t lo = -kMaxExactWhole,
           std::int64_t hi = kMaxExactWhole);

} // namespace duplex

#endif // DUPLEX_COMMON_NUMBER_HH
