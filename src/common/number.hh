/**
 * @file
 * Whole-field number parsing for user input (trace files, fault
 * lists, command-line flags). The entire field, blanks around it
 * aside, must be one finite number: "1.5x", "", "nan", "inf" and
 * out-of-range exponents are rejected, integer fields are checked to
 * be whole and in range, and time fields to fit the picosecond clock,
 * before any cast.
 */

#ifndef DUPLEX_COMMON_NUMBER_HH
#define DUPLEX_COMMON_NUMBER_HH

#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>

#include "common/units.hh"

namespace duplex
{

/** 2^53: every whole number up to this magnitude is exact. */
constexpr std::int64_t kMaxExactWhole = std::int64_t{1} << 53;

/**
 * Largest magnitude, in seconds, of a time that secToPs converts
 * without overflowing the int64 picosecond clock (about 9.2e6 s).
 */
constexpr double kMaxClockSec =
    static_cast<double>(std::numeric_limits<PicoSec>::max() / kPsPerSec);

/**
 * @p mib mebibytes as bytes; fatal unless the byte count lies in
 * [0, kMaxExactWhole], where the cast is exact.
 */
std::int64_t mibToBytes(double mib);

/** The field as one finite number, or nullopt. */
std::optional<double> parseFinite(const std::string &field);

/** Whether @p sec is a time secToPs can convert: |sec| <= kMaxClockSec. */
inline bool
withinClockRange(double sec)
{
    return std::abs(sec) <= kMaxClockSec;
}

/**
 * The field as a whole number in [@p lo, @p hi], or nullopt. The
 * bounds must lie within +-kMaxExactWhole, so the cast is exact.
 */
std::optional<std::int64_t>
parseWhole(const std::string &field, std::int64_t lo = -kMaxExactWhole,
           std::int64_t hi = kMaxExactWhole);

} // namespace duplex

#endif // DUPLEX_COMMON_NUMBER_HH
