/**
 * @file
 * What the tests and bench_perf read of ExpertSelector's lane
 * kernels: whether they take remainders with AVX-512 IFMA, and both
 * remainder bodies. Not part of the simulation API.
 */

#ifndef DUPLEX_WORKLOAD_EXPERT_LANES_HH
#define DUPLEX_WORKLOAD_EXPERT_LANES_HH

#include <cstddef>
#include <cstdint>

namespace duplex
{

/**
 * True when the lane kernels take x % 7 and x % 63 with AVX-512
 * IFMA (one fold and two 52-bit multiplies): on a host with AVX-512F
 * and AVX-512 IFMA, checked once. Otherwise a host with AVX-512F
 * takes them with two folds and two 32-bit multiplies.
 */
bool laneRemainderIfma();

/**
 * out[i] = x[i] % @p divisor for @p divisor 7 or 63, by the lane
 * kernels' remainder body: the IFMA one if @p ifma, else the 32-bit
 * one. The bodies leave the remainder in the low 3 or 6 bits of each
 * word; the kernels read only those, and so does this. @p words is a
 * multiple of 8. Needs Rng::laneWidth() == 8, and
 * laneRemainderIfma() for the IFMA body.
 */
void laneRemainders(std::uint64_t divisor, bool ifma, const std::uint64_t *x,
                    std::uint64_t *out, std::size_t words);

} // namespace duplex

#endif // DUPLEX_WORKLOAD_EXPERT_LANES_HH
