/**
 * @file
 * Bandwidth calibration probes: measure what the cycle-level DRAM
 * model actually sustains instead of assuming datasheet peaks.
 *
 * The probes stream multi-megabyte reads through one pseudo channel
 * and report sustained/provisioned efficiency for:
 *  - the xPU path alone,
 *  - the Logic-PIM bundle path alone (staggered and lockstep C/A),
 *  - both paths concurrently on disjoint bundles (the co-processing
 *    case, which shares rank ACT windows and refresh).
 *
 * Devices do not run these probes: they consume the committed
 * constant hbm3Calibration() (dram/calibration.hh), and
 * dram_test_calibrate checks that constant bit for bit against
 * calibrateDram(hbm3Timing()). The probes and the cycle model they
 * drive build into the duplex_dram library, which only the DRAM
 * tests and bench_dram_bandwidth link.
 */

#ifndef DUPLEX_DRAM_CALIBRATE_HH
#define DUPLEX_DRAM_CALIBRATE_HH

#include "dram/calibration.hh"

namespace duplex
{

/**
 * Run the probes. @p bytes_per_pch controls probe length; the default
 * reaches steady state through several refresh windows.
 */
DramCalibration calibrateDram(const HbmTiming &timing,
                              Bytes bytes_per_pch = 2 * kMiB);

} // namespace duplex

#endif // DUPLEX_DRAM_CALIBRATE_HH
