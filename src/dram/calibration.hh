/**
 * @file
 * Sustained-bandwidth factors of the HBM3 stack, as the device
 * models consume them.
 *
 * The factors are what the cycle-level DRAM model sustains instead
 * of the datasheet peaks, so every figure in the paper reproduction
 * rests on measured DRAM behaviour. They are a pure function of
 * hbm3Timing(), so hbm3Calibration() returns them as a committed
 * constant; dram_test_calibrate recomputes them with the probes
 * (dram/calibrate.hh) and requires the constant to match bit for
 * bit.
 */

#ifndef DUPLEX_DRAM_CALIBRATION_HH
#define DUPLEX_DRAM_CALIBRATION_HH

#include "dram/timing.hh"

namespace duplex
{

/** Sustained-bandwidth factors measured on the cycle model. */
struct DramCalibration
{
    /** Sustained / peak for an xPU-path stream over all banks. */
    double xpuStreamEff = 1.0;

    /** Sustained / provisioned-4x for a staggered bundle stream. */
    double pimStaggeredEff = 1.0;

    /** Sustained / provisioned-4x for a lockstep (shared C/A) one. */
    double pimLockstepEff = 1.0;

    /** xPU efficiency while Logic-PIM streams other bundles. */
    double xpuCoEff = 1.0;

    /** Logic-PIM efficiency while xPU streams other bundles. */
    double pimCoEff = 1.0;

    /** Sustained xPU bytes/s for one stack. */
    double xpuStackBps(const HbmTiming &t) const
    {
        return t.stackPeakBytesPerSec() * xpuStreamEff;
    }

    /** Sustained Logic-PIM bytes/s for one stack (staggered mode). */
    double pimStackBps(const HbmTiming &t) const
    {
        return t.pchBundlePeakBytesPerSec() * t.pchPerStack *
               pimStaggeredEff;
    }

    /** Measured Logic-PIM gain over the xPU path. */
    double pimGain(const HbmTiming &t) const
    {
        return pimStackBps(t) / xpuStackBps(t);
    }
};

/**
 * The probes' result for hbm3Timing() at the default probe length,
 * written with %.17g so each literal round-trips to the measured
 * bits. A change to HbmTiming or to the probes fails
 * dram_test_calibrate, which prints the values to commit here.
 */
constexpr DramCalibration
hbm3Calibration()
{
    return {.xpuStreamEff = 0.89005183458204129,
            .pimStaggeredEff = 0.70870671693978049,
            .pimLockstepEff = 0.54967568776560061,
            .xpuCoEff = 0.87954011676023902,
            .pimCoEff = 0.70723574165002978};
}

} // namespace duplex

#endif // DUPLEX_DRAM_CALIBRATION_HH
