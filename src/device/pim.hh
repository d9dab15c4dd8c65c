/**
 * @file
 * Low-Op/B engine specifications: Logic-PIM and the prior-work
 * variants compared against it (Section VI).
 *
 *  - Logic-PIM: 4 x stack bandwidth via dedicated TSVs, processing
 *    units on the logic die at 8 Op/B (21.3 TFLOPS per stack).
 *  - Bank-PIM: in-bank units, 16 x stack bandwidth at 1 Op/B
 *    (HBM-PIM-style, doubled).
 *  - BankGroup-PIM: Logic-PIM's bandwidth and compute, but with
 *    units and buffers in the DRAM dies.
 *
 * Sustained bandwidth for all variants uses the bundle-mode
 * efficiency measured on the cycle-level model, since every variant
 * saturates its banks the same way.
 */

#ifndef DUPLEX_DEVICE_PIM_HH
#define DUPLEX_DEVICE_PIM_HH

#include "area/area.hh"
#include "device/device.hh"
#include "dram/calibration.hh"
#include "energy/edap.hh"

namespace duplex
{

/** Prior-PIM variant selector. */
enum class PimVariant
{
    LogicPim,
    BankPim,
    BankGroupPim,
};

/** Name for reporting. */
const char *pimVariantName(PimVariant v);

/** Logic-PIM engine for a device with @p num_stacks stacks. */
EngineSpec logicPimEngine(const HbmTiming &timing,
                          const DramCalibration &cal,
                          int num_stacks = 5);

/** Bank-PIM engine (16 x bandwidth, peak Op/B 1). */
EngineSpec bankPimEngine(const HbmTiming &timing,
                         const DramCalibration &cal,
                         int num_stacks = 5);

/** BankGroup-PIM engine (Logic-PIM numbers, DRAM-die placement). */
EngineSpec bankGroupPimEngine(const HbmTiming &timing,
                              const DramCalibration &cal,
                              int num_stacks = 5);

/** DRAM path for a variant's data. */
DramPath pimVariantPath(PimVariant v);

/** Compute class for a variant's arithmetic. */
ComputeClass pimVariantClass(PimVariant v);

/**
 * Per-stack engine description for the Fig. 8 EDAP comparison,
 * including the variant's added-silicon area.
 */
PimEngineDesc pimVariantDesc(PimVariant v, const HbmTiming &timing,
                             const DramCalibration &cal,
                             const AreaModel &area);

} // namespace duplex

#endif // DUPLEX_DEVICE_PIM_HH
