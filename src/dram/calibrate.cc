#include "dram/calibrate.hh"

#include <vector>

#include "common/log.hh"
#include "dram/bundle.hh"
#include "dram/controller.hh"

namespace duplex
{

namespace
{

/** All banks of the channel, for the solo xPU stream. */
std::vector<XpuStreamEngine::BankRef>
allBanks(const HbmTiming &t)
{
    std::vector<XpuStreamEngine::BankRef> banks;
    for (int r = 0; r < t.ranksPerPch; ++r)
        for (int bg = 0; bg < t.bankGroups; ++bg)
            for (int b = 0; b < t.banksPerGroup; ++b)
                banks.push_back({r, bg, b});
    return banks;
}

/** Banks of every bundle except (rank 0, half 0). */
std::vector<XpuStreamEngine::BankRef>
banksExcludingBundle0(const HbmTiming &t)
{
    std::vector<XpuStreamEngine::BankRef> banks;
    for (int r = 0; r < t.ranksPerPch; ++r)
        for (int bg = 0; bg < t.bankGroups; ++bg)
            for (int b = 0; b < t.banksPerGroup; ++b)
                if (!(r == 0 && b < 2))
                    banks.push_back({r, bg, b});
    return banks;
}

double
soloXpuEff(const HbmTiming &t, Bytes bytes)
{
    PseudoChannel ch(t);
    XpuStreamEngine eng(ch, allBanks(t), bytes);
    std::vector<StreamEngine *> engines{&eng};
    const PicoSec end = runEngines(engines);
    const double secs = psToSec(end);
    return static_cast<double>(bytes) / secs /
           t.pchPeakBytesPerSec();
}

double
soloPimEff(const HbmTiming &t, Bytes bytes, bool lockstep)
{
    PseudoChannel ch(t);
    BundleStreamEngine eng(ch, 0, 0, bytes, lockstep);
    std::vector<StreamEngine *> engines{&eng};
    const PicoSec end = runEngines(engines);
    const double secs = psToSec(end);
    return static_cast<double>(bytes) / secs /
           t.pchBundlePeakBytesPerSec();
}

/**
 * Concurrency probe: the measured engine gets @p bytes, the
 * background engine gets enough work to stay busy throughout.
 */
double
concurrentXpuEff(const HbmTiming &t, Bytes bytes)
{
    PseudoChannel ch(t);
    XpuStreamEngine xpu(ch, banksExcludingBundle0(t), bytes);
    BundleStreamEngine pim(ch, 0, 0, bytes * 8, false);
    // Run until the xPU engine finishes; the PIM engine keeps going.
    while (!xpu.done()) {
        StreamEngine *next =
            (pim.done() || xpu.nextReadyTime() <= pim.nextReadyTime())
                ? static_cast<StreamEngine *>(&xpu)
                : static_cast<StreamEngine *>(&pim);
        next->step();
    }
    const double secs = psToSec(xpu.finishTime());
    return static_cast<double>(bytes) / secs /
           t.pchPeakBytesPerSec();
}

double
concurrentPimEff(const HbmTiming &t, Bytes bytes)
{
    PseudoChannel ch(t);
    BundleStreamEngine pim(ch, 0, 0, bytes, false);
    XpuStreamEngine xpu(ch, banksExcludingBundle0(t), bytes * 8);
    while (!pim.done()) {
        StreamEngine *next =
            (xpu.done() || pim.nextReadyTime() <= xpu.nextReadyTime())
                ? static_cast<StreamEngine *>(&pim)
                : static_cast<StreamEngine *>(&xpu);
        next->step();
    }
    const double secs = psToSec(pim.finishTime());
    return static_cast<double>(bytes) / secs /
           t.pchBundlePeakBytesPerSec();
}

} // namespace

DramCalibration
calibrateDram(const HbmTiming &timing, Bytes bytes_per_pch)
{
    fatalIf(bytes_per_pch < 64 * kKiB,
            "calibration probe too short to reach steady state");
    DramCalibration cal;
    cal.xpuStreamEff = soloXpuEff(timing, bytes_per_pch);
    cal.pimStaggeredEff = soloPimEff(timing, bytes_per_pch, false);
    cal.pimLockstepEff = soloPimEff(timing, bytes_per_pch, true);
    cal.xpuCoEff = concurrentXpuEff(timing, bytes_per_pch);
    cal.pimCoEff = concurrentPimEff(timing, bytes_per_pch);

    panicIf(cal.xpuStreamEff > 1.0 + 1e-9 ||
                cal.pimStaggeredEff > 1.0 + 1e-9,
            "calibration exceeded provisioned bandwidth");
    return cal;
}

} // namespace duplex
