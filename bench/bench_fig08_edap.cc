/**
 * @file
 * Fig. 8 reproduction: normalized energy-delay-area product of
 * Bank-PIM, BankGroup-PIM and Logic-PIM for an FP16 GEMM with a
 * (16384 x 4096) weight matrix, sweeping Op/B (= token count m)
 * from 1 to 32.
 */

#include "bench_util.hh"

#include "device/pim.hh"

using namespace duplex;

int
main()
{
    banner("Fig. 8: normalized EDAP by GEMM Op/B (weight 16384 x "
           "4096)");
    const HbmTiming timing = hbm3Timing();
    const DramCalibration cal = hbm3Calibration();
    const AreaModel area;
    const EnergyModel energy;

    const std::vector<PimVariant> variants = {
        PimVariant::BankPim, PimVariant::BankGroupPim,
        PimVariant::LogicPim};

    Table t({"Op/B", "Bank-PIM", "BankGroup-PIM", "Logic-PIM",
             "best"});
    for (std::int64_t m : {1, 2, 4, 8, 16, 32}) {
        std::vector<EdapResult> results;
        for (PimVariant v : variants) {
            const PimEngineDesc desc =
                pimVariantDesc(v, timing, cal, area);
            results.push_back(
                evaluateEdap(desc, GemmShape{m, 16384, 4096},
                             energy));
        }
        const auto norm = normalizeEdap(results);
        std::size_t best = 0;
        for (std::size_t i = 1; i < norm.size(); ++i)
            if (norm[i] < norm[best])
                best = i;
        t.startRow();
        t.cell(m);
        t.cell(norm[0], 2);
        t.cell(norm[1], 2);
        t.cell(norm[2], 2);
        t.cell(pimVariantName(variants[best]));
    }
    t.print();
    std::printf("\nPaper values (Fig. 8):\n"
                "  Op/B  1: Bank 0.08, BG 1.00, Logic 0.66\n"
                "  Op/B  8: Bank 0.81, BG 1.00, Logic 0.65\n"
                "  Op/B 32: Bank 1.00, BG 0.67, Logic 0.40\n"
                "Shape to match: Bank-PIM wins at low Op/B, "
                "Logic-PIM takes over around Op/B 8-16, "
                "BankGroup-PIM never wins (DRAM-die area).\n");
    return 0;
}
