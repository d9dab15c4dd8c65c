/**
 * @file
 * Section VII-E reproduction: the area budget of one Logic-PIM
 * stack and the prior-work comparison.
 */

#include "bench_util.hh"

#include "area/area.hh"
#include "device/pim.hh"

using namespace duplex;

int
main()
{
    banner("Section VII-E: Logic-PIM area overhead per stack");
    const AreaModel area;

    Table t({"Component", "mm^2", "paper mm^2"});
    const AreaReport logic = area.logicPim();
    t.startRow();
    t.cell("32 GEMM modules (512 MACs + 8 KB each)");
    t.cell(logic.computeMm2, 2);
    t.cell("3.02");
    t.startRow();
    t.cell("2 x 1 MB staging buffers");
    t.cell(logic.bufferMm2, 2);
    t.cell("2.26");
    t.startRow();
    t.cell("Softmax unit (incl. 128 KB SRAM)");
    t.cell(logic.softmaxMm2, 2);
    t.cell("1.64");
    t.startRow();
    t.cell("Added TSVs (22 um pitch, 4x count)");
    t.cell(logic.tsvMm2, 2);
    t.cell("10.89");
    t.startRow();
    t.cell("Total");
    t.cell(logic.totalMm2(), 2);
    t.cell("17.80");
    t.print();

    std::printf("\nLogic die fraction: %.2f%% of 121 mm^2 "
                "(paper: 14.71%%)\n",
                100.0 * area.logicPimDieFraction());
    std::printf("Logic-PIM peak per stack: %.1f TFLOPS (paper: "
                "21.3)\n",
                area.logicPimPeakFlops() / 1e12);

    banner("Prior-work variants (added silicon per stack)");
    const HbmTiming timing = hbm3Timing();
    const DramCalibration cal = hbm3Calibration();
    Table v({"Variant", "compute", "buffers", "softmax", "TSV",
             "total mm^2", "die %"});
    for (PimVariant kind :
         {PimVariant::LogicPim, PimVariant::BankPim,
          PimVariant::BankGroupPim}) {
        AreaReport r;
        switch (kind) {
          case PimVariant::LogicPim:
            r = area.logicPim();
            break;
          case PimVariant::BankPim:
            r = area.bankPim(
                bankPimEngine(timing, cal, 1).peakFlops);
            break;
          case PimVariant::BankGroupPim:
            r = area.bankGroupPim();
            break;
        }
        v.startRow();
        v.cell(pimVariantName(kind));
        v.cell(r.computeMm2, 2);
        v.cell(r.bufferMm2, 2);
        v.cell(r.softmaxMm2, 2);
        v.cell(r.tsvMm2, 2);
        v.cell(r.totalMm2(), 2);
        v.cell(100.0 * r.totalMm2() / area.params().logicDieMm2, 1);
    }
    v.print();
    std::printf("\nPaper shape: prior in-DRAM PIM overheads run "
                "20-27%% of the die; Logic-PIM stays under 15%% "
                "of the logic die.\n");
    return 0;
}
