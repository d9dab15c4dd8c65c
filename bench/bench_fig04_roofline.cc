/**
 * @file
 * Fig. 4(b) reproduction: roofline placement of the attention, FC
 * and MoE layers of Mixtral and GLaM on the GPU for batch sizes
 * 32-128 (Lin = 2048, Lout = 1024, decoding-only stage).
 *
 * The paper's observation: attention sits at Op/B ~ deggrp, MoE in
 * the low tens, both far below the GPU ridge point, yielding
 * single-digit compute utilization.
 */

#include "bench_util.hh"

#include "device/gpu.hh"
#include "workload/experts.hh"

using namespace duplex;

int
main()
{
    banner("Fig. 4(b): GPU roofline, Lin = 2048, Lout = 1024");
    const HbmTiming timing = hbm3Timing();
    const EngineSpec gpu = h100Engine(timing, hbm3Calibration());
    std::printf("GPU ridge point: %.0f Op/B, peak %.0f TFLOPS "
                "(eff. %.0f)\n",
                gpu.ridgeOpPerByte(), gpu.peakFlops / 1e12,
                gpu.effectiveFlops() / 1e12);

    Table t({"Model", "Batch", "Layer", "Op/B", "TFLOPS",
             "Util %"});
    for (const ModelConfig &model :
         {mixtralConfig(), glamConfig()}) {
        LayerCosts costs(model);
        for (int batch : {32, 64, 128}) {
            StageShape stage;
            for (int i = 0; i < batch; ++i)
                stage.decodeContexts.push_back(2048 + 512);

            // Attention (decode): per-request KV streams.
            const OpCost attn = costs.attentionDecode(stage);
            // FC: QKV + projection for the batched tokens.
            OpCost fc = costs.qkv(batch);
            fc += costs.projection(batch);
            // MoE: experts sampled with the uniform gate.
            Rng rng(7);
            ExpertSelector sel(model.numExperts, model.topK);
            const auto hist = sel.sample(rng, batch);
            OpCost moe;
            for (auto h : hist)
                moe += costs.expertFfn(h);

            for (const auto &[name, cost] :
                 std::vector<std::pair<std::string, OpCost>>{
                     {"Attention", attn},
                     {"FC", fc},
                     {"MoE", moe}}) {
                const PicoSec time = operatorTimeNoOverhead(
                    gpu, cost.flops, cost.bytes);
                const double tflops =
                    cost.flops / psToSec(time) / 1e12;
                t.startRow();
                t.cell(model.name);
                t.cell(static_cast<std::int64_t>(batch));
                t.cell(name);
                t.cell(cost.opPerByte(), 2);
                t.cell(tflops, 1);
                t.cell(100.0 * tflops * 1e12 / gpu.peakFlops, 2);
            }
        }
    }
    t.print();
    std::printf("\nPaper shape: attention Op/B ~ deggrp (4 for "
                "Mixtral GQA, 1 for GLaM MHA); MoE Op/B grows "
                "with batch but stays low; GPU utilization stays "
                "under ~11%% for MoE and ~2%% for attention.\n");
    return 0;
}
