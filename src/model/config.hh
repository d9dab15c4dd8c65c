/**
 * @file
 * LLM architecture configurations (Table I).
 *
 * | Model   | Param | layers | hidden | interm | heads | deggrp | Nex | top-k |
 * |---------|-------|--------|--------|--------|-------|--------|-----|-------|
 * | Mixtral | 47B   | 32     | 4096   | 14336  | 32    | 4 GQA  | 8   | 2     |
 * | GLaM    | 143B  | 32     | 4096   | 16384  | 32    | 1 MHA  | 64  | 2     |
 * | Grok1   | 314B  | 64     | 6144   | 32768  | 48    | 6 GQA  | 8   | 2     |
 * | OPT     | 66B   | 64     | 9216   | 36864  | 72    | 1 MHA  | -   | -     |
 * | Llama3  | 70B   | 80     | 8192   | 28672  | 64    | 8 GQA  | -   | -     |
 *
 * Mixtral and Grok1 are MoE in every decoder block; GLaM alternates
 * dense and MoE blocks. Gated FFNs (SiLU-style, three FC layers) are
 * used by Mixtral/Grok1/Llama3; GLaM and OPT use two FC layers.
 */

#ifndef DUPLEX_MODEL_CONFIG_HH
#define DUPLEX_MODEL_CONFIG_HH

#include <string>

#include "common/units.hh"
#include "compute/gemm.hh"

namespace duplex
{

/** Architecture shape of one LLM. */
struct ModelConfig
{
    std::string name = "model";
    int numLayers = 0;
    int hidden = 0;
    int intermediate = 0;
    int numHeads = 0;
    int degGrp = 1;       //!< heads per KV group; 1 = MHA
    int numExperts = 0;   //!< 0 = dense FFN everywhere
    int topK = 0;
    bool gatedFfn = false; //!< 3 FC layers (gate/up/down) when true
    int moePeriod = 1;    //!< every Nth block is MoE (GLaM: 2)
    int vocab = 32000;

    /** Dimension of one attention head. */
    int headDim() const { return hidden / numHeads; }

    /** Number of KV heads (GQA groups). */
    int kvHeads() const { return numHeads / degGrp; }

    /** True when block @p layer carries an MoE FFN. */
    bool isMoeLayer(int layer) const
    {
        return numExperts > 0 && layer % moePeriod == 0;
    }

    /** Number of MoE blocks in the model (the isMoeLayer count). */
    int numMoeLayers() const
    {
        return numExperts > 0 ? (numLayers + moePeriod - 1) / moePeriod
                              : 0;
    }

    /** FC layers per FFN (2 or 3). */
    int ffnFcCount() const { return gatedFfn ? 3 : 2; }

    /** Parameters of one attention block (QKV + projection). */
    double attentionParams() const;

    /** Parameters of one dense FFN or one expert. */
    double ffnParams() const;

    /** Total parameter count including embeddings. */
    double totalParams() const;

    /** Total FP16 weight bytes. */
    Bytes weightBytes() const
    {
        return static_cast<Bytes>(totalParams()) * kFp16Bytes;
    }

    /** KV-cache bytes one token occupies across all layers. */
    Bytes kvBytesPerToken() const;
};

/** Table I presets. */
ModelConfig mixtralConfig();
ModelConfig glamConfig();
ModelConfig grok1Config();
ModelConfig optConfig();
ModelConfig llama3Config();

/** Look up a preset by (case-insensitive) name; fatal if unknown. */
ModelConfig modelByName(const std::string &name);

} // namespace duplex

#endif // DUPLEX_MODEL_CONFIG_HH
