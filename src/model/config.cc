#include "model/config.hh"

#include <algorithm>
#include <cctype>

#include "common/log.hh"

namespace duplex
{

double
ModelConfig::attentionParams() const
{
    const double h = hidden;
    const double kv = static_cast<double>(kvHeads()) * headDim();
    // Q and output projections are hidden x hidden; K and V are
    // hidden x (kvHeads * headDim), shrunk by GQA.
    return h * h + 2.0 * h * kv + h * h;
}

double
ModelConfig::ffnParams() const
{
    return static_cast<double>(ffnFcCount()) * hidden *
           static_cast<double>(intermediate);
}

double
ModelConfig::totalParams() const
{
    double params = 0.0;
    for (int l = 0; l < numLayers; ++l) {
        params += attentionParams();
        if (isMoeLayer(l)) {
            params += static_cast<double>(numExperts) * ffnParams();
            params += static_cast<double>(hidden) * numExperts; // gate
        } else {
            params += ffnParams();
        }
    }
    // Token embedding + LM head (untied).
    params += 2.0 * static_cast<double>(vocab) * hidden;
    return params;
}

Bytes
ModelConfig::kvBytesPerToken() const
{
    return static_cast<Bytes>(numLayers) * 2 *
           static_cast<Bytes>(kvHeads()) * headDim() * kFp16Bytes;
}

ModelConfig
mixtralConfig()
{
    ModelConfig m;
    m.name = "Mixtral";
    m.numLayers = 32;
    m.hidden = 4096;
    m.intermediate = 14336;
    m.numHeads = 32;
    m.degGrp = 4;
    m.numExperts = 8;
    m.topK = 2;
    m.gatedFfn = true;
    m.moePeriod = 1;
    m.vocab = 32000;
    return m;
}

ModelConfig
glamConfig()
{
    ModelConfig m;
    m.name = "GLaM";
    m.numLayers = 32;
    m.hidden = 4096;
    m.intermediate = 16384;
    m.numHeads = 32;
    m.degGrp = 1;
    m.numExperts = 64;
    m.topK = 2;
    m.gatedFfn = false;
    m.moePeriod = 2;
    m.vocab = 32000;
    return m;
}

ModelConfig
grok1Config()
{
    ModelConfig m;
    m.name = "Grok1";
    m.numLayers = 64;
    m.hidden = 6144;
    m.intermediate = 32768;
    m.numHeads = 48;
    m.degGrp = 6;
    m.numExperts = 8;
    m.topK = 2;
    m.gatedFfn = true;
    m.moePeriod = 1;
    m.vocab = 32000;
    return m;
}

ModelConfig
optConfig()
{
    ModelConfig m;
    m.name = "OPT";
    m.numLayers = 64;
    m.hidden = 9216;
    m.intermediate = 36864;
    m.numHeads = 72;
    m.degGrp = 1;
    m.numExperts = 0;
    m.topK = 0;
    m.gatedFfn = false;
    m.vocab = 50272;
    return m;
}

ModelConfig
llama3Config()
{
    ModelConfig m;
    m.name = "Llama3";
    m.numLayers = 80;
    m.hidden = 8192;
    m.intermediate = 28672;
    m.numHeads = 64;
    m.degGrp = 8;
    m.numExperts = 0;
    m.topK = 0;
    m.gatedFfn = true;
    m.vocab = 128256;
    return m;
}

ModelConfig
modelByName(const std::string &name)
{
    std::string key = name;
    std::transform(key.begin(), key.end(), key.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    if (key == "mixtral")
        return mixtralConfig();
    if (key == "glam")
        return glamConfig();
    if (key == "grok1" || key == "grok")
        return grok1Config();
    if (key == "opt")
        return optConfig();
    if (key == "llama3" || key == "llama")
        return llama3Config();
    fatal("unknown model: " + name);
}

} // namespace duplex
