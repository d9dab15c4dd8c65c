/**
 * @file
 * Stage-pricing pins: every registered system prices a fixed
 * sequence of decode-only, mixed and prefill-only stages on one
 * instance, and two hashes over the bit patterns of the StageResults
 * must match the recorded values. The sequence runs on one instance
 * so the expert-draw RNG advance between stages is part of what is
 * pinned.
 *
 * The time hash covers the exact part of a result: the stage time,
 * every class time and the expert tokens. The energy hash covers
 * every class's dramJ and computeJ, which no figure bench prints for
 * every system; the multiplied layer schedule agrees with per-layer
 * energy sums only to within 1e-12 relative, so a change to the
 * schedule's float arithmetic moves this hash and not the time hash.
 * The reference test checks that agreement against
 * executeStageReference.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "sim/presets.hh"
#include "sim/registry.hh"

namespace duplex
{
namespace
{

/** FNV-1a over 64-bit words. */
class BitHash
{
  public:
    void add(std::uint64_t word)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (word >> (8 * i)) & 0xff;
            h_ *= 0x100000001b3ull;
        }
    }

    void add(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof(bits));
        add(bits);
    }

    /** The exact fields: times and expert tokens. */
    void addTimes(const StageResult &r)
    {
        add(static_cast<std::uint64_t>(r.time));
        for (const ClassSlice &s : r.byClass)
            add(static_cast<std::uint64_t>(s.time));
        add(static_cast<std::uint64_t>(r.expertTokens.size()));
        for (std::int64_t t : r.expertTokens)
            add(static_cast<std::uint64_t>(t));
    }

    /** The per-class energies. */
    void addEnergy(const StageResult &r)
    {
        for (const ClassSlice &s : r.byClass) {
            add(s.energy.dramJ);
            add(s.energy.computeJ);
        }
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

StageShape
shape(std::vector<std::int64_t> decode, std::vector<std::int64_t> prefill)
{
    StageShape s;
    s.decodeContexts = std::move(decode);
    s.prefillLengths = std::move(prefill);
    return s;
}

/** Decode-only, mixed and prefill-only stages, in a fixed order. */
std::vector<StageShape>
stageSequence()
{
    std::vector<std::int64_t> decode32;
    for (int i = 0; i < 32; ++i)
        decode32.push_back(200 + 37 * i);
    std::vector<std::int64_t> decode7;
    for (int i = 0; i < 7; ++i)
        decode7.push_back(1500 + 211 * i);
    std::vector<std::int64_t> decode96;
    for (int i = 0; i < 96; ++i)
        decode96.push_back(64 + 13 * i);
    return {shape(decode32, {}),
            shape(decode7, {512, 96, 1024}),
            shape({}, {2048, 300}),
            shape(decode96, {}),
            shape(decode32, {128})};
}

std::string
hex(std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

ModelConfig
modelNamed(const std::string &name)
{
    for (const ModelConfig &m :
         {mixtralConfig(), glamConfig(), grok1Config(), llama3Config()})
        if (m.name == name)
            return m;
    ADD_FAILURE() << "no model " << name;
    return mixtralConfig();
}

struct Pin
{
    const char *id;
    const char *model;
    const char *timeHash;
    const char *energyHash;
};

/**
 * Every (system, model) pair that builds, with the time and energy
 * hashes of its whole stage sequence. The split systems are
 * single-node only, so they have no Grok1 row, and the 2+6 and 6+2
 * splits cannot hold GLaM's duplicated weights on their two-device
 * group.
 */
const std::vector<Pin> &
pins()
{
    static const std::vector<Pin> table = {
        {"bank-pim", "Mixtral", "2e954f19c19c70cd",
         "666ffb2877845c35"},
        {"bank-pim", "GLaM", "bfd479dca4824754",
         "710488958c9f1360"},
        {"bank-pim", "Grok1", "64a085ce420ff905",
         "93213bdee9fb5638"},
        {"bank-pim", "Llama3", "36a87abf3d49c358",
         "482ab193cb75439c"},
        {"bankgroup-pim", "Mixtral", "074ee97284d29490",
         "774f862c6c4daadc"},
        {"bankgroup-pim", "GLaM", "26c6f3d4b9054cda",
         "2f4b7b8e29673076"},
        {"bankgroup-pim", "Grok1", "fb171916f21bde09",
         "ff89223084b4d78b"},
        {"bankgroup-pim", "Llama3", "f20eae159e15384b",
         "9811586bef61cd37"},
        {"duplex", "Mixtral", "0ffe04a89b8c0084",
         "06e409fb658ba70d"},
        {"duplex", "GLaM", "835158378930cc6f",
         "96a7dcfa497f786c"},
        {"duplex", "Grok1", "9121286b2b05946a",
         "ec8fcec89eab1176"},
        {"duplex", "Llama3", "4151028543542680",
         "df63abcb4842dcbf"},
        {"duplex-pe", "Mixtral", "2d3376c5e70722a1",
         "ca8d4a258dc932c2"},
        {"duplex-pe", "GLaM", "d9a05a895df462e9",
         "3f61a17bb1eb7007"},
        {"duplex-pe", "Grok1", "6b48bf80e12c582f",
         "1a7fcb559a77652b"},
        {"duplex-pe", "Llama3", "f20eae159e15384b",
         "3a2a22f09c517492"},
        {"duplex-pe-et", "Mixtral", "074ee97284d29490",
         "cee0dd3871b08bff"},
        {"duplex-pe-et", "GLaM", "26c6f3d4b9054cda",
         "1cc0757c30bbd886"},
        {"duplex-pe-et", "Grok1", "fb171916f21bde09",
         "01db9fb6674e4ffc"},
        {"duplex-pe-et", "Llama3", "f20eae159e15384b",
         "3a2a22f09c517492"},
        {"duplex-split", "Mixtral", "525e21cebad46d04",
         "e787941a7c9f52de"},
        {"duplex-split", "GLaM", "64a3c40f59c911f7",
         "cec690462ea56aed"},
        {"duplex-split", "Llama3", "e3b99679f97a964c",
         "70cb6bf26c4c8def"},
        {"duplex-split-2p6d", "Mixtral", "2fc411464e4f32c5",
         "baaa0b64f9e96b7d"},
        {"duplex-split-2p6d", "Llama3", "07bdaf1431dfb7be",
         "cc4a0269621843c3"},
        {"duplex-split-6p2d", "Mixtral", "5b53c0529b99dfe5",
         "f4d35da8d883c1fd"},
        {"duplex-split-6p2d", "Llama3", "545d214a1423a38c",
         "892cdc18dd563e45"},
        {"duplex-split-contended", "Mixtral", "525e21cebad46d04",
         "e787941a7c9f52de"},
        {"duplex-split-contended", "GLaM", "64a3c40f59c911f7",
         "cec690462ea56aed"},
        {"duplex-split-contended", "Llama3", "e3b99679f97a964c",
         "70cb6bf26c4c8def"},
        {"gpu", "Mixtral", "002ed9727980ab53",
         "51fd3096d035cbf8"},
        {"gpu", "GLaM", "e086581a550944b4",
         "438e42903212803f"},
        {"gpu", "Grok1", "3126595b20f59bf0",
         "40a1189fd2000658"},
        {"gpu", "Llama3", "a2e3a49d71acb6cd",
         "5c0224085d32371d"},
        {"gpu-2x", "Mixtral", "cefe5255fdcb8dfa",
         "2bd433d144d55dd5"},
        {"gpu-2x", "GLaM", "c5a1acc6ab6e92cd",
         "0cb813fc7f9bea67"},
        {"gpu-2x", "Grok1", "731cf9e0a44a0f24",
         "0d062e5a07e1e0f8"},
        {"gpu-2x", "Llama3", "674dc72f283c1f40",
         "5c0224085d32371d"},
        {"hetero", "Mixtral", "0934c240638fc6d9",
         "06c16dfdabf9cb10"},
        {"hetero", "GLaM", "f2308ff3dc6310a2",
         "3c1dd329903492b7"},
        {"hetero", "Grok1", "d385d0a06310d8d2",
         "2dc064a09eef5dc9"},
        {"hetero", "Llama3", "c4cc75a700410512",
         "3a2a22f09c517492"},
    };
    return table;
}

TEST(StagePricing, EveryRegisteredSystemPricesBitIdentically)
{
    const std::vector<StageShape> stages = stageSequence();
    std::set<std::string> pinned;
    for (const Pin &pin : pins()) {
        SCOPED_TRACE(std::string(pin.id) + " / " + pin.model);
        pinned.insert(pin.id);
        const std::unique_ptr<ServingSystem> system =
            makeSystem(pin.id, modelNamed(pin.model));
        BitHash times;
        BitHash energy;
        for (const StageShape &s : stages) {
            const StageResult r = system->executeStage(s);
            times.addTimes(r);
            energy.addEnergy(r);
        }
        EXPECT_EQ(hex(times.value()), pin.timeHash);
        EXPECT_EQ(hex(energy.value()), pin.energyHash);
    }
    // A newly registered system needs its rows here.
    const std::vector<std::string> ids = registeredSystems();
    EXPECT_EQ(pinned, std::set<std::string>(ids.begin(), ids.end()));
}

/**
 * The fixed sequence, then @p count seeded random decode-only, mixed
 * and prefill-only stages.
 */
std::vector<StageShape>
randomStages(int count)
{
    std::vector<StageShape> stages = stageSequence();
    Rng rng(20240901);
    for (int i = 0; i < count; ++i) {
        const std::int64_t kind = rng.uniformInt(0, 2);
        std::vector<std::int64_t> decode;
        std::vector<std::int64_t> prefill;
        if (kind != 2)
            for (std::int64_t n = rng.uniformInt(1, 96); n > 0; --n)
                decode.push_back(rng.uniformInt(1, 4096));
        if (kind != 0)
            for (std::int64_t n = rng.uniformInt(1, 3); n > 0; --n)
                prefill.push_back(rng.uniformInt(1, 768));
        stages.push_back(shape(std::move(decode), std::move(prefill)));
    }
    return stages;
}

/** Relative distance between two energies (0 when both are 0). */
double
relativeDrift(double a, double b)
{
    const double scale = std::max(std::abs(a), std::abs(b));
    return scale == 0.0 ? 0.0 : std::abs(a - b) / scale;
}

/**
 * Run @p stages through two same-seed instances built from @p cfg,
 * one by executeStage and one by executeStageReference. Times and
 * expert tokens must be equal, energies within a relative 1e-12.
 * Returns the worst relative energy drift.
 */
template <class System, class Config>
double
expectMatchesReference(const Config &cfg,
                       const std::vector<StageShape> &stages)
{
    System fast(cfg);
    System reference(cfg);
    double worst = 0.0;
    for (std::size_t i = 0; i < stages.size(); ++i) {
        SCOPED_TRACE("stage " + std::to_string(i));
        const StageResult a = fast.executeStage(stages[i]);
        const StageResult b = reference.executeStageReference(stages[i]);
        EXPECT_EQ(a.time, b.time);
        EXPECT_EQ(a.expertTokens, b.expertTokens);
        for (int c = 0; c < kNumLayerClasses; ++c) {
            const ClassSlice &x = a.byClass[c];
            const ClassSlice &y = b.byClass[c];
            EXPECT_EQ(x.time, y.time) << "class " << c;
            const double drift =
                std::max(relativeDrift(x.energy.dramJ, y.energy.dramJ),
                         relativeDrift(x.energy.computeJ,
                                       y.energy.computeJ));
            EXPECT_LE(drift, 1e-12) << "class " << c;
            worst = std::max(worst, drift);
        }
    }
    return worst;
}

TEST(StagePricing, MultipliedPricingMatchesPerLayerReference)
{
    const std::vector<StageShape> stages = randomStages(200);
    double worst = 0.0;
    for (const char *model : {"Mixtral", "GLaM", "Grok1", "Llama3"}) {
        const ModelConfig m = modelNamed(model);
        for (const ClusterPreset &preset : clusterPresets()) {
            SCOPED_TRACE(std::string(preset.id) + " / " + model);
            worst = std::max(worst, expectMatchesReference<Cluster>(
                                        makeClusterConfig(preset.id, m),
                                        stages));
        }
        SCOPED_TRACE(std::string("hetero / ") + model);
        worst = std::max(worst, expectMatchesReference<HeteroCluster>(
                                    makeHeteroConfig(m), stages));
    }
    std::printf("worst relative energy drift %.3g\n", worst);
}

} // namespace
} // namespace duplex
