/**
 * @file
 * Exact stage-pricing pin: every registered system prices a fixed
 * sequence of decode-only, mixed and prefill-only stages on one
 * instance, and a hash over the bit patterns of every StageResult
 * field must match the recorded value. The sequence runs on one
 * instance so the expert-draw RNG advance between stages is part of
 * what is pinned, and the hash covers per-class energy, which no
 * figure bench prints for every system.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <vector>

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

    void add(const StageResult &r)
    {
        add(static_cast<std::uint64_t>(r.time));
        for (const ClassSlice &s : r.byClass) {
            add(static_cast<std::uint64_t>(s.time));
            add(s.energy.dramJ);
            add(s.energy.computeJ);
        }
        add(static_cast<std::uint64_t>(r.expertTokens.size()));
        for (std::int64_t t : r.expertTokens)
            add(static_cast<std::uint64_t>(t));
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
    const char *hash;
};

/**
 * Every (system, model) pair that builds, with the hash of its whole
 * stage sequence. The split systems are single-node only, so they
 * have no Grok1 row, and the 2+6 and 6+2 splits cannot hold GLaM's
 * duplicated weights on their two-device group.
 */
const std::vector<Pin> &
pins()
{
    static const std::vector<Pin> table = {
        {"bank-pim", "Mixtral", "600875670348deca"},
        {"bank-pim", "GLaM", "f725780f952f9e80"},
        {"bank-pim", "Grok1", "d4632033fd8e7c91"},
        {"bank-pim", "Llama3", "1d539961d2a0cbbd"},
        {"bankgroup-pim", "Mixtral", "d46f830cd30f4304"},
        {"bankgroup-pim", "GLaM", "62a9f535d43a863f"},
        {"bankgroup-pim", "Grok1", "f8a7005b6f42bb29"},
        {"bankgroup-pim", "Llama3", "6fe3a1640b7c12a6"},
        {"duplex", "Mixtral", "d15c632a15612bf3"},
        {"duplex", "GLaM", "d486f4915825ead0"},
        {"duplex", "Grok1", "ce28bd3f2c8523b2"},
        {"duplex", "Llama3", "58d0f8add7af7053"},
        {"duplex-pe", "Mixtral", "c100d65eb1cf8311"},
        {"duplex-pe", "GLaM", "d4c3abdc493403c5"},
        {"duplex-pe", "Grok1", "de9ac49f2efbdb33"},
        {"duplex-pe", "Llama3", "f00e0fa18213d45e"},
        {"duplex-pe-et", "Mixtral", "d3489cdecfb1bd25"},
        {"duplex-pe-et", "GLaM", "93f2f84000b36f2b"},
        {"duplex-pe-et", "Grok1", "b57e27882bc58bc6"},
        {"duplex-pe-et", "Llama3", "f00e0fa18213d45e"},
        {"duplex-split", "Mixtral", "ac7bd16b4b04dd5d"},
        {"duplex-split", "GLaM", "ddfb638d355ba322"},
        {"duplex-split", "Llama3", "98c8adc131b1a43e"},
        {"duplex-split-2p6d", "Mixtral", "f317edf6097bcb06"},
        {"duplex-split-2p6d", "Llama3", "808d0692dc8917c5"},
        {"duplex-split-6p2d", "Mixtral", "711909bd4f156c14"},
        {"duplex-split-6p2d", "Llama3", "5fa4eed9dfbe81ca"},
        {"duplex-split-contended", "Mixtral", "ac7bd16b4b04dd5d"},
        {"duplex-split-contended", "GLaM", "ddfb638d355ba322"},
        {"duplex-split-contended", "Llama3", "98c8adc131b1a43e"},
        {"gpu", "Mixtral", "337d93b32828e722"},
        {"gpu", "GLaM", "9bd38ab7a0693e04"},
        {"gpu", "Grok1", "7ab08ce5a5f9375a"},
        {"gpu", "Llama3", "855a0ab1f1cd2e11"},
        {"gpu-2x", "Mixtral", "976f6d300d61f846"},
        {"gpu-2x", "GLaM", "5db6719aec525ad7"},
        {"gpu-2x", "Grok1", "7f66c18ad929889a"},
        {"gpu-2x", "Llama3", "4d82a4a0dee2c7d0"},
        {"hetero", "Mixtral", "0b565c843bc3ccef"},
        {"hetero", "GLaM", "44c533928970cbaa"},
        {"hetero", "Grok1", "7ce761e0c335c7c9"},
        {"hetero", "Llama3", "e38ff442fb809c7f"},
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
        BitHash hash;
        for (const StageShape &s : stages)
            hash.add(system->executeStage(s));
        EXPECT_EQ(hex(hash.value()), pin.hash);
    }
    // A newly registered system needs its rows here.
    const std::vector<std::string> ids = registeredSystems();
    EXPECT_EQ(pinned, std::set<std::string>(ids.begin(), ids.end()));
}

} // namespace
} // namespace duplex
