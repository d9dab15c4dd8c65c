#include "workload/experts.hh"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "common/log.hh"

namespace duplex
{

namespace
{

// Uniform top-2 kernels. Each token draws a = next() % (N-1) and
// b = next() % N and selects experts a and (b == a ? N-1 : b):
// Floyd's algorithm unrolled, the same values as
// uniformInt(0, N-2) and uniformInt(0, N-1) in sampleOneToken, so
// the kernels consume the identical stream and only count
// differently. With N a compile-time constant both remainders
// become multiplies. The generator is copied into a local and
// written back at the end: the int64_t histogram stores could
// otherwise alias its uint64_t state and force it through memory
// on every token.

/** Pair cells are 32-bit, so fold at most this many tokens each. */
constexpr std::int64_t kPairBlockTokens = std::int64_t{1} << 31;

/**
 * Small N: one increment per token into the (N-1) x N table of
 * (a, b) draws, folded into @p hist per block. No tie branch and
 * no store-forwarding chain between two increments into N bins.
 */
template <int N>
void
top2PairCells(Rng &rng, std::int64_t tokens, std::int64_t *hist)
{
    Rng local = rng;
    std::uint32_t cells[(N - 1) * N];
    while (tokens > 0) {
        const std::int64_t block = std::min(tokens, kPairBlockTokens);
        std::fill(std::begin(cells), std::end(cells), 0u);
        for (std::int64_t t = 0; t < block; ++t) {
            const std::uint64_t a = local.next() % (N - 1);
            const std::uint64_t b = local.next() % N;
            ++cells[a * N + b];
        }
        for (int a = 0; a < N - 1; ++a) {
            for (int b = 0; b < N; ++b) {
                const std::uint32_t c = cells[a * N + b];
                hist[a] += c;
                hist[b == a ? N - 1 : b] += c;
            }
        }
        tokens -= block;
    }
    rng = local;
}

/**
 * Large N (GLaM's 64): folding the (N-1) x N table would cost more
 * than it saves at decode batch sizes, so count straight into
 * @p hist.
 */
template <int N>
void
top2Direct(Rng &rng, std::int64_t tokens, std::int64_t *hist)
{
    Rng local = rng;
    for (std::int64_t t = 0; t < tokens; ++t) {
        const std::uint64_t a = local.next() % (N - 1);
        const std::uint64_t b = local.next() % N;
        ++hist[a];
        ++hist[b == a ? N - 1 : b];
    }
    rng = local;
}

} // namespace

ExpertSelector::ExpertSelector(int num_experts, int top_k,
                               GatePolicy policy, double zipf_s)
    : numExperts_(num_experts), topK_(top_k), policy_(policy)
{
    fatalIf(num_experts <= 0, "ExpertSelector: need experts");
    fatalIf(top_k <= 0 || top_k > num_experts,
            "ExpertSelector: need 0 < topK <= numExperts");
    if (policy_ == GatePolicy::Zipf) {
        cumWeights_.resize(numExperts_);
        double total = 0.0;
        for (int i = 0; i < numExperts_; ++i) {
            total += 1.0 / std::pow(static_cast<double>(i + 1),
                                    zipf_s);
            cumWeights_[i] = total;
        }
        for (auto &w : cumWeights_)
            w /= total;
    }
}

void
ExpertSelector::sampleOneToken(Rng &rng,
                               std::vector<std::int64_t> &hist) const
{
    if (policy_ == GatePolicy::Uniform) {
        if (topK_ == 2) {
            // Floyd's algorithm unrolled for the paper models'
            // top-2 gate: identical draws to chooseDistinct(n, 2).
            const int t1 = static_cast<int>(
                rng.uniformInt(0, numExperts_ - 2));
            const int t2 = static_cast<int>(
                rng.uniformInt(0, numExperts_ - 1));
            ++hist[t1];
            ++hist[t2 == t1 ? numExperts_ - 1 : t2];
        } else if (topK_ <= 8) {
            // Stack buffer, no allocation per token.
            int chosen[8];
            rng.chooseDistinctInto(numExperts_, topK_, chosen);
            for (int i = 0; i < topK_; ++i)
                ++hist[chosen[i]];
        } else {
            for (int e : rng.chooseDistinct(numExperts_, topK_))
                ++hist[e];
        }
        return;
    }
    // Zipf: rejection-sample distinct experts by CDF inversion.
    int chosen[8];
    panicIf(topK_ > 8, "topK > 8 unsupported for Zipf gate");
    int found = 0;
    while (found < topK_) {
        const double u = rng.uniform();
        // First expert whose CDF reaches u, else the last one.
        const int e = static_cast<int>(
            std::lower_bound(cumWeights_.begin(),
                             cumWeights_.end() - 1, u) -
            cumWeights_.begin());
        bool dup = false;
        for (int i = 0; i < found; ++i)
            if (chosen[i] == e)
                dup = true;
        if (!dup)
            chosen[found++] = e;
    }
    for (int i = 0; i < found; ++i)
        ++hist[chosen[i]];
}

std::vector<std::int64_t>
ExpertSelector::sample(Rng &rng, std::int64_t tokens) const
{
    std::vector<std::int64_t> hist;
    sampleInto(rng, tokens, hist);
    return hist;
}

void
ExpertSelector::sampleInto(Rng &rng, std::int64_t tokens,
                           std::vector<std::int64_t> &hist) const
{
    hist.assign(numExperts_, 0);
    if (policy_ == GatePolicy::Uniform && topK_ == 2) {
        // The paper models all gate top-2 over 8 or 64 experts.
        std::int64_t *h = hist.data();
        if (numExperts_ == 8) {
            top2PairCells<8>(rng, tokens, h);
            return;
        }
        if (numExperts_ == 64) {
            top2Direct<64>(rng, tokens, h);
            return;
        }
        const int n = numExperts_;
        for (std::int64_t t = 0; t < tokens; ++t) {
            const int t1 =
                static_cast<int>(rng.uniformInt(0, n - 2));
            const int t2 =
                static_cast<int>(rng.uniformInt(0, n - 1));
            ++h[t1];
            ++h[t2 == t1 ? n - 1 : t2];
        }
        return;
    }
    for (std::int64_t t = 0; t < tokens; ++t)
        sampleOneToken(rng, hist);
}

std::vector<std::int64_t>
ExpertSelector::sampleReference(Rng &rng, std::int64_t tokens) const
{
    std::vector<std::int64_t> hist(numExperts_, 0);
    for (std::int64_t t = 0; t < tokens; ++t)
        sampleOneToken(rng, hist);
    return hist;
}

} // namespace duplex
