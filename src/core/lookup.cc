#include "core/lookup.hh"

namespace duplex
{

ExpertTimeLut::ExpertTimeLut(const EngineSpec &xpu,
                             const EngineSpec &low,
                             const OpCost &cost_one,
                             const OpCost &cost_two)
    : xpu_(xpu), low_(low)
{
    perToken_.flops = cost_two.flops - cost_one.flops;
    perToken_.bytes = cost_two.bytes - cost_one.bytes;
    base_.flops = cost_one.flops - perToken_.flops;
    base_.bytes = cost_one.bytes - perToken_.bytes;
}

OpCost
ExpertTimeLut::expertCost(std::int64_t tokens) const
{
    if (tokens <= 0)
        return {};
    OpCost c;
    c.flops = base_.flops +
              perToken_.flops * static_cast<double>(tokens);
    c.bytes = base_.bytes +
              static_cast<Bytes>(perToken_.bytes) *
                  static_cast<Bytes>(tokens);
    return c;
}

PicoSec
ExpertTimeLut::xpuTime(std::int64_t tokens) const
{
    if (tokens <= 0)
        return 0;
    const OpCost c = expertCost(tokens);
    return operatorTimeNoOverhead(xpu_, c.flops, c.bytes);
}

PicoSec
ExpertTimeLut::lowTime(std::int64_t tokens) const
{
    if (tokens <= 0)
        return 0;
    const OpCost c = expertCost(tokens);
    return operatorTimeNoOverhead(low_, c.flops, c.bytes);
}

} // namespace duplex
