#include "device/device.hh"

namespace duplex
{

DeviceTiming
engineRun(const EngineSpec &engine, DramPath path, ComputeClass cls,
          const EnergyModel &energy, const OpCost &cost)
{
    DeviceTiming t;
    if (cost.flops <= 0.0 && cost.bytes == 0)
        return t;
    t.time = operatorTime(engine, cost.flops, cost.bytes);
    t.energy.dramJ = energy.dramEnergyJ(path, cost.bytes);
    t.energy.computeJ = energy.computeEnergyJ(cls, cost.flops);
    return t;
}

} // namespace duplex
