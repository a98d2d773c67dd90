#include "dram/device.h"

#include "common/error.h"

namespace simdram
{

DramDevice::DramDevice(DramConfig cfg) : cfg_(cfg)
{
    cfg_.validate();
    banks_.reserve(cfg_.banks);
    for (size_t i = 0; i < cfg_.banks; ++i)
        banks_.emplace_back(cfg_);
}

Bank &
DramDevice::bank(size_t idx)
{
    if (idx >= banks_.size())
        panic("DramDevice::bank: index out of range");
    return banks_[idx];
}

double
DramDevice::hostTransfer(size_t bytes, DramStats &stats) const
{
    if (bytes == 0)
        return 0.0;
    const size_t bursts = (bytes + 63) / 64;
    const double latency =
        cfg_.timing.apNs() + static_cast<double>(bursts) *
        cfg_.timing.tBurst;
    stats.reads += bursts;
    stats.latencyNs += latency;
    stats.energyPj += static_cast<double>(bytes) * 8.0 *
                      cfg_.energy.eIoPjPerBit;
    return latency;
}

DramStats
DramDevice::parallelStats() const
{
    DramStats total;
    for (const auto &b : banks_)
        total.mergeParallel(b.serialStats());
    return total;
}

DramStats
DramDevice::serialStats() const
{
    DramStats total;
    for (const auto &b : banks_)
        total += b.serialStats();
    return total;
}

void
DramDevice::resetStats()
{
    for (auto &b : banks_)
        b.resetStats();
}

void
DramDevice::setFaultInjector(FaultInjector *injector)
{
    for (auto &b : banks_)
        b.setFaultInjector(injector);
}

bool
DramDevice::faultFree() const
{
    for (const auto &b : banks_)
        if (!b.faultFree())
            return false;
    return true;
}

} // namespace simdram
