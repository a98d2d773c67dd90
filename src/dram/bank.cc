#include "dram/bank.h"

#include "common/error.h"

namespace simdram
{

Bank::Bank(const DramConfig &cfg)
    : cfg_(cfg), slots_(cfg.subarraysPerBank)
{
}

Subarray &
Bank::subarray(size_t idx)
{
    if (idx >= slots_.size())
        panic("Bank::subarray: index out of range");
    if (!slots_[idx]) {
        slots_[idx] = std::make_unique<Subarray>(cfg_);
        slots_[idx]->setFaultInjector(injector_);
    }
    return *slots_[idx];
}

bool
Bank::materialized(size_t idx) const
{
    return idx < slots_.size() && slots_[idx] != nullptr;
}

DramStats
Bank::serialStats() const
{
    DramStats total;
    for (const auto &s : slots_)
        if (s)
            total += s->stats();
    return total;
}

void
Bank::resetStats()
{
    for (const auto &s : slots_)
        if (s)
            s->resetStats();
}

void
Bank::setFaultInjector(FaultInjector *injector)
{
    injector_ = injector;
    for (const auto &s : slots_)
        if (s)
            s->setFaultInjector(injector);
}

bool
Bank::faultFree() const
{
    if (injector_ != nullptr)
        return false;
    for (const auto &s : slots_)
        if (s && !s->faultFree())
            return false;
    return true;
}

} // namespace simdram
