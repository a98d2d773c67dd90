/**
 * @file
 * A DRAM bank: a set of compute subarrays sharing one set of column
 * peripherals.
 *
 * Subarrays are created lazily because a full-size subarray holds
 * rowsPerSubarray * rowBits bits of functional state and most runs
 * touch only a few subarrays per bank. Operations within a bank
 * serialize (one subarray computes at a time); different banks operate
 * concurrently — that aggregation is done by the control unit.
 */

#ifndef SIMDRAM_DRAM_BANK_H
#define SIMDRAM_DRAM_BANK_H

#include <cstddef>
#include <memory>
#include <vector>

#include "dram/subarray.h"

namespace simdram
{

/** One DRAM bank containing lazily materialized subarrays. */
class Bank
{
  public:
    /** Creates a bank for @p cfg geometry. */
    explicit Bank(const DramConfig &cfg);

    /** @return Number of subarrays in this bank. */
    size_t subarrayCount() const { return slots_.size(); }

    /** @return Subarray @p idx, creating it on first use. */
    Subarray &subarray(size_t idx);

    /** @return True if subarray @p idx has been materialized. */
    bool materialized(size_t idx) const;

    /**
     * @return Serialized statistics over all materialized subarrays
     *         (latency adds — subarrays in one bank do not overlap).
     */
    DramStats serialStats() const;

    /** Clears statistics in all materialized subarrays. */
    void resetStats();

    /**
     * Installs @p injector (not owned; nullptr clears) into every
     * materialized subarray and every subarray created later.
     */
    void setFaultInjector(FaultInjector *injector);

    /**
     * @return True if no injector is installed and no materialized
     *         subarray has a TRA fault mechanism active.
     */
    bool faultFree() const;

  private:
    DramConfig cfg_;
    std::vector<std::unique_ptr<Subarray>> slots_;
    FaultInjector *injector_ = nullptr;
};

} // namespace simdram

#endif // SIMDRAM_DRAM_BANK_H
