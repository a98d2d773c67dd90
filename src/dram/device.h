/**
 * @file
 * The top-level DRAM device: a set of banks plus the channel-level
 * cost model for host transfers.
 */

#ifndef SIMDRAM_DRAM_DEVICE_H
#define SIMDRAM_DRAM_DEVICE_H

#include <cstddef>
#include <vector>

#include "dram/bank.h"

namespace simdram
{

/**
 * A DRAM device with SIMDRAM compute support.
 *
 * Owns the banks and the configuration. Host-side transfers (used by
 * the transposition unit) are modeled at burst granularity: a 64-byte
 * burst costs one column command plus bus occupancy, with energy from
 * the per-bit I/O constant.
 */
class DramDevice
{
  public:
    /** Creates a device; @p cfg is copied and validated. */
    explicit DramDevice(DramConfig cfg);

    // Banks and subarrays hold pointers into our configuration, so the
    // device must stay put once constructed.
    DramDevice(const DramDevice &) = delete;
    DramDevice &operator=(const DramDevice &) = delete;

    /** @return The device configuration. */
    const DramConfig &config() const { return cfg_; }

    /** @return Bank @p idx. */
    Bank &bank(size_t idx);

    /** @return Number of banks. */
    size_t bankCount() const { return banks_.size(); }

    /** @return SIMD lanes per subarray row. */
    size_t lanesPerSubarray() const { return cfg_.rowBits; }

    /**
     * Accounts for a host transfer of @p bytes over the channel
     * (read or write), returning its latency in ns and adding its
     * energy to @p stats. Bursts pipeline on the bus, so latency is
     * bandwidth-dominated: bursts * tBurst, plus one row cycle.
     */
    double hostTransfer(size_t bytes, DramStats &stats) const;

    /**
     * @return Statistics over all banks with bank-level parallelism
     *         (latency = max over banks; energy/counters add).
     */
    DramStats parallelStats() const;

    /**
     * @return Statistics over all banks fully serialized (latency
     *         adds). Used by the Ambit baseline's single-bank mode.
     */
    DramStats serialStats() const;

    /** Clears statistics in every bank. */
    void resetStats();

    /**
     * Installs @p injector (not owned; nullptr clears) into every
     * bank, covering both already-materialized and future subarrays.
     */
    void setFaultInjector(FaultInjector *injector);

    /** @return True if every bank is Bank::faultFree(). */
    bool faultFree() const;

  private:
    DramConfig cfg_;
    std::vector<Bank> banks_;
};

} // namespace simdram

#endif // SIMDRAM_DRAM_DEVICE_H
