/**
 * @file
 * The memory-controller transposition unit (system integration,
 * paper section 4).
 *
 * SIMDRAM stores compute operands vertically while the CPU keeps its
 * horizontal layout; the transposition unit converts between the two
 * on the way in and out of the compute subarrays, so only data that
 * participates in in-DRAM computation pays the layout cost and the
 * CPU retains full-bandwidth horizontal access to everything else.
 *
 * Cost model per vertical store/load of an n-element, w-bit object:
 *  - channel transfer of n*w bits at the configured I/O energy and
 *    burst-pipelined latency;
 *  - one row activate/precharge per touched row (w rows per
 *    subarray segment) for the column accesses;
 *  - the transposition network itself is pipelined with the transfer
 *    and adds no serialized latency.
 */

#ifndef SIMDRAM_LAYOUT_TRANSPOSITION_UNIT_H
#define SIMDRAM_LAYOUT_TRANSPOSITION_UNIT_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/stats.h"
#include "dram/subarray.h"

namespace simdram
{

/** Converts host data to/from vertical layout with cost accounting. */
class TranspositionUnit
{
  public:
    /** @param cfg Device configuration (copied). */
    explicit TranspositionUnit(const DramConfig &cfg) : cfg_(cfg) {}

    /**
     * Stores @p n elements vertically into rows
     * [base_row, base_row + bits) of @p sub, lanes [0, n), and
     * accounts the transfer.
     */
    void storeVertical(Subarray &sub, uint32_t base_row, size_t bits,
                       const uint64_t *elems, size_t n);

    /**
     * Loads @p n elements back from vertical layout into @p out and
     * accounts the transfer.
     */
    void loadVerticalInto(const Subarray &sub, uint32_t base_row,
                          size_t bits, uint64_t *out, size_t n);

    /**
     * The data movement of storeVertical() alone, with no
     * accounting: banks of one device may transpose concurrently,
     * while account() keeps its callers' serial order (the latency
     * sum is floating point, so its order is part of the result).
     * Allocates nothing once the calling thread's row table has
     * grown to @p bits.
     */
    static void writeVertical(Subarray &sub, uint32_t base_row,
                              size_t bits, const uint64_t *elems,
                              size_t n);

    /** The data movement of loadVerticalInto() alone. */
    static void readVertical(const Subarray &sub, uint32_t base_row,
                             size_t bits, uint64_t *out, size_t n);

    /**
     * Adds the cost of moving @p rows rows of @p bits_each bits: one
     * vertical store or load of a segment (rows = element width,
     * bits_each = lanes).
     */
    void account(size_t rows, size_t bits_each);

    /** @return Accumulated transfer statistics. */
    const DramStats &stats() const { return stats_; }

    /** Clears accumulated statistics. */
    void resetStats() { stats_.reset(); }

  private:
    DramConfig cfg_;
    DramStats stats_;
};

} // namespace simdram

#endif // SIMDRAM_LAYOUT_TRANSPOSITION_UNIT_H
