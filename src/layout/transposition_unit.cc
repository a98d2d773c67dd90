#include "layout/transposition_unit.h"

#include <vector>

#include "common/error.h"
#include "layout/transpose.h"

namespace simdram
{

namespace
{

// Row-pointer tables, one per thread, reused across transfers.
thread_local std::vector<BitRow *> t_rows;
thread_local std::vector<const BitRow *> t_const_rows;

} // namespace

void
TranspositionUnit::storeVertical(Subarray &sub, uint32_t base_row,
                                 size_t bits, const uint64_t *elems,
                                 size_t n)
{
    writeVertical(sub, base_row, bits, elems, n);
    account(bits, n);
}

void
TranspositionUnit::loadVerticalInto(const Subarray &sub,
                                    uint32_t base_row, size_t bits,
                                    uint64_t *out, size_t n)
{
    readVertical(sub, base_row, bits, out, n);
    account(bits, n);
}

void
TranspositionUnit::writeVertical(Subarray &sub, uint32_t base_row,
                                 size_t bits, const uint64_t *elems,
                                 size_t n)
{
    if (n > sub.rowBits())
        fatal("storeVertical: element count exceeds lanes");
    // Transpose straight into the resident rows; the Into kernel
    // overwrites every word (lanes beyond n become zero), exactly as
    // poking freshly transposed rows did.
    t_rows.resize(bits);
    for (size_t j = 0; j < bits; ++j)
        t_rows[j] = &sub.pokeDataRow(base_row + j);
    elementsToRowsInto(elems, n, bits, t_rows.data());
}

void
TranspositionUnit::readVertical(const Subarray &sub, uint32_t base_row,
                                size_t bits, uint64_t *out, size_t n)
{
    t_const_rows.resize(bits);
    for (size_t j = 0; j < bits; ++j)
        t_const_rows[j] = &sub.peekData(base_row + j);
    rowsToElementsInto(t_const_rows.data(), bits, out, n);
}

void
TranspositionUnit::account(size_t rows, size_t bits_each)
{
    const DramTiming &t = cfg_.timing;
    // One ACT + column bursts + PRE per row; bursts carry 512 bits.
    const size_t bursts_per_row = (bits_each + 511) / 512;
    stats_.latencyNs +=
        static_cast<double>(rows) *
        (t.tRcd + static_cast<double>(bursts_per_row) * t.tBurst +
         t.tRp);
    stats_.activates += rows;
    stats_.precharges += rows;
    stats_.writes += rows * bursts_per_row;
    stats_.energyPj +=
        static_cast<double>(rows) *
        (cfg_.actEnergyPj(1) + cfg_.preEnergyPj());
    stats_.energyPj += static_cast<double>(rows) *
                       static_cast<double>(bits_each) *
                       cfg_.energy.eIoPjPerBit;
}

} // namespace simdram
