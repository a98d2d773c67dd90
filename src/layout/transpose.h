/**
 * @file
 * Bit-matrix transposition between horizontal (element-per-word) and
 * vertical (bit-per-row) layouts.
 *
 * This is the data-movement kernel inside SIMDRAM's transposition
 * unit: converting a cache line of horizontal elements into vertical
 * bit slices and back. The implementation works on tiles of 64
 * elements (one BitRow word per bit row) and is classed by element
 * width: each call picks B = 8, 16, 32 or 64 (the smallest that holds
 * `bits`), packs the tile's elements into B words as 64/B side-by-side
 * BxB bit blocks, and transposes all of them at once with the log2(B)
 * stages of the classic recursive swap network a hardware
 * transposition unit would implement with muxes. An 8-bit object
 * therefore pays for 8 bit rows, not 64. The kernel keeps only stack
 * state, so concurrent calls are safe.
 *
 * The Into variants operate through caller-provided row pointers so
 * the transposition unit can convert straight into (or out of) the
 * subarray's resident rows without materializing a std::vector<BitRow>
 * per transfer. The vector-returning functions are thin wrappers.
 * Semantics are defined by refkernel::elementsToRows /
 * refkernel::rowsToElements in common/kernels_ref.h.
 */

#ifndef SIMDRAM_LAYOUT_TRANSPOSE_H
#define SIMDRAM_LAYOUT_TRANSPOSE_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/bitrow.h"

namespace simdram
{

/**
 * Transposes a 64x64 bit matrix in place.
 *
 * @param m 64 words; bit j of word i becomes bit i of word j.
 */
void transpose64(uint64_t m[64]);

/**
 * Converts @p n horizontal elements into @p bits vertical rows
 * written through @p rows (an array of @p bits row pointers, each of
 * identical width >= @p n). Every word of every target row is
 * written: lanes beyond @p n and bit rows beyond 64 become zero.
 *
 * Row j holds bit j of every element: rows[j]->get(i) == bit j of
 * elems[i].
 */
void elementsToRowsInto(const uint64_t *elems, size_t n, size_t bits,
                        BitRow *const *rows);

/**
 * Converts @p bits vertical rows read through @p rows back into @p n
 * horizontal elements (bits above @p bits or above 64 read as zero).
 */
void rowsToElementsInto(const BitRow *const *rows, size_t bits,
                        uint64_t *elems, size_t n);

/**
 * Converts @p n horizontal elements into @p bits vertical rows of
 * width @p lanes (n <= lanes; remaining lanes are zero).
 */
std::vector<BitRow> elementsToRows(const uint64_t *elems, size_t n,
                                   size_t bits, size_t lanes);

/**
 * Converts vertical rows back into @p n horizontal elements
 * (inverse of elementsToRows; bits above rows.size() read as zero).
 */
std::vector<uint64_t> rowsToElements(const std::vector<BitRow> &rows,
                                     size_t n);

} // namespace simdram

#endif // SIMDRAM_LAYOUT_TRANSPOSE_H
