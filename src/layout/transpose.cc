#include "layout/transpose.h"

#include <algorithm>
#include <type_traits>

#include "common/error.h"

namespace simdram
{

namespace
{

/**
 * Swap-network masks, indexed by log2 of the stage's swap distance j:
 * each keeps the bit positions whose index has bit j clear.
 */
constexpr uint64_t kStageMask[6] = {
    0x5555555555555555ULL, 0x3333333333333333ULL,
    0x0F0F0F0F0F0F0F0FULL, 0x00FF00FF00FF00FFULL,
    0x0000FFFF0000FFFFULL, 0x00000000FFFFFFFFULL,
};

/**
 * Transposes, in place, the 64/B independent BxB bit blocks held in
 * the B words @p m (block g is bits [g*B, g*B + B) of every word):
 * bit c of word r within a block becomes bit r of word c. Stage j
 * exchanges bit j of the word index with bit j of the bit index
 * (Hacker's Delight 7-3 in the LSB-first orientation), so log2(B)
 * stages transpose every block at once.
 */
template <unsigned B>
inline void
transposeBlocks(uint64_t *m)
{
    for (unsigned j = 1, s = 0; j < B; j <<= 1, ++s) {
        const uint64_t mask = kStageMask[s];
        for (unsigned k = 0; k < B; k = (k + j + 1) & ~j) {
            const uint64_t t = ((m[k] >> j) ^ m[k + j]) & mask;
            m[k] ^= t << j;
            m[k + j] ^= t;
        }
    }
}

/** Low-B-bit mask of one element field of width class B. */
template <unsigned B>
constexpr uint64_t kField = ~0ULL >> (64 - B);

/**
 * elementsToRowsInto for width class B (bits <= B, or B == 64):
 * each 64-element tile packs element g*B + i into word i at bit
 * g*B, so after transposeBlocks word j is tile word j of row j.
 */
template <unsigned B>
void
elementsToRowsClass(const uint64_t *elems, size_t n, size_t bits,
                    BitRow *const *rows)
{
    const size_t out_rows = std::min<size_t>(bits, 64);
    const size_t tiles = (n + 63) / 64;
    for (size_t tile = 0; tile < tiles; ++tile) {
        const size_t base = tile * 64;
        const size_t count = std::min<size_t>(64, n - base);
        // The last, partial tile packs only its count elements.
        uint64_t tail[64];
        const uint64_t *src = elems + base;
        if (count < 64) {
            std::fill(std::copy(src, src + count, tail), tail + 64, 0);
            src = tail;
        }
        uint64_t m[B];
        for (unsigned i = 0; i < B; ++i) {
            uint64_t w = 0;
            for (unsigned g = 0; g < 64 / B; ++g)
                w |= (src[g * B + i] & kField<B>) << (g * B);
            m[i] = w;
        }
        transposeBlocks<B>(m);
        for (size_t j = 0; j < out_rows; ++j)
            rows[j]->setWord(tile, m[j]);
    }
    // Zero the lanes beyond n and the bit rows beyond what a 64-bit
    // element can populate, so the rows carry exactly the transposed
    // data (matches the reference kernel, which starts from zeros).
    const size_t word_count = rows[0]->wordCount();
    for (size_t j = 0; j < bits; ++j) {
        const size_t from = j < 64 ? tiles : 0;
        for (size_t t = from; t < word_count; ++t)
            rows[j]->setWord(t, 0);
    }
}

/** rowsToElementsInto for width class B (the inverse packing). */
template <unsigned B>
void
rowsToElementsClass(const BitRow *const *rows, size_t bits,
                    uint64_t *elems, size_t n)
{
    const size_t in_rows = std::min<size_t>(bits, 64);
    const size_t tiles = (n + 63) / 64;
    for (size_t tile = 0; tile < tiles; ++tile) {
        uint64_t m[B];
        for (size_t j = 0; j < in_rows; ++j)
            m[j] = rows[j]->word(tile);
        std::fill(m + in_rows, m + B, 0);
        transposeBlocks<B>(m);
        const size_t base = tile * 64;
        const size_t count = std::min<size_t>(64, n - base);
        uint64_t tail[64];
        uint64_t *dst = count < 64 ? tail : elems + base;
        for (unsigned i = 0; i < B; ++i)
            for (unsigned g = 0; g < 64 / B; ++g)
                dst[g * B + i] = (m[i] >> (g * B)) & kField<B>;
        if (count < 64)
            std::copy(tail, tail + count, elems + base);
    }
}

/**
 * Calls @p f with the width class of @p bits as a compile-time
 * constant: the smallest of 8, 16 and 32 that holds it, else 64.
 */
template <class F>
void
withWidthClass(size_t bits, F &&f)
{
    if (bits <= 8)
        f(std::integral_constant<unsigned, 8>{});
    else if (bits <= 16)
        f(std::integral_constant<unsigned, 16>{});
    else if (bits <= 32)
        f(std::integral_constant<unsigned, 32>{});
    else
        f(std::integral_constant<unsigned, 64>{});
}

} // namespace

void
transpose64(uint64_t m[64])
{
    transposeBlocks<64>(m);
}

void
elementsToRowsInto(const uint64_t *elems, size_t n, size_t bits,
                   BitRow *const *rows)
{
    if (bits == 0)
        return;
    if (n > rows[0]->width())
        fatal("elementsToRows: more elements than lanes");
    withWidthClass(bits, [&](auto cls) {
        elementsToRowsClass<decltype(cls)::value>(elems, n, bits, rows);
    });
}

void
rowsToElementsInto(const BitRow *const *rows, size_t bits,
                   uint64_t *elems, size_t n)
{
    if (n == 0)
        return;
    if (bits > 0 && n > rows[0]->width())
        fatal("rowsToElements: more elements than lanes");
    withWidthClass(bits, [&](auto cls) {
        rowsToElementsClass<decltype(cls)::value>(rows, bits, elems, n);
    });
}

std::vector<BitRow>
elementsToRows(const uint64_t *elems, size_t n, size_t bits,
               size_t lanes)
{
    if (n > lanes)
        fatal("elementsToRows: more elements than lanes");
    std::vector<BitRow> rows(bits, BitRow(lanes));
    std::vector<BitRow *> ptrs(bits);
    for (size_t j = 0; j < bits; ++j)
        ptrs[j] = &rows[j];
    elementsToRowsInto(elems, n, bits, ptrs.data());
    return rows;
}

std::vector<uint64_t>
rowsToElements(const std::vector<BitRow> &rows, size_t n)
{
    std::vector<uint64_t> elems(n, 0);
    std::vector<const BitRow *> ptrs(rows.size());
    for (size_t j = 0; j < rows.size(); ++j)
        ptrs[j] = &rows[j];
    rowsToElementsInto(ptrs.data(), rows.size(), elems.data(), n);
    return elems;
}

} // namespace simdram
