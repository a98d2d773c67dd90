/**
 * @file
 * Tests for the transposition kernels and the transposition unit
 * (layout conversion + cost accounting).
 */

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"
#include "layout/transpose.h"
#include "layout/transposition_unit.h"
#include "logic/simulate.h"

namespace simdram
{
namespace
{

TEST(Transpose64, IsInvolution)
{
    uint64_t m[64], orig[64];
    Rng rng(1);
    for (int i = 0; i < 64; ++i)
        orig[i] = m[i] = rng.next();
    transpose64(m);
    transpose64(m);
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(m[i], orig[i]) << i;
}

TEST(Transpose64, MovesBitJOfWordIToBitIOfWordJ)
{
    // One set bit pins the orientation, which IsInvolution cannot:
    // a transpose about the anti-diagonal is an involution too.
    for (int i = 0; i < 64; ++i) {
        for (int j = 0; j < 64; ++j) {
            uint64_t m[64] = {};
            m[i] = 1ULL << j;
            transpose64(m);
            for (int w = 0; w < 64; ++w)
                ASSERT_EQ(m[w], w == j ? 1ULL << i : 0)
                    << "bit " << j << " of word " << i << ", word " << w;
        }
    }
}

TEST(ElementsToRows, MatchesNaivePacking)
{
    Rng rng(2);
    std::vector<uint64_t> elems(150);
    for (auto &v : elems)
        v = rng.next();
    const auto fast = elementsToRows(elems.data(), elems.size(), 40,
                                     192);
    const auto naive = packVertical(elems, 40);
    ASSERT_EQ(fast.size(), naive.size());
    for (size_t j = 0; j < fast.size(); ++j)
        for (size_t i = 0; i < elems.size(); ++i)
            ASSERT_EQ(fast[j].get(i), naive[j].get(i))
                << "row " << j << " lane " << i;
}

TEST(ElementsToRows, RoundTrip)
{
    Rng rng(3);
    for (size_t n : {1u, 63u, 64u, 65u, 200u}) {
        std::vector<uint64_t> elems(n);
        for (auto &v : elems)
            v = rng.next() & 0xffffffffULL;
        const auto rows =
            elementsToRows(elems.data(), n, 32, ((n + 63) / 64) * 64);
        EXPECT_EQ(rowsToElements(rows, n), elems) << "n=" << n;
    }
}

TEST(ElementsToRows, LanesBeyondElementsAreZero)
{
    std::vector<uint64_t> elems = {~0ULL, ~0ULL};
    const auto rows = elementsToRows(elems.data(), 2, 8, 128);
    for (const auto &r : rows) {
        for (size_t i = 2; i < 128; ++i)
            ASSERT_FALSE(r.get(i));
        EXPECT_TRUE(r.get(0));
        EXPECT_TRUE(r.get(1));
    }
}

TEST(ElementsToRows, TooManyElementsRejected)
{
    std::vector<uint64_t> elems(10);
    EXPECT_THROW(elementsToRows(elems.data(), 10, 8, 8), FatalError);
}

TEST(TranspositionUnit, StoreLoadRoundTrip)
{
    DramConfig cfg = DramConfig::forTesting(256, 64);
    Subarray sub(cfg);
    TranspositionUnit tu(cfg);

    Rng rng(4);
    std::vector<uint64_t> data(200);
    for (auto &v : data)
        v = rng.next() & 0xffff;
    tu.storeVertical(sub, 5, 16, data.data(), data.size());
    std::vector<uint64_t> back(data.size());
    tu.loadVerticalInto(sub, 5, 16, back.data(), back.size());
    EXPECT_EQ(back, data);
}

TEST(TranspositionUnit, CostsScaleWithRows)
{
    DramConfig cfg = DramConfig::forTesting(256, 64);
    Subarray sub(cfg);
    TranspositionUnit tu(cfg);
    std::vector<uint64_t> data(100, 7);

    tu.storeVertical(sub, 0, 8, data.data(), data.size());
    const double lat8 = tu.stats().latencyNs;
    const double pj8 = tu.stats().energyPj;
    tu.resetStats();
    tu.storeVertical(sub, 0, 16, data.data(), data.size());
    EXPECT_NEAR(tu.stats().latencyNs, 2 * lat8, 1e-9);
    EXPECT_NEAR(tu.stats().energyPj, 2 * pj8, 1e-9);
}

TEST(TranspositionUnit, AccountsIoEnergyPerBit)
{
    DramConfig cfg = DramConfig::forTesting(256, 64);
    Subarray sub(cfg);
    TranspositionUnit tu(cfg);
    std::vector<uint64_t> data(64, 1);
    tu.storeVertical(sub, 0, 8, data.data(), data.size());
    // 8 rows x 64 bits of payload + 8 act/pre pairs.
    const double expected_io = 8.0 * 64.0 * cfg.energy.eIoPjPerBit;
    const double expected_rows =
        8.0 * (cfg.actEnergyPj(1) + cfg.preEnergyPj());
    EXPECT_NEAR(tu.stats().energyPj, expected_io + expected_rows,
                1e-6);
}

TEST(TranspositionUnit, RejectsOverflow)
{
    DramConfig cfg = DramConfig::forTesting(64, 64);
    Subarray sub(cfg);
    TranspositionUnit tu(cfg);
    std::vector<uint64_t> data(100, 0);
    EXPECT_THROW(tu.storeVertical(sub, 0, 8, data.data(), 100),
                 FatalError);
}

} // namespace
} // namespace simdram
