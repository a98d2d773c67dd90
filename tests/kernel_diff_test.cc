/**
 * @file
 * Differential tests: every vectorized / fused kernel checked
 * bit-exact against the retained bit-at-a-time reference
 * implementations (common/kernels_ref.h) over randomized widths,
 * including non-multiple-of-64 and zero-width edge rows, plus the
 * batched ReplayPlan path checked against the seed ControlUnit path
 * at the subarray level.
 */

#include <gtest/gtest.h>

#include <vector>

#include "bitrow_testutil.h"
#include "common/bitrow.h"
#include "common/kernels_ref.h"
#include "common/rng.h"
#include "dram/subarray.h"
#include "exec/control_unit.h"
#include "exec/replay_plan.h"
#include "layout/transpose.h"

namespace simdram
{
namespace
{

using testutil::paddingClear;
using testutil::randomRow;

/** Widths covering word boundaries, padding, and degenerate rows. */
const size_t kWidths[] = {0,   1,   5,   63,  64,  65, 127,
                          128, 130, 192, 255, 320, 1000};

TEST(KernelDiff, Majority3MatchesReference)
{
    Rng rng(0xd1f);
    for (size_t w : kWidths) {
        const BitRow a = randomRow(w, rng);
        const BitRow b = randomRow(w, rng);
        const BitRow c = randomRow(w, rng);
        const BitRow expect = refkernel::majority3(a, b, c);
        EXPECT_EQ(BitRow::majority3(a, b, c), expect) << "w=" << w;
        BitRow out;
        BitRow::majority3Into(out, a, b, c);
        EXPECT_EQ(out, expect) << "w=" << w;
        EXPECT_TRUE(paddingClear(out)) << "w=" << w;
        // Aliasing the output onto an input is element-wise safe.
        BitRow alias = a;
        BitRow::majority3Into(alias, alias, b, c);
        EXPECT_EQ(alias, expect) << "w=" << w;
    }
}

/**
 * The compiled replay's raw-word TRA kernel, with every combination
 * of negated operands, written back through assignWords (which
 * clears the padding the negations set).
 */
TEST(KernelDiff, MaskedMajorityWordsMatchReference)
{
    Rng rng(0x3a9);
    for (size_t w : kWidths) {
        if (w == 0)
            continue;
        const BitRow a = randomRow(w, rng);
        const BitRow b = randomRow(w, rng);
        const BitRow c = randomRow(w, rng);
        for (unsigned neg = 0; neg < 16; ++neg) {
            auto pick = [&](const BitRow &r, unsigned bit) {
                return (neg >> bit) & 1 ? ~r : r;
            };
            const BitRow expect = refkernel::majority3(
                pick(a, 0), pick(b, 1), pick(c, 2));
            auto mask = [&](unsigned bit) {
                return (neg >> bit) & 1 ? ~0ULL : 0ULL;
            };
            std::vector<uint64_t> words(a.wordCount());
            BitRow::majority3Words(words.data(), a.data(), mask(0),
                                   b.data(), mask(1), c.data(),
                                   mask(2), words.size());
            BitRow out(w);
            out.assignWords(words.data(), (neg >> 3) & 1);
            EXPECT_EQ(out, (neg >> 3) & 1 ? ~expect : expect)
                << "w=" << w << " neg=" << neg;
            EXPECT_TRUE(paddingClear(out)) << "w=" << w;
        }
    }
}

TEST(KernelDiff, SelectMatchesReference)
{
    Rng rng(0x5e1);
    for (size_t w : kWidths) {
        const BitRow sel = randomRow(w, rng);
        const BitRow t = randomRow(w, rng);
        const BitRow f = randomRow(w, rng);
        const BitRow expect = refkernel::select(sel, t, f);
        EXPECT_EQ(BitRow::select(sel, t, f), expect) << "w=" << w;
        BitRow out;
        BitRow::selectInto(out, sel, t, f);
        EXPECT_EQ(out, expect) << "w=" << w;
        EXPECT_TRUE(paddingClear(out)) << "w=" << w;
    }
}

TEST(KernelDiff, NotAndNotMatchReference)
{
    Rng rng(0xa2d);
    for (size_t w : kWidths) {
        const BitRow a = randomRow(w, rng);
        const BitRow b = randomRow(w, rng);

        BitRow not_a;
        not_a.assignNot(a);
        EXPECT_EQ(not_a, refkernel::bitNot(a)) << "w=" << w;
        EXPECT_EQ(~a, refkernel::bitNot(a)) << "w=" << w;
        EXPECT_TRUE(paddingClear(not_a)) << "w=" << w;

        BitRow andnot;
        BitRow::andNotInto(andnot, a, b);
        EXPECT_EQ(andnot, refkernel::andNot(a, b)) << "w=" << w;
        EXPECT_TRUE(paddingClear(andnot)) << "w=" << w;
    }
}

TEST(KernelDiff, BitwiseOperatorsMatchReference)
{
    Rng rng(0xb0b);
    for (size_t w : kWidths) {
        const BitRow a = randomRow(w, rng);
        const BitRow b = randomRow(w, rng);
        BitRow expect_and(w), expect_or(w), expect_xor(w);
        for (size_t i = 0; i < w; ++i) {
            expect_and.set(i, a.get(i) && b.get(i));
            expect_or.set(i, a.get(i) || b.get(i));
            expect_xor.set(i, a.get(i) != b.get(i));
        }
        EXPECT_EQ(a & b, expect_and) << "w=" << w;
        EXPECT_EQ(a | b, expect_or) << "w=" << w;
        EXPECT_EQ(a ^ b, expect_xor) << "w=" << w;
    }
}

TEST(KernelDiff, PopcountMatchesReference)
{
    Rng rng(0x9c9);
    for (size_t w : kWidths) {
        const BitRow a = randomRow(w, rng);
        EXPECT_EQ(a.popcount(), refkernel::popcount(a)) << "w=" << w;
    }
}

TEST(KernelDiff, AapIntoCopies)
{
    Rng rng(0xc0c);
    for (size_t w : kWidths) {
        const BitRow a = randomRow(w, rng);
        BitRow dst; // shape adopted from the source
        a.aapInto(dst);
        EXPECT_EQ(dst, a) << "w=" << w;
        // Reusing a differently-shaped destination also works.
        BitRow reused(7, true);
        a.aapInto(reused);
        EXPECT_EQ(reused, a) << "w=" << w;
    }
}

/**
 * Both Into entry points against the reference at every width from 0
 * to 70, which covers each boundary of the width-classed kernel
 * (7/8/9, 15/16/17, 31/32/33, 63/64/65+), and at element counts
 * around the 64-element tile, on rows wider than the data. Target
 * rows and elements start as all ones, so every word the kernel must
 * write is checked; elements carry garbage above the width and rows
 * carry data in lanes beyond n, all of which must be ignored.
 */
TEST(KernelDiff, TransposeMatchesReferenceEveryWidthClass)
{
    Rng rng(0x7e7);
    for (const size_t n : {0, 1, 63, 64, 65, 4095, 4096}) {
        const size_t lanes = n + 70;
        std::vector<uint64_t> elems(n);
        for (auto &e : elems)
            e = rng.next();
        for (size_t bits = 0; bits <= 70; ++bits) {
            std::vector<BitRow> rows(bits, BitRow(lanes, true));
            std::vector<BitRow *> wptrs(bits);
            for (size_t j = 0; j < bits; ++j)
                wptrs[j] = &rows[j];
            elementsToRowsInto(elems.data(), n, bits, wptrs.data());
            const auto ref =
                refkernel::elementsToRows(elems.data(), n, bits, lanes);
            for (size_t j = 0; j < bits; ++j) {
                ASSERT_EQ(rows[j], ref[j])
                    << "row " << j << " n=" << n << " bits=" << bits;
                ASSERT_TRUE(paddingClear(rows[j]));
            }

            std::vector<BitRow> src(bits);
            std::vector<const BitRow *> rptrs(bits);
            for (size_t j = 0; j < bits; ++j) {
                src[j] = randomRow(lanes, rng);
                rptrs[j] = &src[j];
            }
            std::vector<uint64_t> back(n, ~0ULL);
            rowsToElementsInto(rptrs.data(), bits, back.data(), n);
            ASSERT_EQ(back, refkernel::rowsToElements(src, n))
                << "n=" << n << " bits=" << bits;
        }
    }
}

TEST(KernelDiff, TransposeZeroAndEdgeShapes)
{
    Rng rng(0xede);
    // Zero bits: no rows.
    EXPECT_TRUE(elementsToRows(nullptr, 0, 0, 64).empty());
    // Zero elements: all-zero rows of the right shape.
    const auto rows = elementsToRows(nullptr, 0, 8, 100);
    ASSERT_EQ(rows.size(), 8u);
    for (const auto &r : rows) {
        EXPECT_EQ(r.width(), 100u);
        EXPECT_TRUE(r.allZero());
    }
    EXPECT_TRUE(rowsToElements(rows, 0).empty());
    // Bit rows beyond 64 are zero (elements are 64-bit).
    std::vector<uint64_t> elems = {rng.next(), rng.next()};
    const auto wide = elementsToRows(elems.data(), 2, 70, 64);
    ASSERT_EQ(wide.size(), 70u);
    for (size_t j = 64; j < 70; ++j)
        EXPECT_TRUE(wide[j].allZero()) << j;
}

/**
 * ReplayPlan vs the seed ControlUnit path on a hand-written μProgram
 * covering every operand kind: data rows, special rows, negated DCC
 * ports, dual destinations, and triple (TRA) sources, across input /
 * output / scratch regions.
 */
TEST(KernelDiff, ReplayPlanMatchesControlUnit)
{
    MicroProgram prog;
    prog.inputRegions = {{"a", 2}, {"b", 1}};
    prog.outputRegions = {{"y", 2}};
    prog.scratchRows = 2;
    // Virtual rows: a=0..1, b=2, y=3..4, scratch=5..6.
    prog.ops = {
        MicroOp::aap(RowAddr::data(0), RowAddr::row(DualAddr::T0T1)),
        MicroOp::aap(RowAddr::data(2), RowAddr::row(SpecialRow::T2)),
        MicroOp::ap(RowAddr::row(TripleAddr::T0T1T2)),
        MicroOp::aap(RowAddr::row(TripleAddr::T0T1T2),
                     RowAddr::data(5)),
        MicroOp::aap(RowAddr::data(1), RowAddr::row(SpecialRow::DCC0N)),
        MicroOp::aap(RowAddr::row(SpecialRow::DCC0N), RowAddr::data(6)),
        MicroOp::aap(RowAddr::data(6), RowAddr::row(SpecialRow::T3)),
        MicroOp::aap(RowAddr::row(TripleAddr::DCC1T0T3),
                     RowAddr::data(3)),
        MicroOp::aap(RowAddr::data(5), RowAddr::data(4)),
    };

    const DramConfig cfg = DramConfig::forTesting(192, 64);
    Subarray ref_sub(cfg);
    Subarray fast_sub(cfg);
    ref_sub.useReferencePath(true);

    Rng rng(0xe41);
    for (size_t row = 0; row < 8; ++row) {
        const BitRow v = randomRow(cfg.rowBits, rng);
        ref_sub.pokeData(row, v);
        fast_sub.pokeData(row, v);
    }

    // Map virtual regions onto the poked rows: rebase inputs/outputs
    // onto rows 0..7 so the initial contents matter.
    const std::vector<uint32_t> bases = {0, 2, 3, 5};

    ControlUnit cu;
    cu.execute(ref_sub, prog, {bases[0], bases[1]}, {bases[2]},
               bases[3]);

    ReplayPlan plan(prog, cfg);
    ASSERT_EQ(plan.regionCount(), bases.size());
    ASSERT_EQ(plan.opCount(), prog.ops.size());
    plan.replay(fast_sub, bases);

    for (size_t row = 0; row < cfg.rowsPerSubarray; ++row)
        ASSERT_EQ(fast_sub.peekData(row), ref_sub.peekData(row))
            << "data row " << row;
    for (SpecialRow s :
         {SpecialRow::T0, SpecialRow::T1, SpecialRow::T2,
          SpecialRow::T3, SpecialRow::DCC0P, SpecialRow::DCC1P})
        EXPECT_EQ(fast_sub.peek(s), ref_sub.peek(s)) << toString(s);

    const DramStats &rs = ref_sub.stats();
    const DramStats &fs = fast_sub.stats();
    EXPECT_EQ(fs.activates, rs.activates);
    EXPECT_EQ(fs.multiActivates, rs.multiActivates);
    EXPECT_EQ(fs.precharges, rs.precharges);
    EXPECT_EQ(fs.aaps, rs.aaps);
    EXPECT_EQ(fs.aps, rs.aps);
    EXPECT_DOUBLE_EQ(fs.latencyNs, rs.latencyNs);
    EXPECT_DOUBLE_EQ(fs.energyPj, rs.energyPj);
}

/**
 * The compiled schedule on the shapes library μPrograms rarely emit:
 * a triple destination, chained DCC negative ports, a constant read
 * through a negative port, a swap through scratch, an AP on a single
 * row, and a TRA whose value is overwritten unused. Run twice, so
 * the second pass meets the first pass's payloads.
 */
TEST(KernelDiff, CompiledScheduleMatchesControlUnit)
{
    MicroProgram prog;
    prog.inputRegions = {{"a", 3}};
    prog.outputRegions = {{"y", 3}};
    prog.scratchRows = 2;
    // Virtual rows: a=0..2, y=3..5, scratch=6..7.
    prog.ops = {
        MicroOp::aap(RowAddr::data(0), RowAddr::row(TripleAddr::T0T1T2)),
        MicroOp::aap(RowAddr::data(1), RowAddr::row(SpecialRow::DCC0N)),
        MicroOp::aap(RowAddr::row(SpecialRow::DCC0N),
                     RowAddr::row(SpecialRow::DCC1N)),
        MicroOp::aap(RowAddr::data(2), RowAddr::row(SpecialRow::T3)),
        MicroOp::ap(RowAddr::row(TripleAddr::DCC1T0T3)),
        MicroOp::ap(RowAddr::row(TripleAddr::T1T2T3)),
        MicroOp::aap(RowAddr::data(6), RowAddr::data(7)),
        MicroOp::aap(RowAddr::data(3), RowAddr::data(6)),
        MicroOp::aap(RowAddr::data(7), RowAddr::data(3)),
        MicroOp::ap(RowAddr::data(4)),
        MicroOp::aap(RowAddr::row(TripleAddr::DCC0T1T2),
                     RowAddr::data(4)),
        MicroOp::aap(RowAddr::row(SpecialRow::C0),
                     RowAddr::row(SpecialRow::DCC0N)),
        MicroOp::aap(RowAddr::row(SpecialRow::DCC1N),
                     RowAddr::row(DualAddr::T0T1)),
        MicroOp::aap(RowAddr::row(SpecialRow::T1), RowAddr::data(5)),
        MicroOp::ap(RowAddr::row(TripleAddr::T0T1T2)),
        MicroOp::aap(RowAddr::data(0), RowAddr::row(DualAddr::T0T1)),
    };

    const DramConfig cfg = DramConfig::forTesting(192, 64);
    Subarray ref_sub(cfg);
    Subarray fast_sub(cfg);
    ref_sub.useReferencePath(true);
    Rng rng(0xc0de);
    for (size_t row = 0; row < 16; ++row) {
        const BitRow v = randomRow(cfg.rowBits, rng);
        ref_sub.pokeData(row, v);
        fast_sub.pokeData(row, v);
    }
    for (SpecialRow s : {SpecialRow::T0, SpecialRow::T1, SpecialRow::T2,
                         SpecialRow::T3, SpecialRow::DCC0P,
                         SpecialRow::DCC1P}) {
        const BitRow v = randomRow(cfg.rowBits, rng);
        ref_sub.poke(s, v);
        fast_sub.poke(s, v);
    }

    ReplayPlan plan(prog, cfg);
    ASSERT_TRUE(plan.compiled());
    const std::vector<uint32_t> bases = {0, 3, 8};
    ControlUnit cu;
    for (int pass = 0; pass < 2; ++pass) {
        cu.execute(ref_sub, prog, {bases[0]}, {bases[1]}, bases[2]);
        plan.replay(fast_sub, bases);
        for (size_t row = 0; row < cfg.rowsPerSubarray; ++row)
            ASSERT_EQ(fast_sub.peekData(row), ref_sub.peekData(row))
                << "pass " << pass << " data row " << row;
        for (SpecialRow s :
             {SpecialRow::T0, SpecialRow::T1, SpecialRow::T2,
              SpecialRow::T3, SpecialRow::DCC0P, SpecialRow::DCC1P})
            ASSERT_EQ(fast_sub.peek(s), ref_sub.peek(s))
                << "pass " << pass << " " << toString(s);
        EXPECT_FALSE(fast_sub.bufferOpen());
    }
    EXPECT_EQ(fast_sub.stats().aaps, ref_sub.stats().aaps);
    EXPECT_EQ(fast_sub.stats().aps, ref_sub.stats().aps);
}

/**
 * A μProgram that writes an input region keeps the per-command
 * replay (two inputs may be one vector), and stays exact.
 */
TEST(KernelDiff, ProgramWritingAnInputFallsBack)
{
    MicroProgram prog;
    prog.inputRegions = {{"a", 1}, {"b", 1}};
    prog.outputRegions = {{"y", 1}};
    prog.scratchRows = 0;
    prog.ops = {
        MicroOp::aap(RowAddr::data(0), RowAddr::row(SpecialRow::DCC0N)),
        MicroOp::aap(RowAddr::row(SpecialRow::DCC0P), RowAddr::data(1)),
        MicroOp::aap(RowAddr::data(1), RowAddr::data(2)),
    };
    const DramConfig cfg = DramConfig::forTesting(128, 64);
    ReplayPlan plan(prog, cfg);
    EXPECT_FALSE(plan.compiled());

    // Both inputs bound to one row: y = ~a, and a itself is negated.
    Subarray ref_sub(cfg);
    Subarray fast_sub(cfg);
    ref_sub.useReferencePath(true);
    Rng rng(0x1a1);
    const BitRow v = randomRow(cfg.rowBits, rng);
    ref_sub.pokeData(0, v);
    fast_sub.pokeData(0, v);
    ControlUnit cu;
    cu.execute(ref_sub, prog, {0, 0}, {1}, 2);
    plan.replay(fast_sub, {0, 0, 1, 2});
    EXPECT_EQ(fast_sub.peekData(0), ~v);
    EXPECT_EQ(fast_sub.peekData(1), ~v);
    EXPECT_EQ(fast_sub.peekData(0), ref_sub.peekData(0));
    EXPECT_EQ(fast_sub.peekData(1), ref_sub.peekData(1));
}

} // namespace
} // namespace simdram
