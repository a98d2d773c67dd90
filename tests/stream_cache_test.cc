/**
 * @file
 * Tests for the StreamExecutor's stream-level trsp/init cache:
 * differential bit-exactness of a cached executor against an
 * uncached one over identical stream sequences, invalidation after
 * every kind of write (bbop op/shift/init outputs, writeObject),
 * the DeviceGroup mutation-generation tag, elision accounting, the
 * cache's place after the optimizer passes, and the knn/nn runtime
 * paths' reduced trsp counts. Runs under ThreadSanitizer in CI (the
 * cache decides at submit; the workers run what survives).
 */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "apps/knn.h"
#include "apps/nn.h"
#include "common/rng.h"
#include "runtime/stream_executor.h"
#include "stream_testutil.h"

namespace simdram
{
namespace
{

using testutil::DiffRig;
using testutil::noPassesOpts;
using testutil::randomData;
using testutil::testCfg;

/**
 * Cache on vs cache off, with the optimizer passes disabled on both
 * sides: these tests assert exact elision counts per instruction, and
 * a pass removing (say) a duplicate init would change which
 * instructions the runtime cache ever sees. The pass-vs-no-pass
 * differential lives in stream_ir_test.
 */
DiffRig
cacheRig(size_t devices)
{
    return DiffRig(devices, noPassesOpts(/*cache=*/true),
                   noPassesOpts(/*cache=*/false));
}

class StreamCacheTest : public ::testing::TestWithParam<size_t>
{
};

INSTANTIATE_TEST_SUITE_P(Devices, StreamCacheTest,
                         ::testing::Values(1, 4),
                         [](const auto &info) {
                             return "d" +
                                    std::to_string(info.param);
                         });

TEST_P(StreamCacheTest, RepeatedTrspIsElidedBitExact)
{
    DiffRig rig = cacheRig(GetParam());
    const size_t n = 300; // crosses a shard boundary at 4 devices
    const uint16_t a = rig.define(n, 16);
    const uint16_t y = rig.define(n, 16);
    rig.write(a, randomData(n, 0xffff, 1));

    // First transposition of everything: nothing to elide.
    const auto r0 = rig.run(
        {BbopInstr::trsp(a, 16), BbopInstr::trsp(y, 16)});
    EXPECT_EQ(r0.first.cachedInstructions, 0u);
    EXPECT_GT(r0.first.transfer.activates, 0u);

    // Re-transposing unchanged objects: both elided, zero transfer
    // work on the cached side, and the op in between still executes.
    const auto r1 = rig.run(
        {BbopInstr::trsp(a, 16),
         BbopInstr::unary(OpKind::Abs, 16, y, a),
         BbopInstr::trsp(a, 16)});
    EXPECT_EQ(r1.first.cachedInstructions, 2u);
    EXPECT_EQ(r1.first.transfer.activates, 0u);
    EXPECT_GT(r1.second.transfer.activates, 0u);
    EXPECT_EQ(r1.first.compute.aaps, r1.second.compute.aaps);

    // y was written by the op: its trsp_inv must execute.
    const auto r2 = rig.run({BbopInstr::trspInv(y, 16)});
    EXPECT_EQ(r2.first.cachedInstructions, 0u);
    rig.expectSameImages();
    EXPECT_EQ(rig.opt.cacheHits(), 2u);
    EXPECT_EQ(rig.ref.cacheHits(), 0u);
}

TEST_P(StreamCacheTest, InitElidedOnlyWhenValueUnchanged)
{
    DiffRig rig = cacheRig(GetParam());
    const size_t n = 300;
    const uint16_t a = rig.define(n, 16);
    rig.run({BbopInstr::trsp(a, 16), BbopInstr::init(a, 16, 0x2d)});

    // Same value again: elided. Different value: runs.
    const auto r0 = rig.run({BbopInstr::init(a, 16, 0x2d)});
    EXPECT_EQ(r0.first.cachedInstructions, 1u);
    EXPECT_EQ(r0.first.compute.aaps, 0u);
    const auto r1 = rig.run({BbopInstr::init(a, 16, 0x2e)});
    EXPECT_EQ(r1.first.cachedInstructions, 0u);
    EXPECT_GT(r1.first.compute.aaps, 0u);

    // And a trsp of the freshly initialized object is redundant
    // (vertical and host images are both the constant).
    const auto r2 = rig.run({BbopInstr::trsp(a, 16)});
    EXPECT_EQ(r2.first.cachedInstructions, 1u);
    rig.expectSameImages();
    for (uint64_t v : rig.opt.readObject(a))
        ASSERT_EQ(v, 0x2eu);
}

TEST_P(StreamCacheTest, EveryWriteKindInvalidates)
{
    DiffRig rig = cacheRig(GetParam());
    const size_t n = 300;
    const uint16_t a = rig.define(n, 16);
    const uint16_t y = rig.define(n, 16);
    rig.write(a, randomData(n, 0xffff, 7));
    rig.run({BbopInstr::trsp(a, 16), BbopInstr::trsp(y, 16)});

    // 1. bbop op output: the trsp_inv of y must re-run.
    rig.run({BbopInstr::unary(OpKind::Abs, 16, y, a)});
    const auto r1 = rig.run({BbopInstr::trspInv(y, 16)});
    EXPECT_EQ(r1.first.cachedInstructions, 0u);

    // 2. shift output invalidates its destination...
    rig.run({BbopInstr::shift(true, 16, y, a, 3)});
    const auto r2 = rig.run({BbopInstr::trspInv(y, 16)});
    EXPECT_EQ(r2.first.cachedInstructions, 0u);
    // ...but its *source* stays clean.
    const auto r2b = rig.run({BbopInstr::trsp(a, 16)});
    EXPECT_EQ(r2b.first.cachedInstructions, 1u);

    // 3. bbop_init rewrites both images coherently: a trsp after it
    // is redundant.
    rig.run({BbopInstr::init(y, 16, 9)});
    const auto r3 = rig.run({BbopInstr::trsp(y, 16)});
    EXPECT_EQ(r3.first.cachedInstructions, 1u);

    // 4. writeObject: vertical is kept coherent for a transposed
    // object, so trsp stays elidable — but the data is new, so an
    // init of the old constant must run.
    rig.write(y, randomData(n, 0xffff, 8));
    const auto r4 = rig.run(
        {BbopInstr::trsp(y, 16), BbopInstr::init(y, 16, 9)});
    EXPECT_EQ(r4.first.cachedInstructions, 1u); // the trsp only
    EXPECT_GT(r4.first.compute.aaps, 0u);

    rig.expectSameImages();
}

/**
 * Host data wider than its object, with the stream cache and trsp
 * hoisting on against both off. Accepted, 0x100 + i in an 8-bit
 * object reads back whole wherever an elided transposition leaves
 * the host image alone and truncated wherever one runs, so the two
 * sides disagree in all three orderings. The write must instead be
 * rejected with a typed BbopError before any side effect: the host
 * image keeps its last accepted value and the entry facts stand.
 */
TEST_P(StreamCacheTest, WideHostDataIsRejectedWithoutSideEffects)
{
    const size_t n = 64;
    const auto good = randomData(n, 0xff, 9);
    std::vector<uint64_t> wide(n);
    for (size_t i = 0; i < n; ++i)
        wide[i] = 0x100 + i;

    // 0: write, {trsp; trspInv}. 1: {trsp}, write, {trspInv}.
    // 2: write, {trsp}, {trspInv}.
    for (int order = 0; order < 3; ++order) {
        SCOPED_TRACE("ordering " + std::to_string(order));
        DiffRig rig(GetParam(), StreamExecutorOptions{},
                    noPassesOpts(/*cache=*/false));
        const uint16_t a = rig.define(n, 8);
        rig.write(a, good);
        const auto writeWide = [&] {
            EXPECT_THROW(rig.opt.writeObject(a, wide), BbopError);
            EXPECT_THROW(rig.ref.writeObject(a, wide), BbopError);
            EXPECT_EQ(rig.opt.readObject(a), good);
            rig.expectSameImages();
        };
        if (order == 0) {
            writeWide();
            rig.run({BbopInstr::trsp(a, 8), BbopInstr::trspInv(a, 8)});
        } else if (order == 1) {
            rig.run({BbopInstr::trsp(a, 8)});
            writeWide();
            // The rejected write left the mirror fact in place.
            const auto r = rig.run({BbopInstr::trspInv(a, 8)});
            EXPECT_EQ(r.first.cachedInstructions, 1u);
        } else {
            writeWide();
            rig.run({BbopInstr::trsp(a, 8)});
            rig.run({BbopInstr::trspInv(a, 8)});
        }
        rig.expectSameImages();
        EXPECT_EQ(rig.opt.readObject(a), good);
    }
}

TEST(StreamCache, DeviceGroupMutationGenerationTracksWrites)
{
    // The cache tags entries with DeviceGroup::mutationGen(); every
    // group-level write API must advance it (reads must not), so a
    // caller writing a vector out-of-band invalidates any cache
    // entry derived from it.
    DeviceGroup g(testCfg(), 2);
    const auto a = g.alloc(300, 16);
    const auto b = g.alloc(300, 16);
    const auto y = g.alloc(300, 16);
    const uint64_t g0 = g.mutationGen(a);

    g.store(a, randomData(300, 0xffff, 2));
    const uint64_t g1 = g.mutationGen(a);
    EXPECT_GT(g1, g0);

    (void)g.load(a); // reads don't advance
    EXPECT_EQ(g.mutationGen(a), g1);

    g.fillConstant(a, 5);
    const uint64_t g2 = g.mutationGen(a);
    EXPECT_GT(g2, g1);

    g.store(b, randomData(300, 0xffff, 3));
    g.shiftLeft(y, a, 2); // dst advances, src does not
    EXPECT_EQ(g.mutationGen(a), g2);
    EXPECT_GT(g.mutationGen(y), 0u);

    const uint64_t yg = g.mutationGen(y);
    g.run(OpKind::Add, y, a, b);
    EXPECT_GT(g.mutationGen(y), yg);
    EXPECT_EQ(g.mutationGen(a), g2);
}

// ---- Ordering: the cache elides after the passes, over survivors ----

TEST(StreamCache, InitElisionRunsAfterDeadWriteElimination)
{
    // DWE removes the overwritten init a,5 first (a pass removal), so
    // the cache only sees init a,7 and elides it against the fact the
    // previous submission left. Were the cache to run first, init a,5
    // would replace that fact and nothing could be elided.
    DeviceGroup g(testCfg(), 2);
    StreamExecutor ex(g);
    const uint16_t a = ex.defineObject(300, 16);
    ex.submit({BbopInstr::init(a, 16, 7)}).wait();

    const StreamResult r = ex.submit({BbopInstr::init(a, 16, 5),
                                      BbopInstr::init(a, 16, 7)})
                               .wait();
    EXPECT_EQ(r.instructions, 2u);
    EXPECT_EQ(r.optimizedInstructions, 1u);
    EXPECT_EQ(r.cachedInitInstructions, 1u);
    EXPECT_EQ(r.cachedTrspInstructions, 0u);
    EXPECT_EQ(r.cachedInstructions, 1u);
    EXPECT_EQ(r.compute.aaps, 0u);
    EXPECT_EQ(r.compute.aps, 0u);
    EXPECT_EQ(r.compute.latencyNs, 0.0);
    EXPECT_EQ(ex.optimizedInstructionCount(), 1u);
    EXPECT_EQ(ex.cacheInitHits(), 1u);
    for (uint64_t v : ex.readObject(a))
        ASSERT_EQ(v, 7u);
}

TEST(StreamCache, TrspElisionRunsAfterHoisting)
{
    // Hoisting removes the second trsp a (a pass removal); the cache
    // then elides the first against the previous submission's trsp.
    DeviceGroup g(testCfg(), 2);
    StreamExecutor ex(g);
    const uint16_t a = ex.defineObject(300, 16);
    const auto data = randomData(300, 0xffff, 9);
    ex.writeObject(a, data);
    ex.submit({BbopInstr::trsp(a, 16)}).wait();

    const StreamResult r = ex.submit({BbopInstr::trsp(a, 16),
                                      BbopInstr::trsp(a, 16)})
                               .wait();
    EXPECT_EQ(r.instructions, 2u);
    EXPECT_EQ(r.optimizedInstructions, 1u);
    EXPECT_EQ(r.cachedTrspInstructions, 1u);
    EXPECT_EQ(r.cachedInitInstructions, 0u);
    EXPECT_EQ(r.transfer.activates, 0u);
    EXPECT_EQ(r.transfer.writes, 0u);
    EXPECT_EQ(r.transfer.latencyNs, 0.0);
    EXPECT_EQ(ex.cacheTrspHits(), 1u);
    EXPECT_EQ(ex.readObject(a), data);
}

TEST_P(StreamCacheTest, MixedPipelineStaysBitExactUnderChurn)
{
    // Randomized differential churn: a pipeline of streams mixing
    // trsp / trsp_inv / init / ops / shifts / host writes, submitted
    // without waiting, must leave every object bit-exact between the
    // cached and uncached executors.
    DiffRig rig = cacheRig(GetParam());
    const size_t n = 520; // 3 segments
    const uint16_t a = rig.define(n, 16);
    const uint16_t b = rig.define(n, 16);
    const uint16_t y = rig.define(n, 16);
    rig.write(a, randomData(n, 0xffff, 21));
    rig.write(b, randomData(n, 0xffff, 22));
    rig.run({BbopInstr::trsp(a, 16), BbopInstr::trsp(b, 16),
             BbopInstr::trsp(y, 16)});

    Rng rng(0xc0ffee);
    std::vector<StreamHandle> hc, hu;
    auto submitBoth = [&](const std::vector<BbopInstr> &s) {
        hc.push_back(rig.opt.submit(s));
        hu.push_back(rig.ref.submit(s));
    };
    for (int round = 0; round < 60; ++round) {
        switch (rng.below(6)) {
          case 0:
            submitBoth({BbopInstr::trsp(a, 16),
                        BbopInstr::binary(OpKind::Add, 16, y, a,
                                          b)});
            break;
          case 1:
            submitBoth({BbopInstr::trsp(b, 16),
                        BbopInstr::binary(OpKind::Sub, 16, y, a, b),
                        BbopInstr::trspInv(y, 16)});
            break;
          case 2: {
            const uint64_t imm = rng.below(100);
            submitBoth({BbopInstr::init(b, 16, imm),
                        BbopInstr::init(b, 16, imm)}); // dupe
            break;
          }
          case 3:
            submitBoth({BbopInstr::shift(rng.below(2) != 0, 16, y,
                                         a, rng.below(8)),
                        BbopInstr::trspInv(y, 16)});
            break;
          case 4:
            // writeObject drains both executors, then the pipeline
            // refills.
            rig.write(a, randomData(n, 0xffff, 1000 + round));
            break;
          case 5:
            submitBoth(
                {BbopInstr::trsp(y, 16), BbopInstr::trsp(a, 16)});
            break;
        }
    }
    size_t cached_hits = 0;
    for (auto &h : hc)
        cached_hits += h.wait().cachedInstructions;
    for (auto &h : hu)
        EXPECT_EQ(h.wait().cachedInstructions, 0u);

    rig.expectSameImages();
    EXPECT_EQ(rig.opt.cacheHits(), cached_hits);
    EXPECT_GT(rig.opt.cacheHits(), 0u);
    EXPECT_EQ(rig.ref.cacheHits(), 0u);
}

// ---- App runtime paths: reduced trsp counts, bit-exact --------------

TEST_P(StreamCacheTest, KnnStreamsStopRetransposingTheReferenceSet)
{
    const size_t devices = GetParam();
    DeviceGroup gc(testCfg(), devices);
    DeviceGroup gu(testCfg(), devices);
    KnnStreamReport cached, uncached;
    // knnVerify itself checks result correctness against the host
    // for every query (hence cached and uncached agree bit-exactly)
    // and asserts the expected cache-hit floor internally.
    ASSERT_TRUE(knnVerify(gc, 321, /*stream_cache=*/true, &cached));
    ASSERT_TRUE(
        knnVerify(gu, 321, /*stream_cache=*/false, &uncached));
    EXPECT_EQ(cached.streams, uncached.streams);
    EXPECT_EQ(uncached.cachedInstructions, 0u);
    EXPECT_GT(cached.cachedInstructions, 0u);
    // The cached run pays strictly less transposition-unit work.
    EXPECT_LT(cached.transferActivates, uncached.transferActivates);
}

TEST_P(StreamCacheTest, NnTapStreamsStopRetransposingActivations)
{
    const size_t devices = GetParam();
    DeviceGroup gc(testCfg(), devices);
    DeviceGroup gu(testCfg(), devices);
    NnStreamReport cached, uncached;
    ASSERT_TRUE(
        nnVerifyConvTile(gc, 123, /*stream_cache=*/true, &cached));
    ASSERT_TRUE(nnVerifyConvTile(gu, 123, /*stream_cache=*/false,
                                 &uncached));
    EXPECT_EQ(cached.streams, uncached.streams);
    EXPECT_EQ(uncached.cachedInstructions, 0u);
    // Every per-tap trsp is elided on the cached side.
    EXPECT_GE(cached.cachedInstructions, cached.streams);
    EXPECT_LT(cached.transferActivates, uncached.transferActivates);
}

} // namespace
} // namespace simdram
