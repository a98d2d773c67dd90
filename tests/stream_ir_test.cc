/**
 * @file
 * Tests for the stream IR layer (src/stream): effectsOf() read/write
 * sets, lift/lower round-trips, the redundancy rule that hoisting,
 * the lint and the stream cache share, each optimizer pass in isolation
 * (trsp/init hoisting, dead-write elimination, segment fusion), the
 * StreamBuilder's width derivation and ping-pong accumulate helper,
 * the executor's pass toggles and split cache counters, and a
 * randomized differential check that a passes-on executor stays
 * bit-exact with a passes-off one over multi-segment programs. Runs
 * under ThreadSanitizer in CI alongside stream_cache_test.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "runtime/stream_executor.h"
#include "stream/passes.h"
#include "stream/stream_builder.h"
#include "stream_testutil.h"

namespace simdram
{
namespace
{

using testutil::DiffRig;
using testutil::noPassesOpts;
using testutil::randomData;
using testutil::testCfg;

/** Optimizer passes on, runtime cache off (isolates the passes). */
StreamExecutorOptions
passOpts()
{
    StreamExecutorOptions o;
    o.enableStreamCache = false;
    return o;
}

/** Passes-on vs all-off rig: only the opt side may remove work. */
DiffRig
passRig(size_t devices)
{
    return DiffRig(devices, passOpts(), noPassesOpts(/*cache=*/false));
}

bool
hasAccess(const BbopAccess *list, size_t n, uint16_t obj, BbopLoc loc)
{
    for (size_t i = 0; i < n; ++i)
        if (list[i].obj == obj && list[i].loc == loc)
            return true;
    return false;
}

// ---- effectsOf: the dataflow seam the passes are built on -----------

TEST(StreamEffects, EveryOpcodeReportsItsReadsAndFullWrites)
{
    const auto et = effectsOf(BbopInstr::trsp(3, 16));
    EXPECT_TRUE(hasAccess(et.reads, et.numReads, 3, BbopLoc::Host));
    EXPECT_TRUE(hasAccess(et.writes, et.numWrites, 3, BbopLoc::Vert));

    const auto ei = effectsOf(BbopInstr::trspInv(3, 16));
    EXPECT_TRUE(hasAccess(ei.reads, ei.numReads, 3, BbopLoc::Vert));
    EXPECT_TRUE(hasAccess(ei.writes, ei.numWrites, 3, BbopLoc::Host));

    // init coherently rewrites BOTH images.
    const auto en = effectsOf(BbopInstr::init(3, 16, 7));
    EXPECT_EQ(en.numReads, 0u);
    EXPECT_TRUE(hasAccess(en.writes, en.numWrites, 3, BbopLoc::Vert));
    EXPECT_TRUE(hasAccess(en.writes, en.numWrites, 3, BbopLoc::Host));

    const auto eb =
        effectsOf(BbopInstr::binary(OpKind::Add, 16, 2, 0, 1));
    EXPECT_TRUE(hasAccess(eb.reads, eb.numReads, 0, BbopLoc::Vert));
    EXPECT_TRUE(hasAccess(eb.reads, eb.numReads, 1, BbopLoc::Vert));
    EXPECT_TRUE(hasAccess(eb.writes, eb.numWrites, 2, BbopLoc::Vert));

    const auto ep = effectsOf(
        BbopInstr::predicated(OpKind::IfElse, 16, 2, 0, 1, 4));
    EXPECT_TRUE(hasAccess(ep.reads, ep.numReads, 4, BbopLoc::Vert));

    const auto es = effectsOf(BbopInstr::shift(true, 16, 2, 0, 3));
    EXPECT_TRUE(hasAccess(es.reads, es.numReads, 0, BbopLoc::Vert));
    EXPECT_TRUE(hasAccess(es.writes, es.numWrites, 2, BbopLoc::Vert));
}

// ---- IR round-trips -------------------------------------------------

TEST(StreamIRTest, LiftLowerRoundTripsUnchangedPrograms)
{
    const std::vector<BbopInstr> stream = {
        BbopInstr::trsp(0, 16),
        BbopInstr::unary(OpKind::Abs, 16, 1, 0),
        BbopInstr::trspInv(1, 16),
    };
    const StreamIR ir = StreamIR::lift(stream);
    EXPECT_EQ(ir.segments, 1u);
    EXPECT_EQ(ir.liveCount(), stream.size());
    const auto segs = ir.lower();
    ASSERT_EQ(segs.size(), 1u);
    EXPECT_EQ(segs[0], stream);
}

TEST(StreamIRTest, LowerSkipsDeadAndKeepsEmptySegmentSlots)
{
    StreamIR ir;
    ir.segments = 2;
    ir.nodes.push_back({BbopInstr::trsp(0, 16), 0, true});
    ir.nodes.push_back({BbopInstr::init(0, 16, 5), 1, false});
    const auto segs = ir.lower();
    ASSERT_EQ(segs.size(), 2u);
    EXPECT_TRUE(segs[0].empty());
    ASSERT_EQ(segs[1].size(), 1u);
    EXPECT_EQ(ir.liveCount(), 1u);
}

// ---- The redundancy rule shared by hoisting, lint and the cache -----

TEST(RedundancyRule, PropertiesHoldForEveryOpcodeAndFactState)
{
    const uint64_t c = 7;
    const RedundancyFact states[] = {
        {},                 // unknown
        {true, false, 0},   // mirror
        {true, true, c},    // mirror + const c
        {true, true, c + 1}, // mirror + const != c
        {false, true, c},   // host const c, vertical stale
    };
    const BbopInstr instrs[] = {
        BbopInstr::trsp(0, 16),
        BbopInstr::trspInv(0, 16),
        BbopInstr::init(0, 16, c),
        BbopInstr::unary(OpKind::Abs, 16, 0, 1),
        BbopInstr::shift(true, 16, 0, 1, 3),
        BbopInstr::shift(false, 16, 0, 1, 3),
    };
    for (const RedundancyFact &f0 : states) {
        for (const BbopInstr &in : instrs) {
            SCOPED_TRACE(toAsm(in) + " from mirror=" +
                         std::to_string(f0.mirror) + " hasConst=" +
                         std::to_string(f0.hasConst) + " constVal=" +
                         std::to_string(f0.constVal));
            RedundancyFact f = f0;
            const bool redundant = isRedundant(f, in);
            applyFact(f, in);
            if (redundant) {
                EXPECT_EQ(f, f0); // a no-op leaves the fact alone
            }
            switch (in.opcode) {
              case BbopOpcode::Trsp:
              case BbopOpcode::TrspInv:
                EXPECT_EQ(redundant, f0.mirror);
                EXPECT_TRUE(isRedundant(f, in)); // now in place
                break;
              case BbopOpcode::Init:
                EXPECT_EQ(redundant, f0.mirror && f0.hasConst &&
                                         f0.constVal == c);
                EXPECT_TRUE(isRedundant(f, in));
                break;
              case BbopOpcode::Op:
              case BbopOpcode::ShiftL:
              case BbopOpcode::ShiftR:
                EXPECT_FALSE(redundant);
                EXPECT_FALSE(f.mirror);
                EXPECT_FALSE(f.hasConst);
                break;
            }
        }
    }
}

TEST(RedundancyRule, ElisionStartsFromTheGivenEntryFacts)
{
    // The same program elides nothing from unknown facts, and both
    // instructions when object 0 is known to hold the constant.
    const StreamIR prog = StreamIR::lift({
        BbopInstr::trsp(0, 16),
        BbopInstr::init(0, 16, 4),
    });
    const std::vector<size_t> order = {0, 1};

    StreamIR cold = prog;
    std::vector<RedundancyFact> unknown(1);
    EXPECT_EQ(elideRedundant(cold, order, unknown), 0u);
    EXPECT_EQ(unknown[0], (RedundancyFact{true, true, 4}));

    StreamIR warm = prog;
    std::vector<RedundancyFact> known = {{true, true, 4}};
    EXPECT_EQ(elideRedundant(warm, order, known), 2u);
    EXPECT_EQ(warm.liveCount(), 0u);
}

// ---- The passes, each in isolation ----------------------------------

TEST(StreamPasses, HoistRemovesTrspOfUnchangedObject)
{
    // The second trsp(a) re-transposes an image nothing wrote.
    StreamIR ir = StreamIR::lift({
        BbopInstr::trsp(0, 16),
        BbopInstr::unary(OpKind::Abs, 16, 1, 0),
        BbopInstr::trsp(0, 16),
    });
    const PassStats s =
        runPasses(ir, {/*trspHoist=*/true, /*deadWriteElim=*/false,
                       /*fusion=*/false});
    EXPECT_EQ(s.hoisted, 1u);
    EXPECT_EQ(s.deadEliminated, 0u);
    const auto segs = ir.lower();
    ASSERT_EQ(segs[0].size(), 2u);
    EXPECT_EQ(segs[0][1], BbopInstr::unary(OpKind::Abs, 16, 1, 0));
}

TEST(StreamPasses, HoistRemovesInitOnlyWhenConstantMatches)
{
    StreamIR ir = StreamIR::lift({
        BbopInstr::init(0, 16, 7),
        BbopInstr::unary(OpKind::Abs, 16, 1, 0),
        BbopInstr::init(0, 16, 7), // same constant: redundant
        BbopInstr::init(0, 16, 9), // different: must stay
    });
    const PassStats s =
        runPasses(ir, {/*trspHoist=*/true, /*deadWriteElim=*/false,
                       /*fusion=*/false});
    EXPECT_EQ(s.hoisted, 1u);
    EXPECT_EQ(ir.liveCount(), 3u);
}

TEST(StreamPasses, DeadWriteElimKeepsOnlyTheLastWriter)
{
    // trsp's vertical image and trspInv's host image are both fully
    // overwritten by the init before anything reads them.
    StreamIR ir = StreamIR::lift({
        BbopInstr::trsp(0, 16),
        BbopInstr::trspInv(0, 16),
        BbopInstr::init(0, 16, 7),
    });
    const PassStats s =
        runPasses(ir, {/*trspHoist=*/false, /*deadWriteElim=*/true,
                       /*fusion=*/false});
    EXPECT_EQ(s.deadEliminated, 2u);
    const auto segs = ir.lower();
    ASSERT_EQ(segs[0].size(), 1u);
    EXPECT_EQ(segs[0][0], BbopInstr::init(0, 16, 7));
}

TEST(StreamPasses, DeadWriteElimSpareReadersAndLiveOutWrites)
{
    // Every write here is read (or live-out): nothing to remove.
    StreamIR ir = StreamIR::lift({
        BbopInstr::trsp(0, 16),
        BbopInstr::unary(OpKind::Abs, 16, 1, 0),
        BbopInstr::trsp(0, 16), // live-out (hoist's job, not DWE's)
    });
    const PassStats s =
        runPasses(ir, {/*trspHoist=*/false, /*deadWriteElim=*/true,
                       /*fusion=*/false});
    EXPECT_EQ(s.deadEliminated, 0u);
    EXPECT_EQ(ir.liveCount(), 3u);
}

TEST(StreamPasses, FusionMergesAdjacentSegmentsSharingOperands)
{
    StreamIR ir;
    ir.segments = 3;
    // s0 and s1 share object 0 -> fuse; s2 touches only object 2.
    ir.nodes.push_back({BbopInstr::trsp(0, 16), 0});
    ir.nodes.push_back({BbopInstr::unary(OpKind::Abs, 16, 1, 0), 1});
    ir.nodes.push_back({BbopInstr::trsp(2, 16), 2});
    const PassStats s =
        runPasses(ir, {/*trspHoist=*/false, /*deadWriteElim=*/false,
                       /*fusion=*/true});
    EXPECT_EQ(s.fusedSegments, 1u);
    EXPECT_EQ(ir.segments, 2u);
    const auto segs = ir.lower();
    ASSERT_EQ(segs.size(), 2u);
    EXPECT_EQ(segs[0].size(), 2u);
    EXPECT_EQ(segs[1].size(), 1u);
}

// ---- StreamBuilder --------------------------------------------------

TEST(StreamBuilderTest, DerivesWidthsFromTheObjectTable)
{
    DeviceGroup g(testCfg(), 1);
    StreamExecutor ex(g);
    const uint16_t a = ex.defineObject(100, 16);
    const uint16_t b2 = ex.defineObject(100, 16);
    const uint16_t m = ex.defineObject(100, 1);

    StreamBuilder b(ex);
    b.trsp(a).trsp(b2).binary(OpKind::Gt, m, a, b2);
    // ^ width of the COMPARISON comes from src1 (16), not dst (1).
    const StreamIR ir = b.build();
    ASSERT_EQ(ir.nodes.size(), 3u);
    EXPECT_EQ(ir.nodes[0].instr, BbopInstr::trsp(a, 16));
    EXPECT_EQ(ir.nodes[2].instr.width, 16);
    EXPECT_EQ(ir.nodes[2].instr.dst, m);

    EXPECT_THROW(b.trsp(999), BbopError); // unknown object
}

TEST(StreamBuilderTest, NextStreamSplitsAndGuardsSingleStreamPaths)
{
    DeviceGroup g(testCfg(), 1);
    StreamExecutor ex(g);
    const uint16_t a = ex.defineObject(100, 16);

    StreamBuilder b(ex);
    b.nextStream(); // no-op on an empty program
    b.trsp(a).nextStream().init(a, 3);
    EXPECT_EQ(b.build().segments, 2u);
    // Encoded words and single-handle submit carry no segment
    // boundaries: both refuse a split program.
    EXPECT_THROW(b.encodeStream(), BbopError);
    EXPECT_THROW(b.submit(), BbopError);

    auto handles = b.submitAll();
    ASSERT_EQ(handles.size(), 2u);
    handles[0].wait();
    handles[1].wait();
    EXPECT_EQ(b.size(), 0u); // submitAll resets the builder
    for (uint64_t v : ex.readObject(a))
        ASSERT_EQ(v, 3u);
}

TEST(StreamBuilderTest, PingPongAccumulateAlternatesScratch)
{
    DeviceGroup g(testCfg(), 1);
    StreamExecutor ex(g);
    const uint16_t oa = ex.defineObject(100, 16);
    const uint16_t ob = ex.defineObject(100, 16);
    const uint16_t ov = ex.defineObject(100, 16);

    PingPong acc{oa, ob};
    EXPECT_EQ(acc.src(), oa);
    EXPECT_EQ(acc.dst(), ob);

    StreamBuilder b(ex);
    b.accumulate(acc, ov).accumulate(acc, ov).accumulate(acc, ov);
    const StreamIR ir = b.build();
    ASSERT_EQ(ir.nodes.size(), 3u);
    EXPECT_EQ(ir.nodes[0].instr,
              BbopInstr::binary(OpKind::Add, 16, ob, oa, ov));
    EXPECT_EQ(ir.nodes[1].instr,
              BbopInstr::binary(OpKind::Add, 16, oa, ob, ov));
    EXPECT_EQ(ir.nodes[2].instr,
              BbopInstr::binary(OpKind::Add, 16, ob, oa, ov));
    // After an odd number of steps the sum lives in the pong object.
    EXPECT_EQ(acc.result(), ob);
}

TEST(StreamBuilderTest, UnknownIdsThrowTypedWithoutMutating)
{
    DeviceGroup g(testCfg(), 1);
    StreamExecutor ex(g);
    const uint16_t a = ex.defineObject(100, 16);
    const uint16_t c = ex.defineObject(100, 16);
    const uint16_t d = ex.defineObject(100, 16);
    const uint16_t bad = 999; // never defined

    StreamBuilder b(ex);
    b.trsp(a); // a known prefix the failures must not disturb

    // Every fluent method, every operand position: the typed
    // BbopError fires at BUILD time and the program is unmutated —
    // not just the width-source operand (src1 for ops, dst for
    // shifts), which widthOf() already covered, but every other
    // operand too.
    const auto unchanged = [&] { return b.size() == 1; };
    EXPECT_THROW(b.trsp(bad), BbopError);
    EXPECT_TRUE(unchanged());
    EXPECT_THROW(b.trspInv(bad), BbopError);
    EXPECT_TRUE(unchanged());
    EXPECT_THROW(b.init(bad, 7), BbopError);
    EXPECT_TRUE(unchanged());
    EXPECT_THROW(b.unary(OpKind::Abs, bad, a), BbopError); // dst
    EXPECT_TRUE(unchanged());
    EXPECT_THROW(b.unary(OpKind::Abs, a, bad), BbopError); // src1
    EXPECT_TRUE(unchanged());
    EXPECT_THROW(b.binary(OpKind::Add, bad, a, c), BbopError);
    EXPECT_TRUE(unchanged());
    EXPECT_THROW(b.binary(OpKind::Add, a, bad, c), BbopError);
    EXPECT_TRUE(unchanged());
    EXPECT_THROW(b.binary(OpKind::Add, a, c, bad), BbopError);
    EXPECT_TRUE(unchanged());
    EXPECT_THROW(b.predicated(OpKind::IfElse, bad, a, c, d),
                 BbopError);
    EXPECT_TRUE(unchanged());
    EXPECT_THROW(b.predicated(OpKind::IfElse, a, bad, c, d),
                 BbopError);
    EXPECT_TRUE(unchanged());
    EXPECT_THROW(b.predicated(OpKind::IfElse, a, c, bad, d),
                 BbopError);
    EXPECT_TRUE(unchanged());
    EXPECT_THROW(b.predicated(OpKind::IfElse, a, c, d, bad),
                 BbopError);
    EXPECT_TRUE(unchanged());
    EXPECT_THROW(b.shiftLeft(bad, a, 1), BbopError); // dst
    EXPECT_TRUE(unchanged());
    EXPECT_THROW(b.shiftLeft(a, bad, 1), BbopError); // src
    EXPECT_TRUE(unchanged());
    EXPECT_THROW(b.shiftRight(bad, a, 1), BbopError);
    EXPECT_TRUE(unchanged());
    EXPECT_THROW(b.shiftRight(a, bad, 1), BbopError);
    EXPECT_TRUE(unchanged());
    PingPong acc{a, c};
    EXPECT_THROW(b.accumulate(acc, bad), BbopError);
    EXPECT_TRUE(unchanged());
    EXPECT_EQ(acc.src(), a); // a failed step must not flip

    // The builder stays fully usable: finish a real program on it.
    b.trsp(c)
        .trsp(d)
        .binary(OpKind::Add, d, a, c)
        .trspInv(d);
    EXPECT_EQ(b.build().nodes.size(), 5u);
    ex.writeObject(a, std::vector<uint64_t>(100, 5));
    ex.writeObject(c, std::vector<uint64_t>(100, 2));
    b.submit().wait();
    for (uint64_t v : ex.readObject(d))
        ASSERT_EQ(v, 7u);
}

TEST(StreamBuilderTest, WidthSourceAsymmetryOpsFromSrc1ShiftsFromDst)
{
    DeviceGroup g(testCfg(), 1);
    StreamExecutor ex(g);
    const uint16_t wide = ex.defineObject(100, 16);
    const uint16_t narrow = ex.defineObject(100, 8);

    StreamBuilder b(ex);
    // Operations take their element width from src1...
    b.binary(OpKind::Add, narrow, wide, wide);
    // ...shifts take it from dst.
    b.shiftLeft(narrow, wide, 1);
    b.shiftRight(wide, narrow, 1);
    const StreamIR ir = b.build();
    ASSERT_EQ(ir.nodes.size(), 3u);
    EXPECT_EQ(ir.nodes[0].instr.width, 16); // src1 = wide
    EXPECT_EQ(ir.nodes[1].instr.width, 8);  // dst = narrow
    EXPECT_EQ(ir.nodes[2].instr.width, 16); // dst = wide
}

// ---- Executor integration: toggles, counters, handles ---------------

TEST(StreamExecutorPasses, TogglesSelectWhichPassesRun)
{
    const std::vector<std::pair<bool, bool>> combos = {
        {true, true}, {true, false}, {false, true}, {false, false}};
    for (const auto &[hoist, dwe] : combos) {
        DeviceGroup g(testCfg(), 2);
        StreamExecutorOptions o;
        o.enableStreamCache = false;
        o.enableTrspHoist = hoist;
        o.enableDeadWriteElim = dwe;
        StreamExecutor ex(g, o);
        const uint16_t a = ex.defineObject(300, 16);
        const uint16_t y = ex.defineObject(300, 16);
        ex.writeObject(a, randomData(300, 0xffff, 3));

        // trsp(y) is a dead write (the Abs fully overwrites y before
        // anything reads it); the second trsp(a) is a redundant
        // re-transpose (nothing wrote a since the first). Each
        // toggle removes exactly its own instruction.
        const StreamResult r =
            ex.submit({BbopInstr::trsp(y, 16),
                       BbopInstr::trsp(a, 16),
                       BbopInstr::unary(OpKind::Abs, 16, y, a),
                       BbopInstr::trsp(a, 16)})
                .wait();
        const size_t expected =
            (hoist ? 1u : 0u) + (dwe ? 1u : 0u);
        EXPECT_EQ(r.optimizedInstructions, expected)
            << "hoist=" << hoist << " dwe=" << dwe;
        EXPECT_EQ(r.instructions, 4u); // as-submitted count
        EXPECT_EQ(ex.optimizedInstructionCount(), expected);
    }
}

TEST(StreamExecutorPasses, FusionMergesSubmittedSegmentsIntoOneJob)
{
    DeviceGroup g(testCfg(), 2);
    StreamExecutor ex(g, passOpts());
    const uint16_t a = ex.defineObject(300, 16);
    const uint16_t y = ex.defineObject(300, 16);
    ex.writeObject(a, randomData(300, 0xffff, 4));

    StreamBuilder b(ex);
    b.trsp(a)
        .nextStream()
        .unary(OpKind::Abs, y, a)
        .nextStream()
        .trspInv(y);
    auto handles = b.submitAll();
    // Each adjacent segment pair shares an operand, so fusion merges
    // all three into ONE device pass whose single handle reports
    // every as-submitted instruction.
    ASSERT_EQ(handles.size(), 1u);
    const StreamResult r = handles[0].wait();
    EXPECT_EQ(r.instructions, 3u);
    EXPECT_EQ(r.optimizedInstructions, 0u);
}

TEST(StreamExecutorPasses, SplitCacheCountersAttributeTrspAndInit)
{
    DeviceGroup g(testCfg(), 2);
    StreamExecutor ex(g, noPassesOpts(/*cache=*/true));
    const uint16_t a = ex.defineObject(300, 16);
    ex.writeObject(a, randomData(300, 0xffff, 5));

    ex.submit({BbopInstr::trsp(a, 16)}).wait();
    const StreamResult rt =
        ex.submit({BbopInstr::trsp(a, 16)}).wait(); // elided: trsp
    EXPECT_EQ(rt.cachedTrspInstructions, 1u);
    EXPECT_EQ(rt.cachedInitInstructions, 0u);
    EXPECT_EQ(rt.cachedInstructions, 1u);

    ex.submit({BbopInstr::init(a, 16, 6)}).wait();
    const StreamResult ri =
        ex.submit({BbopInstr::init(a, 16, 6)}).wait(); // elided: init
    EXPECT_EQ(ri.cachedTrspInstructions, 0u);
    EXPECT_EQ(ri.cachedInitInstructions, 1u);

    EXPECT_EQ(ex.cacheTrspHits(), 1u);
    EXPECT_EQ(ex.cacheInitHits(), 1u);
    EXPECT_EQ(ex.cacheHits(),
              ex.cacheTrspHits() + ex.cacheInitHits());
}

// ---- Randomized differential: passes on vs off ----------------------

class StreamIRDiffTest : public ::testing::TestWithParam<size_t>
{
};

INSTANTIATE_TEST_SUITE_P(Devices, StreamIRDiffTest,
                         ::testing::Values(1, 4),
                         [](const auto &info) {
                             return "d" +
                                    std::to_string(info.param);
                         });

TEST_P(StreamIRDiffTest, RandomProgramsStayBitExact)
{
    // Random multi-segment programs over a small object set, run on a
    // passes-on executor and a passes-off reference: images must stay
    // bit-exact even though the opt side removes and fuses work.
    DiffRig rig = passRig(GetParam());
    const size_t n = 520; // 3 segments per object at 256 lanes
    const uint16_t a = rig.define(n, 16);
    const uint16_t b = rig.define(n, 16);
    const uint16_t y = rig.define(n, 16);
    const uint16_t m = rig.define(n, 1);
    rig.write(a, randomData(n, 0xffff, 31));
    rig.write(b, randomData(n, 0xffff, 32));
    // Establish every layout once so any later instruction is valid.
    rig.run({BbopInstr::trsp(a, 16), BbopInstr::trsp(b, 16),
             BbopInstr::trsp(y, 16), BbopInstr::trsp(m, 1)});

    Rng rng(0x1eaf);
    size_t optimized = 0;
    const uint16_t v16[] = {a, b, y};
    for (int round = 0; round < 40; ++round) {
        StreamBuilder builder(rig.opt); // widths only; not submitted
        const size_t nsegs = 1 + rng.below(3);
        for (size_t s = 0; s < nsegs; ++s) {
            if (s > 0)
                builder.nextStream();
            const size_t len = 1 + rng.below(5);
            for (size_t i = 0; i < len; ++i) {
                const uint16_t o1 = v16[rng.below(3)];
                uint16_t dst = v16[rng.below(3)];
                while (dst == o1)
                    dst = v16[rng.below(3)];
                switch (rng.below(8)) {
                  case 0:
                    builder.trsp(o1);
                    break;
                  case 1:
                    builder.trspInv(o1);
                    break;
                  case 2:
                    builder.init(o1, rng.below(100));
                    break;
                  case 3:
                    builder.unary(OpKind::Abs, dst, o1);
                    break;
                  case 4:
                    // src1 == src2 is legal; only in-place (dst
                    // aliasing an operand) is not.
                    builder.binary(rng.below(2) != 0 ? OpKind::Add
                                                     : OpKind::Sub,
                                   dst, o1, o1);
                    break;
                  case 5:
                    builder.binary(OpKind::Gt, m, o1, dst);
                    break;
                  case 6:
                    builder.predicated(OpKind::IfElse, dst, o1, o1,
                                       m);
                    break;
                  case 7:
                    builder.shiftLeft(dst, o1,
                                      1 + rng.below(7));
                    break;
                }
            }
        }
        const auto [ro, rr] = rig.runIR(builder.build());
        size_t ocount = 0, rcount = 0;
        for (const auto &r : ro) {
            optimized += r.optimizedInstructions;
            ocount += r.instructions;
        }
        for (const auto &r : rr) {
            EXPECT_EQ(r.optimizedInstructions, 0u);
            rcount += r.instructions;
        }
        EXPECT_EQ(ocount, rcount); // as-submitted totals agree
        if (round % 10 == 9)
            rig.expectSameImages();
        if (round == 20) // host write churn drains both pipelines
            rig.write(a, randomData(n, 0xffff, 100 + round));
    }
    // One guaranteed-removable program so the assertion below cannot
    // go stale if the random mix changes.
    const auto [ro, rr] = rig.runIR(StreamIR::lift(
        {BbopInstr::trsp(a, 16),
         BbopInstr::unary(OpKind::Abs, 16, y, a),
         BbopInstr::trsp(a, 16)}));
    optimized += ro.front().optimizedInstructions;
    rig.expectSameImages();
    EXPECT_GT(optimized, 0u);
    EXPECT_EQ(rig.opt.optimizedInstructionCount(), optimized);
    EXPECT_EQ(rig.ref.optimizedInstructionCount(), 0u);
}

} // namespace
} // namespace simdram
