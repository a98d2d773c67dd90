/**
 * @file
 * End-to-end tests of the Processor public API: allocation, layout
 * conversion, execution of every operation on every backend, bank
 * parallelism, and misuse diagnostics.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "baseline/host_kernels.h"
#include "common/error.h"
#include "common/rng.h"
#include "dram/fault_injector.h"
#include "exec/processor.h"

// Counts global operator new calls while a test asks for it (this
// binary replaces the global allocation functions). GCC cannot see
// that the replaced pair matches, hence the pragma.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
namespace
{
std::atomic<bool> g_count_news{false};
std::atomic<size_t> g_news{0};
} // namespace

void *
operator new(std::size_t n)
{
    if (g_count_news.load(std::memory_order_relaxed))
        g_news.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n == 0 ? 1 : n))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}
#pragma GCC diagnostic pop

namespace simdram
{
namespace
{

DramConfig
testCfg()
{
    return DramConfig::forTesting(256, 512);
}

TEST(Processor, StoreLoadRoundTrip)
{
    Processor p(testCfg());
    const auto v = p.alloc(300, 16); // spans 2 segments of 256 lanes
    Rng rng(1);
    std::vector<uint64_t> data(300);
    for (auto &x : data)
        x = rng.next() & 0xffff;
    p.store(v, data);
    EXPECT_EQ(p.load(v), data);
    EXPECT_GT(p.transferStats().energyPj, 0.0);
}

TEST(Processor, StoreLoadEveryTransposeWidthClassAtAppsShape)
{
    // The apps' shape: 4,096-lane rows over two compute banks, with a
    // partial last segment. Each transposition width class and its
    // edges round-trip whole-vector and through bank-filtered parts;
    // element bits at or above the width are dropped.
    DramConfig cfg = DramConfig::forTesting(4096, 768);
    cfg.computeBanks = 2;
    const size_t n = 3 * 4096 + 100; // segments in banks 0, 1, 0, 1
    Rng rng(0xc1a5);
    for (const size_t bits : {1, 8, 9, 16, 17, 32, 33, 64}) {
        SCOPED_TRACE("bits=" + std::to_string(bits));
        const uint64_t mask = ~0ULL >> (64 - bits);
        Processor p(cfg);
        const auto v = p.alloc(n, bits);
        std::vector<uint64_t> data(n), part(n), expect(n);
        for (size_t i = 0; i < n; ++i) {
            data[i] = rng.next();
            part[i] = rng.next();
        }
        p.store(v, data);
        for (size_t i = 0; i < n; ++i)
            expect[i] = data[i] & mask;
        EXPECT_EQ(p.load(v), expect);

        // Bank 1's part rewrites only bank 1's segments.
        p.store(v, part.data(), n, 1);
        for (size_t i = 0; i < n; ++i)
            if ((i / 4096) % 2 == 1)
                expect[i] = part[i] & mask;
        std::vector<uint64_t> back(n, ~0ULL);
        p.loadInto(v, back.data(), 0);
        p.loadInto(v, back.data(), 1);
        EXPECT_EQ(back, expect);
        EXPECT_EQ(p.load(v), expect);
    }
}

TEST(Processor, AllocRejectsEmpty)
{
    Processor p(testCfg());
    EXPECT_THROW(p.alloc(0, 8), FatalError);
    EXPECT_THROW(p.alloc(8, 0), FatalError);
}

TEST(Processor, StoreRejectsWrongSize)
{
    Processor p(testCfg());
    const auto v = p.alloc(10, 8);
    EXPECT_THROW(p.store(v, std::vector<uint64_t>(11, 0)),
                 FatalError);
}

TEST(Processor, InvalidHandleRejected)
{
    Processor p(testCfg());
    Processor::VecHandle bogus;
    EXPECT_THROW(p.load(bogus), FatalError);
}

TEST(Processor, WidthMismatchRejected)
{
    Processor p(testCfg());
    const auto a = p.alloc(10, 8);
    const auto b = p.alloc(10, 16);
    const auto y = p.alloc(10, 8);
    EXPECT_THROW(p.run(OpKind::Add, y, a, b), FatalError);
}

TEST(Processor, DestinationWidthChecked)
{
    Processor p(testCfg());
    const auto a = p.alloc(10, 8);
    const auto b = p.alloc(10, 8);
    const auto y = p.alloc(10, 4); // eq needs 1-bit dst
    EXPECT_THROW(p.run(OpKind::Eq, y, a, b), FatalError);
}

TEST(Processor, ArityChecked)
{
    Processor p(testCfg());
    const auto a = p.alloc(10, 8);
    const auto y = p.alloc(10, 8);
    EXPECT_THROW(p.run(OpKind::Add, y, a), FatalError);
    EXPECT_THROW(p.run(OpKind::Relu, y, a, a), FatalError);
}

TEST(Processor, InPlaceExecutionRejected)
{
    Processor p(testCfg());
    const auto a = p.alloc(10, 8);
    const auto b = p.alloc(10, 8);
    p.store(a, std::vector<uint64_t>(10, 1));
    p.store(b, std::vector<uint64_t>(10, 2));
    EXPECT_THROW(p.run(OpKind::Add, a, a, b), FatalError);
}

TEST(Processor, MultiSegmentComputation)
{
    // 600 elements over 256-lane subarrays: 3 segments, 1 bank.
    Processor p(testCfg());
    const size_t n = 600;
    const auto a = p.alloc(n, 8);
    const auto b = p.alloc(n, 8);
    const auto y = p.alloc(n, 8);
    Rng rng(2);
    std::vector<uint64_t> da(n), db(n);
    for (size_t i = 0; i < n; ++i) {
        da[i] = rng.next() & 0xff;
        db[i] = rng.next() & 0xff;
    }
    p.store(a, da);
    p.store(b, db);
    p.run(OpKind::Add, y, a, b);
    const auto got = p.load(y);
    for (size_t i = 0; i < n; ++i)
        ASSERT_EQ(got[i], (da[i] + db[i]) & 0xff) << i;
}

TEST(Processor, BankParallelismReducesLatency)
{
    DramConfig cfg1 = testCfg();
    cfg1.computeBanks = 1;
    DramConfig cfg2 = testCfg();
    cfg2.computeBanks = 2;

    const size_t n = 512; // two segments
    std::vector<uint64_t> da(n, 3), db(n, 4);

    Processor p1(cfg1), p2(cfg2);
    for (Processor *p : {&p1, &p2}) {
        const auto a = p->alloc(n, 8);
        const auto b = p->alloc(n, 8);
        const auto y = p->alloc(n, 8);
        p->store(a, da);
        p->store(b, db);
        p->run(OpKind::Add, y, a, b);
        EXPECT_EQ(p->load(y), std::vector<uint64_t>(n, 7));
    }
    const auto s1 = p1.computeStats();
    const auto s2 = p2.computeStats();
    EXPECT_EQ(s1.aaps, s2.aaps) << "same total work";
    EXPECT_DOUBLE_EQ(s2.latencyNs, s1.latencyNs / 2)
        << "two banks halve the serialized latency";
}

TEST(Processor, StatsResetWorks)
{
    Processor p(testCfg());
    const auto a = p.alloc(10, 4);
    const auto y = p.alloc(10, 4);
    p.store(a, std::vector<uint64_t>(10, 5));
    p.run(OpKind::Relu, y, a);
    EXPECT_GT(p.computeStats().aaps, 0u);
    p.resetStats();
    EXPECT_EQ(p.computeStats().aaps, 0u);
    EXPECT_DOUBLE_EQ(p.transferStats().energyPj, 0.0);
}

TEST(Processor, ProgramCacheIsPerWidth)
{
    Processor p(testCfg());
    const auto &p8 = p.program(OpKind::Add, 8);
    const auto &p16 = p.program(OpKind::Add, 16);
    EXPECT_NE(&p8, &p16);
    EXPECT_EQ(&p8, &p.program(OpKind::Add, 8));
    EXPECT_GT(p16.ops.size(), p8.ops.size());
}

TEST(Processor, SixtyFourBitOperations)
{
    // 64-bit vectors stress the row allocator (3 x 64 rows + deep
    // scratch) and the full carry chain.
    DramConfig cfg = DramConfig::forTesting(256, 768);
    Rng rng(0x64);
    const size_t n = 300;
    std::vector<uint64_t> da(n), db(n);
    for (size_t i = 0; i < n; ++i) {
        da[i] = rng.next();
        db[i] = rng.next();
    }
    for (OpKind op : {OpKind::Add, OpKind::Sub, OpKind::Gt,
                      OpKind::BitXor}) {
        Processor p(cfg);
        const auto sig = signatureOf(op, 64);
        const auto a = p.alloc(n, 64);
        const auto b = p.alloc(n, 64);
        const auto y = p.alloc(n, sig.outWidth);
        p.store(a, da);
        p.store(b, db);
        p.run(op, y, a, b);
        const auto got = p.load(y);
        for (size_t i = 0; i < n; ++i)
            ASSERT_EQ(got[i], referenceOp(op, 64, da[i], db[i]))
                << toString(op) << " lane " << i;
    }
}

TEST(Processor, BackendNames)
{
    EXPECT_STREQ(toString(Backend::Simdram), "SIMDRAM");
    EXPECT_STREQ(toString(Backend::SimdramNaive), "SIMDRAM-naive");
    EXPECT_STREQ(toString(Backend::Ambit), "Ambit");
}

/** Every op x width x backend, end to end vs the host kernels. */
class ProcessorOpTest
    : public ::testing::TestWithParam<
          std::tuple<OpKind, size_t, Backend>>
{
};

TEST_P(ProcessorOpTest, MatchesHostKernels)
{
    const auto [op, width, backend] = GetParam();
    Processor p(testCfg(), backend);
    const auto sig = signatureOf(op, width);
    const size_t n = 300; // crosses a segment boundary
    const uint64_t mask =
        width >= 64 ? ~0ULL : ((1ULL << width) - 1);

    Rng rng(0x9e3 + width);
    std::vector<uint64_t> da(n), db(n), ds(n);
    for (size_t i = 0; i < n; ++i) {
        da[i] = rng.next() & mask;
        db[i] = rng.next() & mask;
        ds[i] = rng.next() & 1;
    }

    const auto a = p.alloc(n, width);
    const auto b = p.alloc(n, width);
    const auto sel = p.alloc(n, 1);
    const auto y = p.alloc(n, sig.outWidth);
    p.store(a, da);
    if (sig.numInputs == 2)
        p.store(b, db);
    if (sig.hasSel)
        p.store(sel, ds);

    if (sig.numInputs == 1)
        p.run(op, y, a);
    else if (!sig.hasSel)
        p.run(op, y, a, b);
    else
        p.run(op, y, a, b, sel);

    const auto got = p.load(y);
    const auto expect = hostBulkOp(op, width, da,
                                   sig.numInputs == 2
                                       ? db
                                       : std::vector<uint64_t>(),
                                   sig.hasSel
                                       ? ds
                                       : std::vector<uint64_t>());
    for (size_t i = 0; i < n; ++i)
        ASSERT_EQ(got[i], expect[i])
            << toString(op) << " w=" << width << " lane " << i
            << " backend=" << toString(backend);
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, ProcessorOpTest,
    ::testing::Combine(::testing::ValuesIn(kAllOps),
                       ::testing::Values(size_t{8}, size_t{16}),
                       ::testing::Values(Backend::Simdram,
                                         Backend::Ambit)),
    [](const auto &info) {
        return toString(std::get<0>(info.param)) + "_w" +
               std::to_string(std::get<1>(info.param)) + "_" +
               (std::get<2>(info.param) == Backend::Simdram
                    ? "simdram"
                    : "ambit");
    });

/** Compares the full DRAM state of two processors' devices. */
void
expectSameDeviceState(Processor &a, Processor &b)
{
    DramDevice &da = a.device();
    DramDevice &db = b.device();
    ASSERT_EQ(da.bankCount(), db.bankCount());
    for (size_t bank = 0; bank < da.bankCount(); ++bank) {
        Bank &ba = da.bank(bank);
        Bank &bb = db.bank(bank);
        ASSERT_EQ(ba.subarrayCount(), bb.subarrayCount());
        for (size_t s = 0; s < ba.subarrayCount(); ++s) {
            ASSERT_EQ(ba.materialized(s), bb.materialized(s))
                << "bank " << bank << " sub " << s;
            if (!ba.materialized(s))
                continue;
            Subarray &sa = ba.subarray(s);
            Subarray &sb = bb.subarray(s);
            for (size_t row = 0; row < sa.dataRowCount(); ++row)
                ASSERT_EQ(sa.peekData(row), sb.peekData(row))
                    << "bank " << bank << " sub " << s << " row "
                    << row;
            for (SpecialRow sr :
                 {SpecialRow::T0, SpecialRow::T1, SpecialRow::T2,
                  SpecialRow::T3, SpecialRow::DCC0P,
                  SpecialRow::DCC1P})
                ASSERT_EQ(sa.peek(sr), sb.peek(sr))
                    << "bank " << bank << " sub " << s << " "
                    << toString(sr);
        }
    }
}

/** Compares DramStats: counters exactly, doubles to the last ulps. */
void
expectSameStats(const DramStats &a, const DramStats &b)
{
    EXPECT_EQ(a.activates, b.activates);
    EXPECT_EQ(a.multiActivates, b.multiActivates);
    EXPECT_EQ(a.precharges, b.precharges);
    EXPECT_EQ(a.aaps, b.aaps);
    EXPECT_EQ(a.aps, b.aps);
    EXPECT_EQ(a.reads, b.reads);
    EXPECT_EQ(a.writes, b.writes);
    // The batched plan adds one precomputed aggregate per segment
    // where the reference path accumulates per command; the sums can
    // differ in the last ulps.
    EXPECT_DOUBLE_EQ(a.latencyNs, b.latencyNs);
    EXPECT_DOUBLE_EQ(a.energyPj, b.energyPj);
}

/**
 * Replay equivalence: for each OpKind x backend x width, the batched
 * ReplayPlan path must produce the same memory state and the same
 * DramStats as the seed per-segment ControlUnit path.
 */
class ReplayEquivalenceTest
    : public ::testing::TestWithParam<
          std::tuple<OpKind, size_t, Backend>>
{
};

TEST_P(ReplayEquivalenceTest, BatchedMatchesReference)
{
    const auto [op, width, backend] = GetParam();
    Processor pref(testCfg(), backend);
    Processor pbat(testCfg(), backend);
    pref.setReplayMode(ReplayMode::Reference);
    pbat.setReplayMode(ReplayMode::Batched);

    const auto sig = signatureOf(op, width);
    const size_t n = 300; // crosses a segment boundary
    const uint64_t mask =
        width >= 64 ? ~0ULL : ((1ULL << width) - 1);
    Rng rng(0x5eed + width);
    std::vector<uint64_t> da(n), db(n), ds(n);
    for (size_t i = 0; i < n; ++i) {
        da[i] = rng.next() & mask;
        db[i] = rng.next() & mask;
        ds[i] = rng.next() & 1;
    }

    auto runOn = [&](Processor &p) {
        const auto a = p.alloc(n, width);
        const auto b = p.alloc(n, width);
        const auto sel = p.alloc(n, 1);
        const auto y = p.alloc(n, sig.outWidth);
        p.store(a, da);
        if (sig.numInputs == 2)
            p.store(b, db);
        if (sig.hasSel)
            p.store(sel, ds);
        if (sig.numInputs == 1)
            p.run(op, y, a);
        else if (!sig.hasSel)
            p.run(op, y, a, b);
        else
            p.run(op, y, a, b, sel);
        return p.load(y);
    };

    const auto out_ref = runOn(pref);
    const auto out_bat = runOn(pbat);
    EXPECT_EQ(out_bat, out_ref);
    expectSameDeviceState(pbat, pref);
    expectSameStats(pbat.computeStats(), pref.computeStats());
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, ReplayEquivalenceTest,
    ::testing::Combine(::testing::ValuesIn(kAllOps),
                       ::testing::Values(size_t{8}, size_t{16},
                                         size_t{32}),
                       ::testing::Values(Backend::Simdram,
                                         Backend::SimdramNaive,
                                         Backend::Ambit)),
    [](const auto &info) {
        const Backend b = std::get<2>(info.param);
        return toString(std::get<0>(info.param)) + "_w" +
               std::to_string(std::get<1>(info.param)) + "_" +
               (b == Backend::Simdram
                    ? "simdram"
                    : (b == Backend::SimdramNaive ? "naive"
                                                  : "ambit"));
    });

/** The schedule path is live: every library μProgram compiles. */
TEST(Processor, EveryLibraryPlanCompiles)
{
    std::vector<OpKind> ops(kAllOps.begin(), kAllOps.end());
    ops.insert(ops.end(), kExtensionOps.begin(), kExtensionOps.end());
    for (Backend backend :
         {Backend::Simdram, Backend::SimdramNaive, Backend::Ambit}) {
        Processor p(testCfg(), backend);
        for (OpKind op : ops)
            for (size_t width : {size_t{8}, size_t{16}, size_t{32}})
                EXPECT_TRUE(ReplayPlan(p.program(op, width), p.config())
                                .compiled())
                    << toString(op) << " w=" << width << " "
                    << toString(backend);
    }
}

/**
 * Replay equivalence on the wide shape the apps run (4,096-bit rows,
 * two compute banks, three segments per subarray), over a chain of
 * three executions into one destination. The schedule's write-back
 * meets every payload state: rows that share the fresh all-zero
 * payload, the previous execution's unshared and group-shared
 * payloads, and payloads an outside BitRow copy holds. Those copies
 * (every data row and T0 of one subarray) keep their contents.
 */
class WideReplayChainTest
    : public ::testing::TestWithParam<std::tuple<OpKind, size_t>>
{
};

TEST_P(WideReplayChainTest, BatchedMatchesReference)
{
    const auto [op, width] = GetParam();
    DramConfig cfg = DramConfig::forTesting(4096, 1024);
    cfg.computeBanks = 2;
    Processor pref(cfg);
    Processor pbat(cfg);
    pref.setReplayMode(ReplayMode::Reference);

    const auto sig = signatureOf(op, width);
    const size_t n = 5 * 4096 + 1000; // 6 segments, 3 per bank
    const uint64_t mask =
        width >= 64 ? ~0ULL : ((1ULL << width) - 1);
    Rng rng(0xc4a1 + width);

    std::vector<Processor::VecHandle> ha, hb, hs, hy;
    for (Processor *p : {&pref, &pbat}) {
        ha.push_back(p->alloc(n, width));
        hb.push_back(p->alloc(n, width));
        hs.push_back(p->alloc(n, 1));
        hy.push_back(p->alloc(n, sig.outWidth));
    }

    for (int step = 0; step < 3; ++step) {
        std::vector<uint64_t> da(n), db(n), ds(n);
        for (size_t i = 0; i < n; ++i) {
            da[i] = rng.next() & mask;
            db[i] = rng.next() & mask;
            ds[i] = rng.next() & 1;
        }
        Subarray &held = pbat.device().bank(0).subarray(0);
        std::vector<BitRow> copies, expect;
        std::vector<uint64_t> out[2];
        for (size_t k = 0; k < 2; ++k) {
            Processor &p = k == 0 ? pref : pbat;
            p.store(ha[k], da);
            if (sig.numInputs == 2)
                p.store(hb[k], db);
            if (sig.hasSel)
                p.store(hs[k], ds);
            if (k == 1 && step == 2) {
                for (size_t row = 0; row < held.dataRowCount(); ++row)
                    copies.push_back(held.peekData(row));
                copies.push_back(held.peek(SpecialRow::T0));
                for (const BitRow &c : copies)
                    expect.push_back(c.clone());
            }
            if (sig.numInputs == 1)
                p.run(op, hy[k], ha[k]);
            else if (!sig.hasSel)
                p.run(op, hy[k], ha[k], hb[k]);
            else
                p.run(op, hy[k], ha[k], hb[k], hs[k]);
            out[k] = p.load(hy[k]);
        }
        ASSERT_EQ(out[1], out[0]) << "step " << step;
        expectSameDeviceState(pbat, pref);
        expectSameStats(pbat.computeStats(), pref.computeStats());
        for (size_t i = 0; i < copies.size(); ++i)
            ASSERT_EQ(copies[i], expect[i]) << "outside copy " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AppsOps, WideReplayChainTest,
    ::testing::Combine(::testing::Values(OpKind::Add, OpKind::Sub,
                                         OpKind::Abs, OpKind::Gt,
                                         OpKind::IfElse),
                       ::testing::Values(size_t{8}, size_t{32})),
    [](const auto &info) {
        return toString(std::get<0>(info.param)) + "_w" +
               std::to_string(std::get<1>(info.param));
    });

/**
 * One FaultPlan corrupts the same TRAs on the batched and the
 * reference path. Its ordinals count TRAs device-wide in execution
 * order, so both paths must replay segment after segment even when
 * the segments live in different banks.
 */
TEST(Processor, FaultPlanHitsSameTrasOnBothReplayPaths)
{
    DramConfig cfg = testCfg();
    cfg.computeBanks = 2;
    Processor pref(cfg);
    Processor pbat(cfg);
    pref.setReplayMode(ReplayMode::Reference);
    const FaultPlan plan{{3, 17, 40, 41, 200}};
    auto iref = FaultInjector::deterministic(plan);
    auto ibat = FaultInjector::deterministic(plan);
    pref.setFaultInjector(iref.get());
    pbat.setFaultInjector(ibat.get());

    const size_t n = 300; // two segments, one per bank
    Rng rng(0xfa17);
    std::vector<uint64_t> da(n);
    for (auto &x : da)
        x = rng.next() & 0xffff;
    for (Processor *p : {&pref, &pbat}) {
        const auto a = p->alloc(n, 16);
        const auto y = p->alloc(n, 16);
        p->store(a, da);
        p->run(OpKind::Abs, y, a);
        p->run(OpKind::Abs, y, a);
    }
    ASSERT_GT(iref->trasObserved(), 200u);
    EXPECT_EQ(ibat->trasObserved(), iref->trasObserved());
    EXPECT_EQ(pref.computeStats().traFaults, 5u);
    EXPECT_EQ(pbat.computeStats().traFaults,
              pref.computeStats().traFaults);
    expectSameDeviceState(pbat, pref);
}

// ---------------------------------------------------------------
// free(): segment recycling and misuse diagnostics
// ---------------------------------------------------------------

TEST(Processor, FreeRecyclesSegmentsForSameShape)
{
    Processor p(testCfg());
    // Exhaust the data rows with same-shape vectors...
    std::vector<Processor::VecHandle> held;
    for (;;) {
        try {
            held.push_back(p.alloc(256, 16));
        } catch (const FatalError &) {
            break;
        }
    }
    ASSERT_GT(held.size(), 2u);
    // ... so only recycling can satisfy further allocations: the
    // bump pointer itself is spent.
    EXPECT_THROW(p.alloc(256, 16), FatalError);
    p.free(held.back());
    held.pop_back();
    const auto again = p.alloc(256, 16);
    // The recycled vector is fully usable.
    std::vector<uint64_t> data(256, 0x1234);
    p.store(again, data);
    EXPECT_EQ(p.load(again), data);
    // A free of shape A does not satisfy shape B (exact row-count
    // match keeps the co-location guarantee).
    p.free(held.back());
    held.pop_back();
    EXPECT_THROW(p.alloc(256, 32), FatalError);
    EXPECT_NO_THROW(p.alloc(256, 16));
}

TEST(Processor, FreedHandleIsPoison)
{
    Processor p(testCfg());
    const auto v = p.alloc(64, 8);
    const auto w = p.alloc(64, 8);
    p.free(v);
    EXPECT_THROW(p.load(v), FatalError);
    EXPECT_THROW(p.store(v, std::vector<uint64_t>(64, 0)),
                 FatalError);
    EXPECT_THROW(p.run(OpKind::Add, w, v, v), FatalError);
    EXPECT_THROW(p.free(v), FatalError); // double free
    // The untouched handle keeps working.
    std::vector<uint64_t> data(64, 9);
    p.store(w, data);
    EXPECT_EQ(p.load(w), data);
}

/**
 * Steady-state replay and host transfers allocate nothing: once the
 * μPrograms, plans and per-thread buffers exist, Add/Sub/Abs/Gt/IfElse
 * on 4,096-lane segments, store() and loadInto() make no heap
 * allocation (payloads are reused in place, bindings live on the
 * stack, transposition writes straight into the caller's buffer).
 */
TEST(Processor, SteadyStateReplayAndTransfersAllocateNothing)
{
    DramConfig cfg = DramConfig::forTesting(4096, 1024);
    cfg.computeBanks = 2;
    Processor p(cfg);
    const size_t n = 4 * cfg.rowBits;
    const auto a = p.alloc(n, 16);
    const auto b = p.alloc(n, 16);
    const auto y = p.alloc(n, 16);
    const auto z = p.alloc(n, 16);
    const auto f = p.alloc(n, 1);
    Rng rng(0xa110c);
    std::vector<uint64_t> da(n), db(n), out(n);
    for (size_t i = 0; i < n; ++i) {
        da[i] = rng.next() & 0xffff;
        db[i] = rng.next() & 0xffff;
    }
    auto round = [&] {
        p.store(a, da.data(), n);
        p.store(b, db.data(), n);
        p.run(OpKind::Add, y, a, b);
        p.run(OpKind::Sub, z, a, b);
        p.run(OpKind::Abs, y, z);
        p.run(OpKind::Gt, f, a, b);
        p.run(OpKind::IfElse, z, a, b, f);
        p.loadInto(y, out.data());
        p.loadInto(z, out.data());
    };
    round(); // compiles μPrograms and plans, grows scratch
    round(); // settles every row's payload
    g_news.store(0);
    g_count_news.store(true);
    round();
    g_count_news.store(false);
    EXPECT_EQ(g_news.load(), 0u);
    for (size_t i = 0; i < n; ++i)
        ASSERT_EQ(out[i], da[i] > db[i] ? da[i] : db[i]) << i;
}

} // namespace
} // namespace simdram
