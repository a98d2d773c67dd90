/**
 * @file
 * Tests for the multi-tenant stream service (src/tenant): namespace
 * isolation (foreign/released ids are typed, synchronous, side-effect-
 * free rejections; one tenant's compute never touches another's
 * data), object and stream quotas under both Shed and Block, the
 * deterministic deficit-weighted round-robin dispatch order, the
 * flooding-tenant isolation guarantee, malformed-stream containment,
 * per-tenant observability roll-ups summing to the fleet totals, and
 * leak-free teardown via releaseObject/unregisterTenant. Runs under
 * ThreadSanitizer in CI.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "runtime/stream_executor.h"
#include "stream_testutil.h"
#include "tenant/tenant_executor.h"

namespace simdram
{
namespace
{

using testutil::randomData;
using testutil::testCfg;

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
    EXPECT_DOUBLE_EQ(a.latencyNs, b.latencyNs);
    EXPECT_DOUBLE_EQ(a.energyPj, b.energyPj);
}

/** y = a + a over @p n 8-bit lanes, as one stream. */
std::vector<BbopInstr>
doubleStream(uint16_t a, uint16_t y)
{
    return {BbopInstr::trsp(a, 8), BbopInstr::trsp(y, 8),
            BbopInstr::binary(OpKind::Add, 8, y, a, a),
            BbopInstr::trspInv(y, 8), BbopInstr::trspInv(a, 8)};
}

/** A repeatable 2-instruction no-op-ish stream (trsp round trip). */
std::vector<BbopInstr>
bounceStream(uint16_t a)
{
    return {BbopInstr::trsp(a, 8), BbopInstr::trspInv(a, 8)};
}

// ---- completion order ------------------------------------------------

/**
 * Settle before resolve, as a closed-loop probe: 8 clients, each its
 * own tenant with a one-stream Shed quota, submit 200 streams back to
 * back. No client ever has more than its quota in flight, so any shed
 * is spurious, and the tenant's counters must be final the moment
 * wait() returns.
 */
TEST(Tenant, ClosedLoopClientsAreNeverShedAndSeeFinalCounters)
{
    DeviceGroup g(testCfg(), 2);
    StreamExecutor ex(g);
    TenantExecutor te(ex);
    constexpr size_t kClients = 8, kSubmits = 200;
    std::vector<uint32_t> tids;
    std::vector<uint16_t> objs;
    for (size_t c = 0; c < kClients; ++c) {
        TenantConfig cfg;
        cfg.name = "client" + std::to_string(c);
        cfg.maxPendingStreams = 1;
        cfg.onFull = TenantQuotaPolicy::Shed;
        tids.push_back(te.registerTenant(cfg));
        objs.push_back(te.defineObject(tids.back(), 64, 8));
    }

    std::atomic<size_t> sheds{0}, stale{0};
    std::vector<std::thread> ths;
    for (size_t c = 0; c < kClients; ++c)
        ths.emplace_back([&, c] {
            uint64_t done = 0;
            for (size_t k = 0; k < kSubmits; ++k) {
                TenantStreamHandle h;
                try {
                    h = te.submit(tids[c], bounceStream(objs[c]));
                } catch (const TenantQuotaError &) {
                    sheds.fetch_add(1);
                    continue;
                }
                h.wait();
                ++done;
                const TenantStats s = te.stats(tids[c]);
                if (s.executed != done || s.submitted != done)
                    stale.fetch_add(1);
            }
        });
    for (auto &th : ths)
        th.join();
    EXPECT_EQ(sheds.load(), 0u);
    EXPECT_EQ(stale.load(), 0u);
    EXPECT_EQ(te.fleetStats().shed, 0u);
    EXPECT_EQ(te.fleetStats().executed, kClients * kSubmits);
}

// ---- namespace isolation --------------------------------------------

TEST(Tenant, NamespacesAreIsolatedAndForeignIdsRejected)
{
    DeviceGroup g(testCfg(), 2);
    StreamExecutor ex(g);
    TenantExecutor te(ex);

    const uint32_t ta = te.registerTenant({/*name=*/"alice"});
    const uint32_t tb = te.registerTenant({/*name=*/"bob"});
    const size_t n = 200;

    // Both tenants get virtual id 0 and 1 — same names, different
    // physical objects.
    const uint16_t aa = te.defineObject(ta, n, 8);
    const uint16_t ay = te.defineObject(ta, n, 8);
    const uint16_t ba = te.defineObject(tb, n, 8);
    EXPECT_EQ(aa, ba);
    const uint16_t by = te.defineObject(tb, n, 8);
    EXPECT_EQ(ay, by);

    const auto da = randomData(n, 0xff, 1);
    const auto db = randomData(n, 0xff, 2);
    te.writeObject(ta, aa, da);
    te.writeObject(tb, ba, db);

    // Alice computes into HER vid 1; Bob's vid 1 must stay intact.
    te.submit(ta, doubleStream(aa, ay)).wait();
    const auto outA = te.readObject(ta, ay);
    for (size_t i = 0; i < n; ++i)
        ASSERT_EQ(outA[i], (da[i] * 2) & 0xff) << i;
    EXPECT_EQ(te.readObject(tb, ba), db);

    // An id beyond the tenant's namespace is rejected synchronously
    // with the typed BbopError — even though the PHYSICAL executor
    // has more objects than either tenant's table.
    const uint64_t beforeA = te.stats(ta).submitted;
    EXPECT_THROW(te.submit(ta, bounceStream(/*vid=*/2)), BbopError);
    EXPECT_THROW(te.objectShape(ta, 2), BbopError);
    EXPECT_THROW(te.readObject(ta, 7), BbopError);
    EXPECT_THROW(te.writeObject(ta, 7, da), BbopError);
    // ... and side-effect-free: nothing was admitted or shed.
    EXPECT_EQ(te.stats(ta).submitted, beforeA);
    EXPECT_EQ(te.stats(ta).shed, 0u);
    te.drain();
    EXPECT_EQ(te.stats(ta).failed, 0u);

    // Shapes resolve through the translation.
    EXPECT_EQ(te.objectShape(tb, ba).elements, n);
}

TEST(Tenant, MalformedStreamFailsOnlyItsOwner)
{
    DeviceGroup g(testCfg(), 2);
    StreamExecutor ex(g);
    TenantExecutor te(ex);
    const uint32_t ta = te.registerTenant({"alice"});
    const uint32_t tb = te.registerTenant({"bob"});
    const size_t n = 150;
    const uint16_t aa = te.defineObject(ta, n, 8);
    const uint16_t ay = te.defineObject(ta, n, 8);
    const uint16_t ba = te.defineObject(tb, n, 8);
    const uint16_t by = te.defineObject(tb, n, 8);
    const auto db = randomData(n, 0xff, 5);
    te.writeObject(tb, ba, db);

    // Alice's stream is addressable but malformed (Op on an object
    // still in horizontal layout): admitted, rejected at dispatch by
    // the validator, error delivered through HER handle only.
    TenantStreamHandle bad = te.submit(
        ta, {BbopInstr::binary(OpKind::Add, 8, ay, aa, aa)});
    TenantStreamHandle good = te.submit(tb, doubleStream(ba, by));
    EXPECT_THROW(bad.wait(), BbopError);
    const auto outB = good.wait();
    EXPECT_GT(outB.instructions, 0u);
    const auto img = te.readObject(tb, by);
    for (size_t i = 0; i < n; ++i)
        ASSERT_EQ(img[i], (db[i] * 2) & 0xff) << i;

    te.drain();
    EXPECT_EQ(te.stats(ta).failed, 1u);
    EXPECT_EQ(te.stats(ta).executed, 0u);
    EXPECT_EQ(te.stats(tb).failed, 0u);
    EXPECT_EQ(te.stats(tb).executed, 1u);
    // The failed stream still counts as submitted, and Alice keeps
    // working afterwards.
    EXPECT_EQ(te.stats(ta).submitted, 1u);
    te.submit(ta, bounceStream(aa)).wait();
    te.drain();
    EXPECT_EQ(te.stats(ta).executed, 1u);
}

// ---- quotas ---------------------------------------------------------

TEST(Tenant, ObjectQuotasThrowTypedAndSideEffectFree)
{
    DeviceGroup g(testCfg(), 2);
    StreamExecutor ex(g);
    TenantExecutor te(ex);
    TenantConfig cfg;
    cfg.name = "bounded";
    cfg.maxObjects = 2;
    cfg.maxObjectBits = 100 * 8 * 2;
    const uint32_t t = te.registerTenant(cfg);
    const uint32_t other = te.registerTenant({"free"});

    const uint16_t a = te.defineObject(t, 100, 8);
    // Bit budget: a second 100x8 object fits exactly; 101x8 would
    // not, and the rejection must leave the budget untouched.
    EXPECT_THROW(te.defineObject(t, 101, 8), TenantQuotaError);
    EXPECT_EQ(te.stats(t).liveObjects, 1u);
    EXPECT_EQ(te.stats(t).liveObjectBits, 100u * 8u);
    const uint16_t b = te.defineObject(t, 100, 8);
    // Object-count budget now exhausted.
    EXPECT_THROW(te.defineObject(t, 10, 8), TenantQuotaError);
    EXPECT_EQ(te.stats(t).liveObjects, 2u);

    // Quotas are per tenant: the unbounded tenant is unaffected.
    te.defineObject(other, 300, 8);

    // Releasing frees budget; the namespace slot is tombstoned, not
    // reused — the new object gets a NEW virtual id.
    te.releaseObject(t, a);
    EXPECT_EQ(te.stats(t).liveObjects, 1u);
    const uint16_t c = te.defineObject(t, 100, 8);
    EXPECT_NE(c, a);
    EXPECT_NE(c, b);
    EXPECT_THROW(te.submit(t, bounceStream(a)), BbopError);
    te.submit(t, bounceStream(c)).wait();
}

TEST(Tenant, StreamQuotaShedsTypedAndSideEffectFree)
{
    DeviceGroup g(testCfg(), 2);
    StreamExecutor ex(g);
    TenantExecutorOptions opts;
    opts.manualDispatch = true; // nothing drains until drain()
    TenantExecutor te(ex, opts);
    TenantConfig cfg;
    cfg.name = "shedder";
    cfg.maxPendingStreams = 2;
    cfg.onFull = TenantQuotaPolicy::Shed;
    const uint32_t t = te.registerTenant(cfg);
    const uint16_t a = te.defineObject(t, 100, 8);

    TenantStreamHandle h1 = te.submit(t, bounceStream(a));
    TenantStreamHandle h2 = te.submit(t, bounceStream(a));
    EXPECT_THROW(te.submit(t, bounceStream(a)), TenantQuotaError);
    EXPECT_EQ(te.stats(t).submitted, 2u);
    EXPECT_EQ(te.stats(t).shed, 1u);

    te.drain();
    EXPECT_TRUE(h1.done());
    EXPECT_TRUE(h2.done());
    EXPECT_EQ(te.stats(t).executed, 2u);
    // Quota freed: admission works again.
    te.submit(t, bounceStream(a));
    te.drain();
    EXPECT_EQ(te.stats(t).executed, 3u);
    EXPECT_EQ(te.fleetStats().shed, 1u);
}

TEST(Tenant, StreamQuotaBlocksUntilCompletion)
{
    DeviceGroup g(testCfg(), 2);
    StreamExecutor ex(g);
    // Auto dispatch: the scheduler thread drains while the submitter
    // blocks on its quota.
    TenantExecutor te(ex);
    TenantConfig cfg;
    cfg.name = "blocker";
    cfg.maxPendingStreams = 1;
    cfg.onFull = TenantQuotaPolicy::Block;
    const uint32_t t = te.registerTenant(cfg);
    const uint16_t a = te.defineObject(t, 100, 8);

    // Every submit past the first must wait for its predecessor; all
    // are eventually admitted, none shed.
    constexpr size_t kStreams = 12;
    for (size_t i = 0; i < kStreams; ++i)
        te.submit(t, bounceStream(a));
    te.drain();
    EXPECT_EQ(te.stats(t).submitted, kStreams);
    EXPECT_EQ(te.stats(t).executed, kStreams);
    EXPECT_EQ(te.stats(t).shed, 0u);
}

// ---- weighted-fair scheduling ---------------------------------------

TEST(Tenant, DeficitRoundRobinDispatchOrderIsDeterministic)
{
    DeviceGroup g(testCfg(), 2);
    StreamExecutor ex(g);
    TenantExecutorOptions opts;
    opts.manualDispatch = true;
    opts.recordDispatchOrder = true;
    opts.quantumInstructions = 2; // == bounceStream cost
    TenantExecutor te(ex, opts);
    TenantConfig ca, cb;
    ca.name = "w1";
    ca.weight = 1;
    cb.name = "w3";
    cb.weight = 3;
    const uint32_t ta = te.registerTenant(ca);
    const uint32_t tb = te.registerTenant(cb);
    const uint16_t oa = te.defineObject(ta, 100, 8);
    const uint16_t ob = te.defineObject(tb, 100, 8);

    // Backlog both queues BEFORE any dispatch, then drain: the DRR
    // order depends only on weights and queue contents. Each stream
    // costs 2 instructions; per sweep w1 may dispatch 1 and w3 may
    // dispatch 3.
    for (int i = 0; i < 2; ++i)
        te.submit(ta, bounceStream(oa));
    for (int i = 0; i < 6; ++i)
        te.submit(tb, bounceStream(ob));
    te.drain();

    const std::vector<uint32_t> want = {ta, tb, tb, tb,
                                        ta, tb, tb, tb};
    EXPECT_EQ(te.dispatchOrder(), want);
    EXPECT_EQ(te.stats(ta).executed, 2u);
    EXPECT_EQ(te.stats(tb).executed, 6u);
}

TEST(Tenant, FloodingTenantCannotStallOrStarveVictim)
{
    DeviceGroup g(testCfg(), 2);
    StreamExecutor ex(g);
    TenantExecutorOptions opts;
    opts.manualDispatch = true;
    opts.recordDispatchOrder = true;
    opts.quantumInstructions = 2;
    TenantExecutor te(ex, opts);
    TenantConfig flood;
    flood.name = "flooder";
    flood.maxPendingStreams = 8;
    flood.onFull = TenantQuotaPolicy::Shed;
    const uint32_t tf = te.registerTenant(flood);
    const uint32_t tv = te.registerTenant({"victim"});
    const uint16_t of = te.defineObject(tf, 100, 8);
    const uint16_t ov = te.defineObject(tv, 100, 8);

    // The flooder hammers 100 submissions: its quota sheds the
    // excess without ever touching the victim.
    size_t shed = 0;
    for (int i = 0; i < 100; ++i) {
        try {
            te.submit(tf, bounceStream(of));
        } catch (const TenantQuotaError &) {
            ++shed;
        }
    }
    constexpr size_t kVictim = 4;
    for (size_t i = 0; i < kVictim; ++i)
        te.submit(tv, bounceStream(ov));
    te.drain();

    EXPECT_EQ(shed, 92u);
    EXPECT_EQ(te.stats(tf).shed, 92u);
    EXPECT_EQ(te.stats(tf).executed, 8u);
    EXPECT_EQ(te.stats(tv).executed, kVictim);
    EXPECT_EQ(te.stats(tv).shed, 0u);

    // Equal weights: while both are backlogged the victim dispatches
    // every other slot, so its i-th stream sits at position <=
    // 2 * (i + 1) — a hard bound on flooding-induced queueing delay.
    const auto order = te.dispatchOrder();
    size_t seen = 0;
    for (size_t pos = 0; pos < order.size(); ++pos) {
        if (order[pos] != tv)
            continue;
        ++seen;
        EXPECT_LE(pos + 1, 2 * seen)
            << "victim stream " << seen << " delayed to " << pos;
    }
    EXPECT_EQ(seen, kVictim);
}

// ---- observability roll-ups -----------------------------------------

TEST(Tenant, PerTenantRollupsSumToFleetTotals)
{
    DeviceGroup g(testCfg(), 2);
    StreamExecutor ex(g);
    TenantExecutor te(ex);
    const size_t n = 150;
    constexpr size_t kTenants = 3;
    std::vector<uint32_t> tids;
    std::vector<uint16_t> as, ys;
    for (size_t i = 0; i < kTenants; ++i) {
        TenantConfig cfg;
        cfg.name = "t" + std::to_string(i);
        cfg.weight = i + 1;
        tids.push_back(te.registerTenant(cfg));
        as.push_back(te.defineObject(tids[i], n, 8));
        ys.push_back(te.defineObject(tids[i], n, 8));
        te.writeObject(tids[i], as[i],
                       randomData(n, 0xff, 40 + i));
    }

    // Different per-tenant load, submitted concurrently (the
    // scheduler and reaper threads race the submitters — the TSan
    // meat of this suite).
    std::vector<std::thread> threads;
    for (size_t i = 0; i < kTenants; ++i)
        threads.emplace_back([&, i] {
            te.submit(tids[i], doubleStream(as[i], ys[i]));
            for (size_t k = 0; k < 2 * (i + 1); ++k)
                te.submit(tids[i], bounceStream(as[i]));
        });
    for (auto &th : threads)
        th.join();
    te.drain();

    TenantStats sum;
    uint64_t latCount = 0;
    for (size_t i = 0; i < kTenants; ++i) {
        const TenantStats s = te.stats(tids[i]);
        EXPECT_EQ(s.submitted, 1u + 2u * (i + 1));
        EXPECT_EQ(s.executed, s.submitted);
        sum.compute = merge(sum.compute, s.compute);
        sum.transfer = merge(sum.transfer, s.transfer);
        sum.submitted += s.submitted;
        sum.executed += s.executed;
        sum.failed += s.failed;
        sum.shed += s.shed;
        sum.instructions += s.instructions;
        sum.cachedInstructions += s.cachedInstructions;
        sum.optimizedInstructions += s.optimizedInstructions;
        sum.liveObjects += s.liveObjects;
        sum.liveObjectBits += s.liveObjectBits;
        EXPECT_EQ(te.latency(tids[i]).count(), s.executed);
        latCount += te.latency(tids[i]).count();
    }

    // The fleet roll-up is accumulated independently in the same
    // code paths; under drain() the per-tenant sums must match it
    // exactly — counters add, DramStats merge.
    const TenantStats fleet = te.fleetStats();
    expectSameStats(sum.compute, fleet.compute);
    expectSameStats(sum.transfer, fleet.transfer);
    EXPECT_EQ(sum.submitted, fleet.submitted);
    EXPECT_EQ(sum.executed, fleet.executed);
    EXPECT_EQ(sum.failed, fleet.failed);
    EXPECT_EQ(sum.shed, fleet.shed);
    EXPECT_EQ(sum.instructions, fleet.instructions);
    EXPECT_EQ(sum.cachedInstructions, fleet.cachedInstructions);
    EXPECT_EQ(sum.optimizedInstructions, fleet.optimizedInstructions);
    EXPECT_EQ(sum.liveObjects, fleet.liveObjects);
    EXPECT_EQ(sum.liveObjectBits, fleet.liveObjectBits);

    // Merged latency: fleet quantiles rank over every tenant's
    // samples, and the histogram merge preserves the sample count.
    const LatencyHistogram fl = te.fleetLatency();
    EXPECT_EQ(fl.count(), latCount);
    EXPECT_LE(te.latency(tids[0]).quantileNs(0.5),
              te.latency(tids[0]).quantileNs(0.99));
    EXPECT_GE(fl.maxNs(),
              std::max({te.latency(tids[0]).maxNs(),
                        te.latency(tids[1]).maxNs(),
                        te.latency(tids[2]).maxNs()}));
}

TEST(Tenant, StreamResultAggregatesSegmentsAndE2e)
{
    DeviceGroup g(testCfg(), 2);
    StreamExecutor ex(g);
    TenantExecutor te(ex);
    const uint32_t t = te.registerTenant({"solo"});
    const size_t n = 150;
    const uint16_t a = te.defineObject(t, n, 8);
    const uint16_t y = te.defineObject(t, n, 8);
    te.writeObject(t, a, randomData(n, 0xff, 9));

    const TenantStreamResult r =
        te.submit(t, doubleStream(a, y)).wait();
    ASSERT_GE(r.segments.size(), 1u);
    size_t instr = 0;
    for (const auto &s : r.segments)
        instr += s.instructions;
    EXPECT_EQ(r.instructions, instr);
    EXPECT_EQ(r.instructions, 5u);
    EXPECT_GT(r.compute.aaps + r.compute.aps, 0u);
    EXPECT_GT(r.e2eNs, 0.0);
    // e2e covers queueing + all segments, so it dominates any single
    // segment's service time.
    EXPECT_GE(r.e2eNs, r.segments.front().serviceNs());
}

// ---- teardown -------------------------------------------------------

TEST(Tenant, ReleaseAndUnregisterTearDownCleanly)
{
    DeviceGroup g(testCfg(), 2);
    StreamExecutor ex(g);
    TenantExecutor te(ex);
    const uint32_t t1 = te.registerTenant({"doomed"});
    const uint32_t t2 = te.registerTenant({"survivor"});
    const size_t n = 200;
    const uint16_t d1 = te.defineObject(t1, n, 8);
    const uint16_t s1 = te.defineObject(t2, n, 8);
    const auto ds = randomData(n, 0xff, 21);
    te.writeObject(t2, s1, ds);

    // Streams in flight when the teardown starts: release/unregister
    // must drain first, never yank rows under a running stream.
    for (int i = 0; i < 6; ++i)
        te.submit(t1, bounceStream(d1));
    for (int i = 0; i < 6; ++i)
        te.submit(t2, bounceStream(s1));
    te.unregisterTenant(t1);

    EXPECT_EQ(te.tenantCount(), 1u);
    EXPECT_EQ(te.fleetStats().liveObjects, 1u);
    // The dead id is poison...
    EXPECT_THROW(te.defineObject(t1, 10, 8), FatalError);
    EXPECT_THROW(te.submit(t1, bounceStream(d1)), FatalError);
    // ... the survivor is untouched and still serving ...
    te.drain();
    EXPECT_EQ(te.stats(t2).executed, 6u);
    EXPECT_EQ(te.readObject(t2, s1), ds);
    // ... and the released rows are reusable by a new tenant.
    const uint32_t t3 = te.registerTenant({"reborn"});
    const uint16_t d3 = te.defineObject(t3, n, 8);
    te.writeObject(t3, d3, ds);
    te.submit(t3, bounceStream(d3)).wait();
    EXPECT_EQ(te.readObject(t3, d3), ds);
}

// ---- per-tenant views -----------------------------------------------

TEST(Tenant, ViewIsAFullStreamServiceInTenantScope)
{
    DeviceGroup g(testCfg(), 2);
    StreamExecutor ex(g);
    TenantExecutor te(ex);
    const uint32_t ta = te.registerTenant({"viewed"});
    const uint32_t tb = te.registerTenant({"other"});
    StreamService &view = te.view(ta);
    const size_t n = 150;

    // Claim an id in the OTHER tenant first so physical and virtual
    // ids diverge: the view must still resolve its own id 0.
    const uint16_t bo = te.defineObject(tb, n, 8);
    (void)bo;
    const uint16_t a = view.defineObject(n, 8);
    const uint16_t y = view.defineObject(n, 8);
    EXPECT_EQ(a, 0u);
    const auto da = randomData(n, 0xff, 33);
    view.writeObject(a, da);

    // Single-stream submit returns a physical handle; sync() is a
    // per-tenant drain.
    StreamHandle h = view.submit(doubleStream(a, y));
    view.sync();
    EXPECT_TRUE(h.done());
    const auto out = view.readObject(y);
    for (size_t i = 0; i < n; ++i)
        ASSERT_EQ(out[i], (da[i] * 2) & 0xff) << i;
    EXPECT_EQ(view.objectShape(a).elements, n);

    // View ops are tenant ops: they show up in the tenant's roll-up
    // and respect its namespace.
    EXPECT_EQ(te.stats(ta).executed, 1u);
    EXPECT_EQ(te.stats(ta).liveObjects, 2u);
    EXPECT_THROW(view.submit(bounceStream(/*vid=*/9)), BbopError);
    view.releaseObject(y);
    EXPECT_EQ(te.stats(ta).liveObjects, 1u);
    EXPECT_THROW(view.readObject(y), BbopError);
}

} // namespace
} // namespace simdram
