/**
 * @file
 * Tests for the multi-device runtime: DeviceGroup sharding geometry,
 * bit-exact equivalence of sharded (sync and async) execution with a
 * single-Processor reference for every OpKind x width x backend,
 * stats equality against per-shard runs, the StreamExecutor's typed
 * per-stream rejection, and a concurrency stress test (run under
 * ThreadSanitizer in CI).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "apps/bitweaving.h"
#include "apps/brightness.h"
#include "apps/knn.h"
#include "apps/nn.h"
#include "apps/tpch.h"
#include "common/error.h"
#include "common/rng.h"
#include "dram/fault_injector.h"
#include "runtime/stream_executor.h"
#include "stream_testutil.h"

namespace simdram
{
namespace
{

DramConfig
testCfg()
{
    return DramConfig::forTesting(256, 512);
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
    EXPECT_DOUBLE_EQ(a.latencyNs, b.latencyNs);
    EXPECT_DOUBLE_EQ(a.energyPj, b.energyPj);
}

std::vector<uint64_t>
randomData(size_t n, uint64_t mask, uint64_t seed)
{
    Rng rng(seed);
    std::vector<uint64_t> v(n);
    for (auto &x : v)
        x = rng.next() & mask;
    return v;
}

// ---------------------------------------------------------------
// DeviceGroup: sharding geometry and synchronous operation
// ---------------------------------------------------------------

TEST(DeviceGroup, ShardGeometryIsSegmentAligned)
{
    DeviceGroup g(testCfg(), 3);
    // 300 elements over 256-lane segments = 2 segments: device 0
    // takes the full first segment, device 1 the 44-lane remainder,
    // device 2 is empty.
    const auto v = g.alloc(300, 16);
    EXPECT_EQ(g.shardOffset(v, 0), 0u);
    EXPECT_EQ(g.shardElements(v, 0), 256u);
    EXPECT_EQ(g.shardOffset(v, 1), 256u);
    EXPECT_EQ(g.shardElements(v, 1), 44u);
    EXPECT_EQ(g.shardElements(v, 2), 0u);

    // 1000 elements = 4 segments: one per device plus one extra on
    // device 0 (front-loaded distribution).
    DeviceGroup g3(testCfg(), 3);
    const auto w = g3.alloc(1000, 8);
    EXPECT_EQ(g3.shardElements(w, 0), 512u);
    EXPECT_EQ(g3.shardElements(w, 1), 256u);
    EXPECT_EQ(g3.shardElements(w, 2), 232u);
    EXPECT_EQ(g3.shardOffset(w, 2), 768u);
}

TEST(DeviceGroup, RejectsMisuse)
{
    EXPECT_THROW(DeviceGroup(testCfg(), 0), FatalError);
    DeviceGroup g(testCfg(), 2);
    EXPECT_THROW(g.alloc(0, 8), FatalError);
    EXPECT_THROW(g.device(2), FatalError);
    ShardedVec bogus;
    EXPECT_THROW(g.load(bogus), FatalError);
}

TEST(DeviceGroup, StoreLoadRoundTripAcrossDevices)
{
    DeviceGroup g(testCfg(), 4);
    const auto v = g.alloc(700, 16); // 3 segments over 4 devices
    const auto data = randomData(700, 0xffff, 0x11);
    g.store(v, data);
    EXPECT_EQ(g.load(v), data);
    EXPECT_GT(g.transferStats().energyPj, 0.0);
}

TEST(DeviceGroup, FillConstantAndShift)
{
    DeviceGroup g(testCfg(), 2);
    const auto a = g.alloc(300, 16);
    const auto b = g.alloc(300, 16);
    g.fillConstant(a, 0x2d);
    g.shiftLeft(b, a, 3);
    for (uint64_t x : g.load(b))
        EXPECT_EQ(x, uint64_t{0x2d} << 3);
    g.shiftRight(b, a, 2);
    for (uint64_t x : g.load(b))
        EXPECT_EQ(x, uint64_t{0x2d} >> 2);
}

TEST(DeviceGroup, StatsEqualSumOfPerShardRuns)
{
    const size_t n = 300;
    const auto da = randomData(n, 0xffff, 1);
    const auto db = randomData(n, 0xffff, 2);

    DeviceGroup g(testCfg(), 2);
    const auto a = g.alloc(n, 16);
    const auto b = g.alloc(n, 16);
    const auto y = g.alloc(n, 16);
    g.store(a, da);
    g.store(b, db);
    g.resetStats();
    g.run(OpKind::Add, y, a, b);

    // The same shards on standalone processors: the group's merged
    // stats must equal the merge of the per-shard runs exactly.
    DramStats expect_compute;
    for (size_t d = 0; d < 2; ++d) {
        const size_t off = g.shardOffset(a, d);
        const size_t cnt = g.shardElements(a, d);
        ASSERT_GT(cnt, 0u);
        Processor p(testCfg());
        const auto pa = p.alloc(cnt, 16);
        const auto pb = p.alloc(cnt, 16);
        const auto py = p.alloc(cnt, 16);
        p.store(pa, da.data() + off, cnt);
        p.store(pb, db.data() + off, cnt);
        p.resetStats();
        p.run(OpKind::Add, py, pa, pb);
        expect_compute = merge(expect_compute, p.computeStats());
    }
    expectSameStats(g.computeStats(), expect_compute);
}

// ---------------------------------------------------------------
// Sharded determinism: sync and async execution vs one Processor
// ---------------------------------------------------------------

class ShardedDeterminismTest
    : public ::testing::TestWithParam<
          std::tuple<OpKind, size_t, Backend>>
{
};

TEST_P(ShardedDeterminismTest, MatchesSingleProcessor)
{
    const auto [op, width, backend] = GetParam();
    const auto sig = signatureOf(op, width);
    const size_t n = 300; // crosses a segment boundary
    const uint64_t mask =
        width >= 64 ? ~0ULL : ((1ULL << width) - 1);
    const auto da = randomData(n, mask, 0x5eed + width);
    const auto db = randomData(n, mask, 0xfeed + width);
    const auto ds = randomData(n, 1, 0xd5 + width);

    // Reference: the whole vector on one processor.
    Processor pref(testCfg(), backend);
    std::vector<uint64_t> out_ref;
    {
        const auto a = pref.alloc(n, width);
        const auto b = pref.alloc(n, width);
        const auto sel = pref.alloc(n, 1);
        const auto y = pref.alloc(n, sig.outWidth);
        pref.store(a, da);
        if (sig.numInputs == 2)
            pref.store(b, db);
        if (sig.hasSel)
            pref.store(sel, ds);
        if (sig.numInputs == 1)
            pref.run(op, y, a);
        else if (!sig.hasSel)
            pref.run(op, y, a, b);
        else
            pref.run(op, y, a, b, sel);
        out_ref = pref.load(y);
    }

    // Sharded, synchronous: 3 devices (shards of 256, 44, and 0
    // elements) through DeviceGroup::run.
    DeviceGroup group(testCfg(), 3, backend);
    {
        const auto a = group.alloc(n, width);
        const auto b = group.alloc(n, width);
        const auto sel = group.alloc(n, 1);
        const auto y = group.alloc(n, sig.outWidth);
        group.store(a, da);
        if (sig.numInputs == 2)
            group.store(b, db);
        if (sig.hasSel)
            group.store(sel, ds);
        if (sig.numInputs == 1)
            group.run(op, y, a);
        else if (!sig.hasSel)
            group.run(op, y, a, b);
        else
            group.run(op, y, a, b, sel);
        EXPECT_EQ(group.load(y), out_ref) << "sync path";
    }

    // Sharded, asynchronous: the same operation as a bbop stream
    // through the StreamExecutor's worker threads.
    {
        StreamExecutor ex(group);
        const auto w8 = static_cast<uint8_t>(width);
        const uint16_t a = ex.defineObject(n, width);
        const uint16_t b = ex.defineObject(n, width);
        const uint16_t sel = ex.defineObject(n, 1);
        const uint16_t y = ex.defineObject(n, sig.outWidth);
        ex.writeObject(a, da);
        std::vector<BbopInstr> stream;
        stream.push_back(BbopInstr::trsp(a, w8));
        stream.push_back(BbopInstr::trsp(
            y, static_cast<uint8_t>(sig.outWidth)));
        if (sig.numInputs == 1) {
            stream.push_back(BbopInstr::unary(op, w8, y, a));
        } else if (!sig.hasSel) {
            ex.writeObject(b, db);
            stream.push_back(BbopInstr::trsp(b, w8));
            stream.push_back(BbopInstr::binary(op, w8, y, a, b));
        } else {
            ex.writeObject(b, db);
            ex.writeObject(sel, ds);
            stream.push_back(BbopInstr::trsp(b, w8));
            stream.push_back(BbopInstr::trsp(sel, 1));
            stream.push_back(
                BbopInstr::predicated(op, w8, y, a, b, sel));
        }
        stream.push_back(BbopInstr::trspInv(
            y, static_cast<uint8_t>(sig.outWidth)));
        const StreamResult r = ex.submit(stream).wait();
        EXPECT_GT(r.compute.latencyNs, 0.0);
        EXPECT_EQ(ex.readObject(y), out_ref) << "async path";
    }
}

std::vector<OpKind>
everyOpKind()
{
    std::vector<OpKind> ops;
    ops.reserve(kAllOps.size() + kExtensionOps.size());
    ops.insert(ops.end(), kAllOps.begin(), kAllOps.end());
    ops.insert(ops.end(), kExtensionOps.begin(),
               kExtensionOps.end());
    return ops;
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, ShardedDeterminismTest,
    ::testing::Combine(::testing::ValuesIn(everyOpKind()),
                       ::testing::Values(size_t{8}, size_t{16}),
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

// ---------------------------------------------------------------
// StreamExecutor: asynchronous semantics
// ---------------------------------------------------------------

TEST(StreamExecutor, PipelinesManyStreams)
{
    DeviceGroup g(testCfg(), 2);
    StreamExecutor ex(g);
    const size_t n = 300;
    const auto da = randomData(n, 0xff, 3);
    const uint16_t a = ex.defineObject(n, 8);
    const uint16_t y = ex.defineObject(n, 8);
    ex.writeObject(a, da);

    // Submit a chain y = a + a + ... without waiting in between.
    std::vector<StreamHandle> handles;
    handles.push_back(ex.submit({BbopInstr::trsp(a, 8),
                                 BbopInstr::trsp(y, 8),
                                 BbopInstr::binary(OpKind::Add, 8,
                                                   y, a, a)}));
    for (int i = 0; i < 8; ++i)
        handles.push_back(ex.submit(
            {BbopInstr::binary(OpKind::Add, 8, y, a, a)}));
    handles.push_back(ex.submit({BbopInstr::trspInv(y, 8)}));
    for (auto &h : handles) {
        const StreamResult r = h.wait();
        EXPECT_TRUE(h.done());
        EXPECT_GE(r.wallNs, 0.0);
    }
    const auto out = ex.readObject(y);
    for (size_t i = 0; i < n; ++i)
        ASSERT_EQ(out[i], (da[i] * 2) & 0xff) << i;
}

TEST(StreamExecutor, EncodedRoundTripAndInitShift)
{
    DeviceGroup g(testCfg(), 2);
    StreamExecutor ex(g);
    const size_t n = 300;
    const uint16_t a = ex.defineObject(n, 16);
    const uint16_t y = ex.defineObject(n, 16);

    std::vector<uint64_t> words;
    words.push_back(encodeBbop(BbopInstr::trsp(a, 16)));
    words.push_back(encodeBbop(BbopInstr::init(a, 16, 0x2d)));
    words.push_back(encodeBbop(BbopInstr::trsp(y, 16)));
    words.push_back(encodeBbop(BbopInstr::shift(true, 16, y, a, 4)));
    words.push_back(encodeBbop(BbopInstr::trspInv(y, 16)));
    ex.submit(words).wait();
    for (uint64_t v : ex.readObject(y))
        ASSERT_EQ(v, uint64_t{0x2d} << 4);
}

TEST(StreamExecutor, PerStreamStatsMatchGroupDelta)
{
    DeviceGroup g(testCfg(), 2);
    StreamExecutor ex(g);
    const size_t n = 300;
    const uint16_t a = ex.defineObject(n, 16);
    const uint16_t b = ex.defineObject(n, 16);
    const uint16_t y = ex.defineObject(n, 16);
    ex.writeObject(a, randomData(n, 0xffff, 5));
    ex.writeObject(b, randomData(n, 0xffff, 6));
    ex.submit({BbopInstr::trsp(a, 16), BbopInstr::trsp(b, 16),
               BbopInstr::trsp(y, 16)})
        .wait();

    g.resetStats();
    const StreamResult r =
        ex.submit({BbopInstr::binary(OpKind::Add, 16, y, a, b)})
            .wait();
    // The only work since resetStats is this one stream, so its
    // merged per-stream accounting must equal the group's stats.
    expectSameStats(r.compute, g.computeStats());
    EXPECT_EQ(r.instructions, 1u);
    EXPECT_GT(r.compute.aaps, 0u);
    EXPECT_GT(r.wallNs, 0.0);
}

TEST(StreamExecutor, RejectsBadStreamsTyped)
{
    DeviceGroup g(testCfg(), 2);
    StreamExecutor ex(g);
    const uint16_t a = ex.defineObject(100, 16);
    const uint16_t y = ex.defineObject(100, 16);

    // Unknown object id.
    EXPECT_THROW(ex.submit({BbopInstr::trsp(77, 16)}), BbopError);
    // Malformed encoding (garbage opcode bits).
    EXPECT_THROW(ex.submit(std::vector<uint64_t>{0xffffffffull}),
                 BbopError);
    // Operation on an object still in horizontal layout.
    EXPECT_THROW(
        ex.submit({BbopInstr::unary(OpKind::Abs, 16, y, a)}),
        BbopError);
    // Width mismatch with the object table.
    EXPECT_THROW(ex.submit({BbopInstr::trsp(a, 8)}), BbopError);
    // In-place execution.
    EXPECT_THROW(ex.submit({BbopInstr::trsp(a, 16),
                            BbopInstr::binary(OpKind::Add, 16, a,
                                              a, a)}),
                 BbopError);
}

TEST(StreamExecutor, RejectedStreamIsAtomic)
{
    DeviceGroup g(testCfg(), 2);
    StreamExecutor ex(g);
    const uint16_t a = ex.defineObject(100, 16);
    const uint16_t y = ex.defineObject(100, 16);

    // The trsp(a) inside the rejected stream must not leak: a stays
    // horizontal, so using it afterwards is still an error.
    EXPECT_THROW(ex.submit({BbopInstr::trsp(a, 16),
                            BbopInstr::trsp(77, 16)}),
                 BbopError);
    EXPECT_THROW(
        ex.submit({BbopInstr::trsp(y, 16),
                   BbopInstr::unary(OpKind::Abs, 16, y, a)}),
        BbopError);

    // And the executor keeps serving valid streams.
    ex.writeObject(a, std::vector<uint64_t>(100, 7));
    ex.submit({BbopInstr::trsp(a, 16), BbopInstr::trsp(y, 16),
               BbopInstr::unary(OpKind::Abs, 16, y, a),
               BbopInstr::trspInv(y, 16)})
        .wait();
    for (uint64_t v : ex.readObject(y))
        ASSERT_EQ(v, 7u);
}

TEST(StreamExecutor, WaitOnEmptyHandleRejected)
{
    StreamHandle h;
    EXPECT_FALSE(h.valid());
    EXPECT_FALSE(h.done());
    EXPECT_THROW(h.wait(), FatalError);
}

TEST(StreamExecutor, MixedDecodeAndValidateErrorIsAtomic)
{
    // A stream whose first word decodes fine but would fail
    // validation, and whose second word does not even decode: the
    // whole stream must be rejected with no partial effect — the
    // trsp in word 0 must not leak into the layout state, and the
    // queues must stay empty.
    DeviceGroup g(testCfg(), 2);
    StreamExecutor ex(g);
    const uint16_t a = ex.defineObject(100, 16);
    const uint16_t y = ex.defineObject(100, 16);

    std::vector<uint64_t> words;
    words.push_back(encodeBbop(BbopInstr::trsp(a, 16)));
    words.push_back(encodeBbop(BbopInstr::trsp(a, 8)) |
                    0xf); // garbage opcode: decode error
    EXPECT_THROW(ex.submit(words), BbopError);

    // Decode-clean but validation-bad after a good prefix: same
    // atomicity (the good trsp(a) must not commit).
    EXPECT_THROW(ex.submit({BbopInstr::trsp(a, 16),
                            BbopInstr::trsp(y, 8)}),
                 BbopError);

    // Nothing leaked: a is still horizontal, so an op on it is still
    // rejected, nothing was enqueued, and the executor still serves.
    EXPECT_THROW(
        ex.submit({BbopInstr::trsp(y, 16),
                   BbopInstr::unary(OpKind::Abs, 16, y, a)}),
        BbopError);
    EXPECT_EQ(ex.queueHighWatermark(), 0u);
    ex.writeObject(a, std::vector<uint64_t>(100, 3));
    ex.submit({BbopInstr::trsp(a, 16), BbopInstr::trsp(y, 16),
               BbopInstr::unary(OpKind::Abs, 16, y, a),
               BbopInstr::trspInv(y, 16)})
        .wait();
    for (uint64_t v : ex.readObject(y))
        ASSERT_EQ(v, 3u);
}

// ---------------------------------------------------------------
// Bounded queues and backpressure
// ---------------------------------------------------------------

/**
 * Pins device @p d's mutex from a dedicated thread (constructor
 * returns once it is held) until release() — so a test can stall
 * that device's worker deterministically without itself holding a
 * device lock while calling into the executor.
 */
class DevicePin
{
  public:
    DevicePin(DeviceGroup &g, size_t d)
    {
        th_ = std::thread([&g, d, this] {
            auto hold = g.lockDevice(d);
            std::unique_lock<std::mutex> lock(mu_);
            pinned_ = true;
            cv_.notify_all();
            cv_.wait(lock, [&] { return released_; });
        });
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return pinned_; });
    }

    void
    release()
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            released_ = true;
        }
        cv_.notify_all();
        th_.join();
    }

    ~DevicePin()
    {
        if (th_.joinable())
            release();
    }

  private:
    std::thread th_;
    std::mutex mu_;
    std::condition_variable cv_;
    bool pinned_ = false, released_ = false;
};

TEST(StreamExecutor, BoundedQueueBlocksAndStaysWithinBound)
{
    DeviceGroup g(testCfg(), 2);
    StreamExecutor ex(g, {/*maxQueuedStreams=*/2,
                          BackpressurePolicy::Block});
    EXPECT_EQ(ex.options().maxQueuedStreams, 2u);
    const size_t n = 300;
    const auto da = randomData(n, 0xff, 9);
    const uint16_t a = ex.defineObject(n, 8);
    const uint16_t y = ex.defineObject(n, 8);
    ex.writeObject(a, da);

    // Submit far more streams than fit: Block throttles the
    // submitter instead of growing the queues.
    std::vector<StreamHandle> handles;
    handles.push_back(ex.submit({BbopInstr::trsp(a, 8),
                                 BbopInstr::trsp(y, 8)}));
    for (int i = 0; i < 20; ++i)
        handles.push_back(ex.submit(
            {BbopInstr::binary(OpKind::Add, 8, y, a, a)}));
    handles.push_back(ex.submit({BbopInstr::trspInv(y, 8)}));
    for (auto &h : handles) {
        const StreamResult r = h.wait();
        EXPECT_GE(r.queueDepthAtSubmit, 1u);
        EXPECT_LE(r.queueDepthAtSubmit, 2u);
        EXPECT_GE(r.backpressureWaitNs, 0.0);
    }
    EXPECT_GE(ex.queueHighWatermark(), 1u);
    EXPECT_LE(ex.queueHighWatermark(), 2u);
    const auto out = ex.readObject(y);
    for (size_t i = 0; i < n; ++i)
        ASSERT_EQ(out[i], (da[i] * 2) & 0xff) << i;
}

TEST(StreamExecutor, RejectPolicyThrowsTypedAndIsAtomic)
{
    DeviceGroup g(testCfg(), 2);
    StreamExecutor ex(g, {/*maxQueuedStreams=*/1,
                          BackpressurePolicy::Reject});
    const size_t n = 300;
    const uint16_t a = ex.defineObject(n, 16);
    const uint16_t y = ex.defineObject(n, 16);
    const uint16_t z = ex.defineObject(n, 16);
    ex.writeObject(a, randomData(n, 0xffff, 4));
    ex.submit({BbopInstr::trsp(a, 16), BbopInstr::trsp(y, 16)})
        .wait();

    size_t accepted = 0, rejected = 0;
    StreamHandle last;
    {
        // Pin device 0: its worker blocks on the device mutex, so
        // its queue backs up deterministically. With a bound of 1,
        // at most two submits can be accepted (one in flight, one
        // queued) before every further submit must be rejected.
        DevicePin pin(g, 0);
        for (int i = 0; i < 8; ++i) {
            try {
                // The rejected streams carry a trsp(z) so a
                // rejection with side effects would leak layout
                // state — checked below.
                StreamHandle h = ex.submit(
                    {BbopInstr::trsp(z, 16),
                     BbopInstr::binary(OpKind::Add, 16, y, a, a),
                     BbopInstr::trspInv(z, 16)});
                last = h;
                ++accepted;
            } catch (const StreamRejectedError &) {
                ++rejected;
            }
        }
        EXPECT_LE(accepted, 2u);
        EXPECT_GE(rejected, 6u);
    }
    if (last.valid())
        last.wait();
    ex.sync();

    // A queue-full rejection must be side-effect-free: if the last
    // attempt was rejected, z's trsp must not have committed...
    if (accepted == 0) {
        EXPECT_THROW(
            ex.submit({BbopInstr::unary(OpKind::Abs, 16, y, z)}),
            BbopError);
    } else {
        // ...whereas accepted copies did transpose z.
        ex.submit({BbopInstr::binary(OpKind::Add, 16, y, a, z)})
            .wait();
    }
    // And the executor keeps serving normally afterwards.
    ex.submit({BbopInstr::binary(OpKind::Add, 16, y, a, a)}).wait();
    EXPECT_EQ(ex.queueHighWatermark(), 1u);
}

TEST(StreamExecutor, BlockedSubmitterResumesWhenQueueDrains)
{
    DeviceGroup g(testCfg(), 2);
    StreamExecutor ex(g, {/*maxQueuedStreams=*/1,
                          BackpressurePolicy::Block});
    const size_t n = 300;
    const uint16_t a = ex.defineObject(n, 16);
    const uint16_t y = ex.defineObject(n, 16);
    ex.writeObject(a, randomData(n, 0xffff, 8));
    ex.submit({BbopInstr::trsp(a, 16), BbopInstr::trsp(y, 16)})
        .wait();

    std::atomic<int> submitted{0};
    std::thread submitter;
    {
        // While device 0 is pinned, a submitter thread saturates the
        // bound and then blocks; unpinning must wake it and let
        // every stream through.
        DevicePin pin(g, 0);
        submitter = std::thread([&] {
            for (int i = 0; i < 6; ++i) {
                ex.submit(
                    {BbopInstr::binary(OpKind::Add, 16, y, a, a)});
                submitted.fetch_add(1);
            }
        });
        while (submitted.load() < 2)
            std::this_thread::yield();
        // Bounded at 1 queued + 1 in flight: the thread cannot have
        // run far ahead of the stalled device.
        EXPECT_LE(submitted.load(), 3);
    }
    submitter.join();
    EXPECT_EQ(submitted.load(), 6);
    ex.sync();
    ex.submit({BbopInstr::trspInv(y, 16)}).wait();
    const auto da = randomData(n, 0xffff, 8);
    const auto out = ex.readObject(y);
    for (size_t i = 0; i < n; ++i)
        ASSERT_EQ(out[i], (da[i] * 2) & 0xffff) << i;
}

// ---------------------------------------------------------------
// Concurrency stress (run under ThreadSanitizer in CI)
// ---------------------------------------------------------------

TEST(StreamExecutor, ConcurrentSubmittersStress)
{
    constexpr size_t kThreads = 4;
    constexpr size_t kStreamsPerThread = 25;
    constexpr size_t n = 1000; // 4 segments: every device active

    DeviceGroup g(testCfg(), 4);
    StreamExecutor ex(g);

    struct Triple
    {
        uint16_t a, b, y;
        std::vector<uint64_t> da, db;
    };
    std::vector<Triple> triples(kThreads);
    for (size_t t = 0; t < kThreads; ++t) {
        triples[t].a = ex.defineObject(n, 16);
        triples[t].b = ex.defineObject(n, 16);
        triples[t].y = ex.defineObject(n, 16);
        triples[t].da = randomData(n, 0xffff, 100 + t);
        triples[t].db = randomData(n, 0xffff, 200 + t);
        ex.writeObject(triples[t].a, triples[t].da);
        ex.writeObject(triples[t].b, triples[t].db);
        ex.submit({BbopInstr::trsp(triples[t].a, 16),
                   BbopInstr::trsp(triples[t].b, 16),
                   BbopInstr::trsp(triples[t].y, 16)})
            .wait();
    }

    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            const Triple &tr = triples[t];
            std::vector<StreamHandle> handles;
            for (size_t s = 0; s < kStreamsPerThread; ++s)
                handles.push_back(ex.submit(
                    {BbopInstr::binary(OpKind::Add, 16, tr.y,
                                       tr.a, tr.b)}));
            // Every identical stream must report identical,
            // correctly isolated per-stream stats.
            uint64_t aaps = 0;
            for (auto &h : handles) {
                const StreamResult r = h.wait();
                if (aaps == 0)
                    aaps = r.compute.aaps;
                if (r.compute.aaps != aaps ||
                    r.compute.latencyNs <= 0.0)
                    ++failures;
            }
        });
    }
    for (auto &th : threads)
        th.join();
    EXPECT_EQ(failures.load(), 0);

    for (size_t t = 0; t < kThreads; ++t) {
        ex.submit({BbopInstr::trspInv(triples[t].y, 16)}).wait();
        const auto out = ex.readObject(triples[t].y);
        for (size_t i = 0; i < n; ++i)
            ASSERT_EQ(out[i],
                      (triples[t].da[i] + triples[t].db[i]) &
                          0xffff)
                << "thread " << t << " element " << i;
    }
}

// ---------------------------------------------------------------
// Paper workloads through the group
// ---------------------------------------------------------------

TEST(RuntimeApps, TpchRunsShardedAcrossDevices)
{
    DeviceGroup g(testCfg(), 3);
    EXPECT_TRUE(tpchVerify(g));
}

TEST(RuntimeApps, BrightnessRunsShardedAcrossDevices)
{
    DeviceGroup g(testCfg(), 3);
    EXPECT_TRUE(brightnessVerify(g));
}

TEST(RuntimeApps, KnnRunsShardedAcrossDevices)
{
    DeviceGroup g(testCfg(), 4);
    EXPECT_TRUE(knnVerify(g));
}

TEST(RuntimeApps, NnConvTileRunsShardedAcrossDevices)
{
    DeviceGroup g(testCfg(), 4);
    EXPECT_TRUE(nnVerifyConvTile(g));
}

TEST(RuntimeApps, BitweavingRunsShardedAcrossDevices)
{
    DeviceGroup g(testCfg(), 4);
    EXPECT_TRUE(bitweavingVerify(g));
}

TEST(RuntimeApps, AppsWorkOnSingleDeviceGroup)
{
    // A 1-device group degenerates to the plain Processor path.
    DeviceGroup gt(testCfg(), 1);
    EXPECT_TRUE(tpchVerify(gt));
    DeviceGroup gb(testCfg(), 1);
    EXPECT_TRUE(brightnessVerify(gb));
    DeviceGroup gk(testCfg(), 1);
    EXPECT_TRUE(knnVerify(gk));
    DeviceGroup gn(testCfg(), 1);
    EXPECT_TRUE(nnVerifyConvTile(gn));
    DeviceGroup gw(testCfg(), 1);
    EXPECT_TRUE(bitweavingVerify(gw));
}

TEST(RuntimeApps, GroupAndProcessorVerifiesAgreeOnSeeds)
{
    // Same seeds through both entry points: the sharded async path
    // must accept exactly the instances the single Processor does.
    for (uint64_t seed : {1ull, 42ull}) {
        Processor pk(testCfg());
        EXPECT_TRUE(knnVerify(pk, seed));
        DeviceGroup gk(testCfg(), 3);
        EXPECT_TRUE(knnVerify(gk, seed));

        Processor pw(testCfg());
        EXPECT_TRUE(bitweavingVerify(pw, seed));
        DeviceGroup gw(testCfg(), 3);
        EXPECT_TRUE(bitweavingVerify(gw, seed));
    }
}

// ---------------------------------------------------------------
// StreamExecutor: releaseObject
// ---------------------------------------------------------------

TEST(StreamExecutor, ReleasedObjectIsPoisonAndNotRecycledAsId)
{
    DeviceGroup g(testCfg(), 2);
    StreamExecutor ex(g);
    const size_t n = 200;
    const uint16_t a = ex.defineObject(n, 8);
    const uint16_t y = ex.defineObject(n, 8);
    const auto da = randomData(n, 0xff, 71);
    ex.writeObject(a, da);
    ex.releaseObject(y);

    // Every entry point rejects the tombstoned id with the typed
    // error; the id itself is never handed out again.
    EXPECT_THROW(ex.submit({BbopInstr::trsp(y, 8)}), BbopError);
    EXPECT_THROW(ex.readObject(y), BbopError);
    EXPECT_THROW(ex.writeObject(y, da), BbopError);
    EXPECT_THROW(ex.objectShape(y), BbopError);
    EXPECT_THROW(ex.releaseObject(y), BbopError); // double release
    const uint16_t z = ex.defineObject(n, 8);
    EXPECT_NE(z, y);

    // The survivor still computes: z reuses y's freed rows.
    ex.submit({BbopInstr::trsp(a, 8), BbopInstr::trsp(z, 8),
               BbopInstr::binary(OpKind::Add, 8, z, a, a),
               BbopInstr::trspInv(z, 8)})
        .wait();
    const auto out = ex.readObject(z);
    for (size_t i = 0; i < n; ++i)
        ASSERT_EQ(out[i], (da[i] * 2) & 0xff) << i;
}

TEST(StreamExecutor, ReleaseWaitsForInFlightStreams)
{
    DeviceGroup g(testCfg(), 2);
    StreamExecutor ex(g);
    const size_t n = 300;
    const uint16_t a = ex.defineObject(n, 8);
    const uint16_t y = ex.defineObject(n, 8);
    const auto da = randomData(n, 0xff, 72);
    ex.writeObject(a, da);

    // Pile up async work touching y, then release it immediately:
    // the release must drain the pipeline before freeing rows, and
    // all the handles must still resolve.
    std::vector<StreamHandle> handles;
    handles.push_back(ex.submit({BbopInstr::trsp(a, 8),
                                 BbopInstr::trsp(y, 8),
                                 BbopInstr::binary(OpKind::Add, 8,
                                                   y, a, a)}));
    for (int i = 0; i < 10; ++i)
        handles.push_back(ex.submit(
            {BbopInstr::binary(OpKind::Add, 8, y, a, a)}));
    ex.releaseObject(y);
    for (auto &h : handles) {
        EXPECT_TRUE(h.done());
        EXPECT_GT(h.wait().instructions, 0u);
    }

    // Teardown-and-recreate: the same shape lands on the recycled
    // rows and round-trips host data bit-exactly.
    const uint16_t z = ex.defineObject(n, 8);
    ex.writeObject(z, da);
    EXPECT_EQ(ex.readObject(z), da);
    EXPECT_EQ(ex.readObject(a), da);
}

TEST(StreamExecutor, ReleaseFreesCapacityForRedefinition)
{
    DeviceGroup g(testCfg(), 1);
    StreamExecutor ex(g);
    // Exhaust the device with same-shape objects...
    std::vector<uint16_t> ids;
    for (;;) {
        try {
            ids.push_back(ex.defineObject(256, 16));
        } catch (const FatalError &) {
            break;
        }
    }
    ASSERT_GT(ids.size(), 1u);
    // ... then release/define cycles must work indefinitely off the
    // free list (a leak here would exhaust within a few laps).
    for (int lap = 0; lap < 5; ++lap) {
        ex.releaseObject(ids.back());
        ids.pop_back();
        ids.push_back(ex.defineObject(256, 16));
    }
    const auto data = randomData(256, 0xffff, 73);
    ex.writeObject(ids.back(), data);
    EXPECT_EQ(ex.readObject(ids.back()), data);
}

// ---------------------------------------------------------------
// Placement is checked at submit
// ---------------------------------------------------------------

TEST(StreamExecutor, NonColocatedOperationIsRejectedAtSubmit)
{
    // 192 data rows per subarray hold twelve 16-bit objects, so of
    // 64 objects defined back to back the triple (10, 11, 12) has its
    // destination in the next subarray.
    DeviceGroup g(DramConfig::forTesting(256, 256), 1);
    StreamExecutor ex(g);
    std::vector<uint16_t> ids;
    for (int i = 0; i < 64; ++i)
        ids.push_back(ex.defineObject(256, 16));
    const uint16_t p = ids[0];
    const uint16_t a = ids[10], b = ids[11], y = ids[12];
    ex.writeObject(p, std::vector<uint64_t>(256, 1));

    const std::vector<BbopInstr> stream = {
        BbopInstr::trsp(p, 16),    BbopInstr::init(p, 16, 9),
        BbopInstr::trspInv(p, 16), BbopInstr::trsp(a, 16),
        BbopInstr::trsp(b, 16),
        BbopInstr::binary(OpKind::Add, 16, y, a, b)};
    EXPECT_THROW(ex.submit(stream), PlacementError);
    // Rejected as a unit: nothing ran, no layout state moved.
    EXPECT_EQ(ex.readObject(p), std::vector<uint64_t>(256, 1));
    EXPECT_FALSE(ex.objectShape(p).vertical);
    EXPECT_FALSE(ex.objectShape(y).vertical);

    // A co-located triple still runs.
    const uint16_t c = ids[13], e = ids[14], z = ids[15];
    ex.writeObject(c, std::vector<uint64_t>(256, 2));
    ex.writeObject(e, std::vector<uint64_t>(256, 3));
    ex.submit({BbopInstr::trsp(c, 16), BbopInstr::trsp(e, 16),
               BbopInstr::binary(OpKind::Add, 16, z, c, e),
               BbopInstr::trspInv(z, 16)})
        .wait();
    EXPECT_EQ(ex.readObject(z), std::vector<uint64_t>(256, 5));
}

// ---------------------------------------------------------------
// Bank-parallel device jobs
// ---------------------------------------------------------------

/** 128-lane rows, and subarrays large enough that every object group
 *  of one rig co-locates in one subarray per bank. */
DramConfig
bankSplitCfg(size_t computeBanks)
{
    DramConfig cfg = DramConfig::forTesting(128, 4096);
    cfg.banks = std::max(cfg.banks, computeBanks);
    cfg.computeBanks = computeBanks;
    cfg.validate();
    return cfg;
}

/** Compares DramStats bit-exactly, doubles included. */
void
expectIdenticalStats(const DramStats &a, const DramStats &b,
                     const std::string &what)
{
    EXPECT_EQ(a.activates, b.activates) << what;
    EXPECT_EQ(a.multiActivates, b.multiActivates) << what;
    EXPECT_EQ(a.precharges, b.precharges) << what;
    EXPECT_EQ(a.aaps, b.aaps) << what;
    EXPECT_EQ(a.aps, b.aps) << what;
    EXPECT_EQ(a.reads, b.reads) << what;
    EXPECT_EQ(a.writes, b.writes) << what;
    EXPECT_EQ(a.traFaults, b.traFaults) << what;
    EXPECT_EQ(a.latencyNs, b.latencyNs) << what;
    EXPECT_EQ(a.energyPj, b.energyPj) << what;
}

/** Objects defined back to back, so they co-locate: four w-bit
 *  objects, a 1-bit flag (comparison results, IfElse predicates) and
 *  a bitcount result. */
struct SplitGroup
{
    size_t width = 0;
    size_t countBits = 0;
    uint16_t w[4] = {};
    uint16_t flag = 0;
    uint16_t count = 0;
};

/** @return An instruction running @p op over group @p g. */
BbopInstr
splitOp(Rng &rng, const SplitGroup &g, OpKind op)
{
    const OpSignature sig = signatureOf(op, g.width);
    const auto w8 = static_cast<uint8_t>(g.width);
    const size_t i = rng.below(4);
    const size_t j = rng.below(4);
    size_t k = rng.below(4);
    while (k == i || k == j)
        k = (k + 1) % 4;
    const uint16_t dst = sig.outWidth == g.width ? g.w[k]
                         : sig.outWidth == 1     ? g.flag
                                                 : g.count;
    if (sig.hasSel)
        return BbopInstr::predicated(op, w8, dst, g.w[i], g.w[j],
                                     g.flag);
    if (sig.numInputs == 1)
        return BbopInstr::unary(op, w8, dst, g.w[i]);
    return BbopInstr::binary(op, w8, dst, g.w[i], g.w[j]);
}

/** @return A random transposition, init or shift over group @p g. */
BbopInstr
splitMove(Rng &rng, const SplitGroup &g)
{
    const size_t pick = rng.below(6);
    const uint16_t o = pick < 4 ? g.w[pick] : pick == 4 ? g.flag : g.count;
    const size_t bits = pick < 4 ? g.width : pick == 4 ? 1 : g.countBits;
    const auto b8 = static_cast<uint8_t>(bits);
    switch (rng.below(5)) {
      case 0:
        return BbopInstr::trsp(o, b8);
      case 1:
        return BbopInstr::trspInv(o, b8);
      case 2:
        return BbopInstr::init(o, b8, rng.next() & ((1ULL << bits) - 1));
      default: {
        const size_t i = rng.below(4);
        const size_t k = (i + 1 + rng.below(3)) % 4;
        return BbopInstr::shift(
            rng.below(2) == 0, static_cast<uint8_t>(g.width), g.w[k],
            g.w[i], static_cast<uint8_t>(rng.below(g.width + 2)));
      }
    }
}

/** Every data row, compute cell and statistic of both rig sides. */
void
expectSameDevices(DeviceGroup &a, DeviceGroup &b)
{
    const DramConfig &cfg = a.config();
    for (size_t d = 0; d < a.deviceCount(); ++d) {
        const std::string dev = "device " + std::to_string(d);
        expectIdenticalStats(a.deviceComputeStats(d),
                             b.deviceComputeStats(d), dev + " compute");
        expectIdenticalStats(a.deviceTransferStats(d),
                             b.deviceTransferStats(d),
                             dev + " transfer");
        for (size_t k = 0; k < cfg.banks; ++k) {
            Bank &ba = a.device(d).device().bank(k);
            Bank &bb = b.device(d).device().bank(k);
            for (size_t s = 0; s < cfg.subarraysPerBank; ++s) {
                ASSERT_EQ(ba.materialized(s), bb.materialized(s));
                if (!ba.materialized(s))
                    continue;
                const std::string where = dev + " bank " +
                                          std::to_string(k) +
                                          " subarray " +
                                          std::to_string(s);
                const Subarray &sa = ba.subarray(s);
                const Subarray &sb = bb.subarray(s);
                for (size_t r = 0; r < sa.dataRowCount(); ++r)
                    ASSERT_EQ(sa.peekData(r), sb.peekData(r))
                        << where << " row " << r;
                for (SpecialRow c :
                     {SpecialRow::T0, SpecialRow::T1, SpecialRow::T2,
                      SpecialRow::T3, SpecialRow::DCC0P,
                      SpecialRow::DCC1P})
                    ASSERT_EQ(sa.peek(c), sb.peek(c)) << where;
                expectIdenticalStats(sa.stats(), sb.stats(), where);
            }
        }
    }
}

/** (compute banks, devices). */
class BankSplitTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>>
{};

/**
 * Random multi-segment programs, every operation kind at widths 8,
 * 16 and 32 over objects of 3, 5 and 7 segments per device (so banks
 * get unequal shares), run bank-parallel and against a reference
 * whose devices carry an empty deterministic FaultPlan: an installed
 * injector keeps a device on the serial path. Everything must match
 * bit-exactly: rows, host images, statistics and every StreamResult.
 */
TEST_P(BankSplitTest, MatchesTheSerialPathBitExactly)
{
    const auto [banks, devices] = GetParam();
    const DramConfig cfg = bankSplitCfg(banks);
    testutil::DiffRig rig(devices, testutil::noPassesOpts(false),
                          testutil::noPassesOpts(false), cfg);
    for (size_t d = 0; d < devices; ++d)
        rig.gr.setFaultInjector(
            d, FaultInjector::deterministic(FaultPlan{}));
    if (devices == 1) {
        if (std::thread::hardware_concurrency() < 2)
            GTEST_SKIP() << "one host core: no helper thread to run "
                            "a second bank on";
        ASSERT_GE(rig.opt.hostHelperCount(), 1u);
    }

    // The rig's share of every (operation, width) pair: the four
    // rigs cover each pair once.
    const size_t rigIndex = (banks == 2 ? 0 : 1) + 2 * (devices - 1);
    Rng rng(0x5b1 + rigIndex);
    std::vector<std::pair<OpKind, size_t>> pairs;
    size_t index = 0;
    for (OpKind op : everyOpKind())
        for (size_t width : {size_t{8}, size_t{16}, size_t{32}})
            if (index++ % 4 == rigIndex)
                pairs.emplace_back(op, width);

    std::vector<SplitGroup> groups;
    std::vector<BbopInstr> transposeAll;
    for (size_t segs : {size_t{3}, size_t{5}, size_t{7}}) {
        // A partial last segment too.
        const size_t n = segs * cfg.rowBits * devices - 37;
        for (size_t width : {size_t{8}, size_t{16}, size_t{32}}) {
            SplitGroup g;
            g.width = width;
            g.countBits = signatureOf(OpKind::Bitcount, width).outWidth;
            for (uint16_t &o : g.w)
                o = rig.define(n, width);
            g.flag = rig.define(n, 1);
            g.count = rig.define(n, g.countBits);
            const std::pair<uint16_t, size_t> objs[] = {
                {g.w[0], width}, {g.w[1], width}, {g.w[2], width},
                {g.w[3], width}, {g.flag, 1},     {g.count, g.countBits}};
            for (const auto &[o, bits] : objs) {
                rig.write(o, randomData(n, (1ULL << bits) - 1,
                                        rng.next()));
                transposeAll.push_back(
                    BbopInstr::trsp(o, static_cast<uint8_t>(bits)));
            }
            groups.push_back(g);
        }
    }
    rig.run(transposeAll);

    auto groupOfWidth = [&](size_t width) -> const SplitGroup & {
        for (;;) {
            const SplitGroup &g = groups[rng.below(groups.size())];
            if (g.width == width)
                return g;
        }
    };
    size_t next = 0;
    while (next < pairs.size()) {
        StreamIR ir;
        ir.segments = 1 + rng.below(3);
        for (size_t seg = 0; seg < ir.segments; ++seg) {
            for (size_t i = 0, len = 4 + rng.below(5); i < len; ++i) {
                BbopInstr in;
                if (next < pairs.size() && rng.below(2) == 0) {
                    const auto [op, width] = pairs[next++];
                    in = splitOp(rng, groupOfWidth(width), op);
                } else {
                    in = splitMove(rng, groups[rng.below(groups.size())]);
                }
                ir.nodes.push_back(StreamNode{in, seg, false});
            }
        }
        const auto [ro, rr] = rig.runIR(ir);
        ASSERT_EQ(ro.size(), rr.size());
        for (size_t h = 0; h < ro.size(); ++h) {
            const std::string what = "program handle " + std::to_string(h);
            EXPECT_EQ(ro[h].instructions, rr[h].instructions) << what;
            EXPECT_EQ(ro[h].attempts, rr[h].attempts) << what;
            EXPECT_EQ(ro[h].faultsDetected, rr[h].faultsDetected) << what;
            expectIdenticalStats(ro[h].compute, rr[h].compute,
                                 what + " compute");
            expectIdenticalStats(ro[h].transfer, rr[h].transfer,
                                 what + " transfer");
        }
    }
    rig.expectSameImages();
    expectSameDevices(rig.go, rig.gr);
}

INSTANTIATE_TEST_SUITE_P(
    BanksAndDevices, BankSplitTest,
    ::testing::Combine(::testing::Values(size_t{2}, size_t{4}),
                       ::testing::Values(size_t{1}, size_t{2})),
    [](const auto &info) {
        return "banks" + std::to_string(std::get<0>(info.param)) +
               "_d" + std::to_string(std::get<1>(info.param));
    });

} // namespace
} // namespace simdram
