/**
 * @file
 * Tests for the serving front-end (src/serve): per-request results
 * bit-exact against unbatched and host references, the typed
 * side-effect-free shed path, deadline-linger flush determinism, the
 * corrected StreamResult wallNs/e2eNs semantics under Block
 * backpressure, the latency histogram's bucket math and quantile
 * accuracy, and a getter-vs-submitter hammer for the executor's
 * lifetime counters. Runs under ThreadSanitizer in CI.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "runtime/stream_executor.h"
#include "serve/latency_histogram.h"
#include "serve/request_coalescer.h"
#include "serve/workloads.h"
#include "stream_testutil.h"
#include "tenant/tenant_executor.h"

namespace simdram
{
namespace
{

using testutil::randomData;
using testutil::testCfg;

KnnServeSpec
knnSpec()
{
    return KnnServeSpec{/*refs=*/96, /*dims=*/4, /*bits=*/16};
}

std::vector<std::vector<uint64_t>>
knnRefs(const KnnServeSpec &spec, uint64_t seed)
{
    std::vector<std::vector<uint64_t>> cols;
    for (size_t d = 0; d < spec.dims; ++d)
        cols.push_back(randomData(spec.refs, 0xff, seed + d));
    return cols;
}

std::vector<uint64_t>
knnCoords(const KnnServeSpec &spec, uint64_t seed)
{
    return randomData(spec.dims, 0xff, seed);
}

// ---- bit-exactness: batched == unbatched == host --------------------

TEST(Serving, BatchedKnnResultsBitExactVsUnbatchedAndHost)
{
    const KnnServeSpec spec = knnSpec();
    const auto refs = knnRefs(spec, 11);
    constexpr size_t kRequests = 10; // 2 full batches + a partial

    // Batched side: 4-way coalescing, zero linger (flush as soon as
    // the dispatcher sees work) — partial batches still come out.
    DeviceGroup gb(testCfg(), 2);
    StreamExecutor exb(gb);
    RequestCoalescer batched(
        exb, CoalescerOptions{/*maxBatch=*/4, /*maxLingerUs=*/0.0,
                              /*maxPending=*/0,
                              AdmissionPolicy::Shed});
    const uint32_t clsB = batched.registerClass(
        knnQueryClass(spec, refs));

    // Unbatched side: same classes, batch capacity 1 — every request
    // runs alone, the per-request baseline.
    DeviceGroup gu(testCfg(), 2);
    StreamExecutor exu(gu);
    RequestCoalescer unbatched(
        exu, CoalescerOptions{/*maxBatch=*/1, /*maxLingerUs=*/0.0,
                              /*maxPending=*/0,
                              AdmissionPolicy::Shed});
    const uint32_t clsU = unbatched.registerClass(
        knnQueryClass(spec, refs));

    std::vector<std::vector<uint64_t>> queries;
    std::vector<ServeFuture> fb, fu;
    for (size_t r = 0; r < kRequests; ++r) {
        queries.push_back(knnCoords(spec, 100 + r));
        fb.push_back(batched.submit(
            clsB, knnQueryRequest(spec, queries.back())));
        fu.push_back(unbatched.submit(
            clsU, knnQueryRequest(spec, queries.back())));
    }
    for (size_t r = 0; r < kRequests; ++r) {
        const ServeResult rb = fb[r].wait();
        const ServeResult ru = fu[r].wait();
        const auto host = knnQueryHost(spec, refs, queries[r]);
        ASSERT_EQ(rb.output.size(), spec.refs);
        EXPECT_EQ(rb.output, host) << "batched vs host, req " << r;
        EXPECT_EQ(ru.output, host) << "unbatched vs host, req " << r;
        EXPECT_GE(rb.batchSize, 1u);
        EXPECT_LE(rb.batchSize, 4u);
        EXPECT_EQ(ru.batchSize, 1u);
        EXPECT_GE(rb.totalNs, rb.executeNs);
        EXPECT_GE(rb.batchStreams, 1u);
    }
    EXPECT_EQ(batched.completedRequests(), kRequests);
    EXPECT_EQ(batched.latency().count(), kRequests);
    EXPECT_GE(batched.dispatchedBatches(), 3u); // ceil(10/4)
    // Coalescing actually coalesced: fewer batches than requests.
    EXPECT_LT(batched.dispatchedBatches(),
              unbatched.dispatchedBatches());
}

TEST(Serving, BrightnessAndTpchClassesMatchHost)
{
    DeviceGroup g(testCfg(), 2);
    StreamExecutor ex(g);
    RequestCoalescer co(
        ex, CoalescerOptions{/*maxBatch=*/3, /*maxLingerUs=*/0.0,
                             /*maxPending=*/0,
                             AdmissionPolicy::Shed});

    const BrightnessTileSpec bspec{/*pixels=*/64, /*bits=*/16,
                                   /*cap=*/240};
    const TpchFilterSpec tspec{/*rows=*/80, /*bits=*/32};
    const uint32_t bcls = co.registerClass(brightnessTileClass(bspec));
    const uint32_t tcls = co.registerClass(tpchFilterClass(tspec));

    // Interleave the two classes: they must never mix batches.
    std::vector<ServeFuture> bf, tf;
    std::vector<std::vector<uint64_t>> tiles, chunks;
    for (size_t r = 0; r < 5; ++r) {
        tiles.push_back(randomData(bspec.pixels, 0xff, 30 + r));
        chunks.push_back(randomData(tspec.rows, 0xffff, 60 + r));
        bf.push_back(co.submit(
            bcls, brightnessTileRequest(bspec, tiles.back(),
                                        /*delta=*/20 + r)));
        tf.push_back(co.submit(
            tcls, tpchFilterRequest(tspec, chunks.back(),
                                    /*threshold=*/0x8000)));
    }
    for (size_t r = 0; r < 5; ++r) {
        EXPECT_EQ(bf[r].wait().output,
                  brightnessTileHost(bspec, tiles[r], 20 + r));
        EXPECT_EQ(tf[r].wait().output,
                  tpchFilterHost(tspec, chunks[r], 0x8000));
    }
    EXPECT_EQ(co.completedRequests(), 10u);
}

// ---- admission control ----------------------------------------------

TEST(Serving, ShedPathIsTypedAndSideEffectFree)
{
    DeviceGroup g(testCfg(), 1);
    StreamExecutor ex(g);
    // Batch capacity above the offered load + huge linger: admitted
    // requests stay pending until an explicit flush, so the budget
    // deterministically fills.
    RequestCoalescer co(
        ex, CoalescerOptions{/*maxBatch=*/8,
                             /*maxLingerUs=*/60e6,
                             /*maxPending=*/2,
                             AdmissionPolicy::Shed});
    const TpchFilterSpec spec{/*rows=*/32, /*bits=*/16};
    const uint32_t cls = co.registerClass(tpchFilterClass(spec));

    const auto c0 = randomData(spec.rows, 0xfff, 1);
    const auto c1 = randomData(spec.rows, 0xfff, 2);
    ServeFuture f0 = co.submit(cls, tpchFilterRequest(spec, c0, 100));
    ServeFuture f1 = co.submit(cls, tpchFilterRequest(spec, c1, 200));
    EXPECT_EQ(co.pendingRequests(), 2u);

    // Budget full: the third submit sheds with the TYPED error...
    EXPECT_THROW(co.submit(cls, tpchFilterRequest(spec, c0, 300)),
                 RequestShedError);
    // ...and RequestShedError is not a BbopError (the caller can
    // tell "saturated" from "malformed").
    try {
        co.submit(cls, tpchFilterRequest(spec, c0, 300));
        FAIL() << "expected shed";
    } catch (const RequestShedError &e) {
        EXPECT_NE(std::string(e.what()).find("budget"),
                  std::string::npos);
    }
    EXPECT_EQ(co.shedRequests(), 2u);
    // Zero side effects: nothing extra admitted or batched.
    EXPECT_EQ(co.pendingRequests(), 2u);

    // The admitted requests still complete, correctly.
    co.flush();
    EXPECT_EQ(f0.wait().output, tpchFilterHost(spec, c0, 100));
    EXPECT_EQ(f1.wait().output, tpchFilterHost(spec, c1, 200));

    // The coalescer remains fully usable after shedding.
    ServeFuture f2 = co.submit(cls, tpchFilterRequest(spec, c1, 50));
    co.flush();
    EXPECT_EQ(f2.wait().output, tpchFilterHost(spec, c1, 50));
    EXPECT_EQ(co.completedRequests(), 3u);
    EXPECT_EQ(co.shedRequests(), 2u);
}

TEST(Serving, WideRequestDataIsRejectedBeforeAdmission)
{
    // The host-data rule of both writeObject entry points, applied
    // per request at submit: a too-wide input is a typed BbopError
    // for its own caller, instead of failing the whole batch it
    // would have joined.
    DeviceGroup g(testCfg(), 1);
    StreamExecutor ex(g);
    RequestCoalescer co(
        ex, CoalescerOptions{/*maxBatch=*/8,
                             /*maxLingerUs=*/60e6,
                             /*maxPending=*/0,
                             AdmissionPolicy::Shed});
    const TpchFilterSpec spec{/*rows=*/32, /*bits=*/16};
    const uint32_t cls = co.registerClass(tpchFilterClass(spec));

    const auto c0 = randomData(spec.rows, 0xfff, 1);
    ServeFuture f0 = co.submit(cls, tpchFilterRequest(spec, c0, 100));
    auto wide = c0;
    wide[5] = 1ULL << spec.bits;
    EXPECT_THROW(co.submit(cls, tpchFilterRequest(spec, wide, 100)),
                 BbopError);
    EXPECT_EQ(co.pendingRequests(), 1u);
    co.flush();
    EXPECT_EQ(f0.wait().output, tpchFilterHost(spec, c0, 100));
    EXPECT_EQ(co.completedRequests(), 1u);

    // Shared data is checked the same way at registration.
    const KnnServeSpec kspec = knnSpec();
    auto refs = knnRefs(kspec, 3);
    refs[1][7] = 1ULL << kspec.bits;
    EXPECT_THROW(co.registerClass(knnQueryClass(kspec, refs)),
                 BbopError);
}

// ---- batching policy: deadline linger -------------------------------

TEST(Serving, LingerDeadlineFlushesPartialBatchWithoutFlushCall)
{
    DeviceGroup g(testCfg(), 1);
    StreamExecutor ex(g);
    // Capacity far above the offered load: only the linger deadline
    // can close the batch.
    RequestCoalescer co(
        ex, CoalescerOptions{/*maxBatch=*/16,
                             /*maxLingerUs=*/50e3, // 50 ms
                             /*maxPending=*/0,
                             AdmissionPolicy::Shed});
    const BrightnessTileSpec spec{/*pixels=*/32, /*bits=*/16,
                                  /*cap=*/200};
    const uint32_t cls = co.registerClass(brightnessTileClass(spec));

    std::vector<std::vector<uint64_t>> tiles;
    std::vector<ServeFuture> fs;
    for (size_t r = 0; r < 3; ++r) {
        tiles.push_back(randomData(spec.pixels, 0xff, 7 + r));
        fs.push_back(co.submit(
            cls, brightnessTileRequest(spec, tiles[r], 10)));
    }
    // No flush(): completion must come from the deadline alone, and
    // all three requests ride ONE batch (deterministic: they were
    // all admitted long before the 50 ms deadline expired).
    for (size_t r = 0; r < 3; ++r) {
        const ServeResult res = fs[r].wait();
        EXPECT_EQ(res.output,
                  brightnessTileHost(spec, tiles[r], 10));
        EXPECT_EQ(res.batchSize, 3u);
        // The linger shows up in the queue share of the breakdown.
        EXPECT_GE(res.queueNs, 10e6); // well above 10 ms
        EXPECT_GE(res.totalNs, res.queueNs);
    }
    EXPECT_EQ(co.dispatchedBatches(), 1u);
}

// ---- satellite 1: wallNs is true end-to-end -------------------------

/** Pins device @p d's mutex from a dedicated thread (copied from
 *  runtime_test) to deterministically stall that device's worker. */
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

TEST(Serving, WallNsIncludesBlockBackpressureWait)
{
    DeviceGroup g(testCfg(), 1);
    StreamExecutor ex(g, {/*maxQueuedStreams=*/1,
                          BackpressurePolicy::Block});
    const size_t n = 64;
    const uint16_t a = ex.defineObject(n, 8);
    const uint16_t y = ex.defineObject(n, 8);
    ex.writeObject(a, randomData(n, 0xff, 3));

    DevicePin pin(g, 0);
    // Stream A: the worker pops it and stalls on the pinned device.
    StreamHandle ha = ex.submit({BbopInstr::trsp(a, 8),
                                 BbopInstr::trsp(y, 8)});
    // Stream B fills the (bound-1) queue once A is in flight; poll
    // until the submit no longer blocks instantly.
    StreamHandle hb = ex.submit(
        {BbopInstr::binary(OpKind::Add, 8, y, a, a)});

    // Stream C must Block-wait in submit() until the pin releases.
    std::atomic<bool> submitted{false};
    StreamHandle hc;
    std::thread blocked([&] {
        hc = ex.submit({BbopInstr::trspInv(y, 8)});
        submitted.store(true);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    EXPECT_FALSE(submitted.load()); // genuinely blocked
    pin.release();
    blocked.join();

    const StreamResult rc = hc.wait();
    // The blocked stream spent >= ~60 ms in admission; both the
    // breakdown AND the end-to-end wall time must show it.
    EXPECT_GE(rc.backpressureWaitNs, 40e6);
    EXPECT_GE(rc.wallNs, rc.backpressureWaitNs);
    EXPECT_EQ(rc.e2eNs(), rc.wallNs);
    EXPECT_GE(rc.serviceNs(), 0.0);
    EXPECT_LE(rc.serviceNs(), rc.wallNs);
    EXPECT_NEAR(rc.serviceNs(),
                rc.wallNs - rc.backpressureWaitNs, 1.0);

    // The invariant holds for every stream, blocked or not.
    for (const StreamHandle *h : {&ha, &hb, &hc}) {
        const StreamResult r =
            const_cast<StreamHandle *>(h)->wait();
        EXPECT_GE(r.e2eNs(), r.backpressureWaitNs);
        EXPECT_GE(r.wallNs, 0.0);
    }
}

// ---- satellite 2: counter getters vs concurrent submitters ----------

TEST(Serving, LifetimeCounterGettersAreRaceFreeUnderHammer)
{
    DeviceGroup g(testCfg(), 2);
    StreamExecutorOptions opts;
    opts.enableStreamCache = true;
    StreamExecutor ex(g, opts);
    const size_t n = 128;

    constexpr size_t kSubmitters = 2, kRounds = 25;
    std::vector<uint16_t> objs;
    for (size_t t = 0; t < kSubmitters; ++t) {
        objs.push_back(ex.defineObject(n, 8)); // src
        objs.push_back(ex.defineObject(n, 8)); // dst
        ex.writeObject(objs[2 * t], randomData(n, 0xff, t));
    }

    std::atomic<bool> stop{false};
    std::vector<std::thread> readers;
    for (int r = 0; r < 2; ++r)
        readers.emplace_back([&] {
            uint64_t sink = 0;
            while (!stop.load(std::memory_order_relaxed)) {
                sink += ex.queueHighWatermark();
                sink += ex.cacheHits();
                sink += ex.cacheTrspHits();
                sink += ex.cacheInitHits();
                sink += ex.optimizedInstructionCount();
            }
            // Keep the loop observable so it cannot be elided.
            EXPECT_GE(sink, 0u);
        });

    std::vector<std::thread> submitters;
    for (size_t t = 0; t < kSubmitters; ++t)
        submitters.emplace_back([&, t] {
            const uint16_t src = objs[2 * t], dst = objs[2 * t + 1];
            // Repeated trsp's of the same object exercise the cache
            // counters while the readers spin.
            for (size_t i = 0; i < kRounds; ++i)
                ex.submit({BbopInstr::trsp(src, 8),
                           BbopInstr::trsp(dst, 8),
                           BbopInstr::binary(OpKind::Add, 8, dst,
                                             src, src)})
                    .wait();
        });
    for (auto &th : submitters)
        th.join();
    stop.store(true);
    for (auto &th : readers)
        th.join();

    EXPECT_GE(ex.cacheTrspHits(), 1u);
    EXPECT_EQ(ex.cacheHits(),
              ex.cacheTrspHits() + ex.cacheInitHits());
}

// ---- histogram ------------------------------------------------------

TEST(LatencyHistogram, BucketBoundsContainTheirValues)
{
    for (uint64_t v : {0ULL, 1ULL, 7ULL, 8ULL, 9ULL, 100ULL,
                       1000ULL, 123456ULL, 1ULL << 40,
                       (1ULL << 40) + 12345ULL, ~0ULL}) {
        const size_t idx = LatencyHistogram::bucketOf(v);
        ASSERT_LT(idx, LatencyHistogram::kBuckets) << v;
        EXPECT_LE(LatencyHistogram::bucketLowNs(idx), v) << v;
        if (v == ~0ULL) // top bucket's bound saturates at max
            EXPECT_EQ(LatencyHistogram::bucketHighNs(idx), v);
        else
            EXPECT_GT(LatencyHistogram::bucketHighNs(idx), v) << v;
    }
    // Buckets tile the range: consecutive bounds meet exactly.
    for (size_t i = 0; i + 1 < LatencyHistogram::kBuckets; ++i)
        ASSERT_EQ(LatencyHistogram::bucketHighNs(i),
                  LatencyHistogram::bucketLowNs(i + 1))
            << i;
}

TEST(LatencyHistogram, QuantilesWithinLogLinearError)
{
    LatencyHistogram h;
    // 98 fast samples at 10 us, 1 at 1 ms, 1 at 100 ms: the quantile
    // ranks (ceil(q * 100)) land at samples 50, 99, and 100.
    for (int i = 0; i < 98; ++i)
        h.record(10e3);
    h.record(1e6);
    h.record(100e6);
    EXPECT_EQ(h.count(), 100u);
    // Log-linear buckets bound relative error at 2^-3 = 12.5%.
    EXPECT_NEAR(h.p50(), 10e3, 10e3 * 0.125);
    EXPECT_NEAR(h.p99(), 1e6, 1e6 * 0.125);
    EXPECT_NEAR(h.p999(), 100e6, 100e6 * 0.125);
    EXPECT_DOUBLE_EQ(h.maxNs(), 100e6);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.p99(), 0.0);
}

TEST(LatencyHistogram, ConcurrentRecordsAllCounted)
{
    LatencyHistogram h;
    constexpr int kThreads = 4, kPer = 5000;
    std::vector<std::thread> ths;
    for (int t = 0; t < kThreads; ++t)
        ths.emplace_back([&h, t] {
            for (int i = 0; i < kPer; ++i)
                h.record(1e3 * (t + 1));
        });
    for (auto &th : ths)
        th.join();
    EXPECT_EQ(h.count(),
              static_cast<uint64_t>(kThreads) * kPer);
    EXPECT_DOUBLE_EQ(h.maxNs(), 4e3);
    EXPECT_GE(h.p999(), h.p50());
}

// ---- coalescer under concurrent submitters (TSan food) --------------

TEST(Serving, ConcurrentSubmittersEachGetTheirOwnResult)
{
    DeviceGroup g(testCfg(), 2);
    StreamExecutor ex(g);
    RequestCoalescer co(
        ex, CoalescerOptions{/*maxBatch=*/4, /*maxLingerUs=*/500.0,
                             /*maxPending=*/16,
                             AdmissionPolicy::Block});
    const TpchFilterSpec spec{/*rows=*/48, /*bits=*/16};
    const uint32_t cls = co.registerClass(tpchFilterClass(spec));

    constexpr size_t kThreads = 4, kPer = 6;
    std::atomic<size_t> mismatches{0};
    std::vector<std::thread> ths;
    for (size_t t = 0; t < kThreads; ++t)
        ths.emplace_back([&, t] {
            for (size_t i = 0; i < kPer; ++i) {
                const auto col =
                    randomData(spec.rows, 0xfff, t * 100 + i);
                const uint64_t thr = 0x700 + t * 16 + i;
                ServeFuture f = co.submit(
                    cls, tpchFilterRequest(spec, col, thr));
                if (f.wait().output !=
                    tpchFilterHost(spec, col, thr))
                    mismatches.fetch_add(1);
            }
        });
    for (auto &th : ths)
        th.join();
    co.drain(); // settle the pending counter before inspecting it
    EXPECT_EQ(mismatches.load(), 0u);
    EXPECT_EQ(co.completedRequests(), kThreads * kPer);
    EXPECT_EQ(co.latency().count(), kThreads * kPer);
    EXPECT_EQ(co.pendingRequests(), 0u);
    EXPECT_GT(co.latency().p999(), 0.0);
}

/**
 * Settle before resolve, as a closed-loop probe: 8 clients, each
 * behind its own one-request budget, submit 200 requests back to
 * back. No client ever has more than its budget in flight, so any
 * shed is spurious, and the coalescer's counters must be final the
 * moment wait() returns.
 */
TEST(Serving, ClosedLoopClientsAreNeverShedAndSeeFinalCounters)
{
    DeviceGroup g(testCfg(), 2);
    StreamExecutor ex(g);
    const TpchFilterSpec spec{/*rows=*/32, /*bits=*/16};
    constexpr size_t kClients = 8, kSubmits = 200;
    std::vector<std::unique_ptr<RequestCoalescer>> cos;
    std::vector<uint32_t> cls;
    for (size_t c = 0; c < kClients; ++c) {
        cos.push_back(std::make_unique<RequestCoalescer>(
            ex, CoalescerOptions{/*maxBatch=*/1, /*maxLingerUs=*/0.0,
                                 /*maxPending=*/1,
                                 AdmissionPolicy::Shed}));
        cls.push_back(cos.back()->registerClass(tpchFilterClass(spec)));
    }
    const auto col = randomData(spec.rows, 0xfff, 7);
    const auto expect = tpchFilterHost(spec, col, 0x400);

    std::atomic<size_t> sheds{0}, stale{0}, wrong{0};
    std::vector<std::thread> ths;
    for (size_t c = 0; c < kClients; ++c)
        ths.emplace_back([&, c] {
            RequestCoalescer &co = *cos[c];
            uint64_t done = 0;
            for (size_t k = 0; k < kSubmits; ++k) {
                ServeFuture f;
                try {
                    f = co.submit(cls[c],
                                  tpchFilterRequest(spec, col, 0x400));
                } catch (const RequestShedError &) {
                    sheds.fetch_add(1);
                    continue;
                }
                if (f.wait().output != expect)
                    wrong.fetch_add(1);
                ++done;
                if (co.completedRequests() != done ||
                    co.latency().count() != done ||
                    co.pendingRequests() != 0)
                    stale.fetch_add(1);
            }
        });
    for (auto &th : ths)
        th.join();
    EXPECT_EQ(sheds.load(), 0u);
    EXPECT_EQ(stale.load(), 0u);
    EXPECT_EQ(wrong.load(), 0u);
    for (const auto &co : cos)
        EXPECT_EQ(co->shedRequests(), 0u);
}

// ---- histogram merge / snapshot -------------------------------------

TEST(LatencyHistogram, MergeEqualsConcatenatedSamples)
{
    LatencyHistogram a, b, ref;
    Rng rng(91);
    for (int i = 0; i < 400; ++i) {
        // Spread across many octaves so both the linear and the
        // log-linear bucket regions carry counts.
        const double ns =
            static_cast<double>(rng.next() % (1ull << (i % 30)));
        (i % 2 ? a : b).record(ns);
        ref.record(ns);
    }

    // merge() must be bucket-wise: the merged histogram is
    // indistinguishable from one that recorded the concatenation.
    LatencyHistogram merged = a.snapshot();
    merged.merge(b);
    EXPECT_EQ(merged.count(), ref.count());
    EXPECT_EQ(merged.count(), a.count() + b.count());
    EXPECT_DOUBLE_EQ(merged.maxNs(), ref.maxNs());
    for (double q : {0.0, 0.1, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0})
        EXPECT_DOUBLE_EQ(merged.quantileNs(q), ref.quantileNs(q))
            << "q=" << q;

    // Merged quantiles stay monotone in q.
    double prev = 0.0;
    for (double q = 0.0; q <= 1.0; q += 0.01) {
        const double v = merged.quantileNs(q);
        EXPECT_GE(v, prev) << "q=" << q;
        prev = v;
    }

    // A snapshot is an independent copy: recording into the source
    // afterwards must not leak through.
    const LatencyHistogram snap = a.snapshot();
    const uint64_t before = snap.count();
    a.record(1e6);
    EXPECT_EQ(snap.count(), before);
    EXPECT_EQ(a.count(), before + 1);

    // Self-merge would double-count in place; it is rejected.
    EXPECT_THROW(a.merge(a), FatalError);
}

// ---- coalescer edge cases -------------------------------------------

TEST(Serving, DrainWithNoClassesAndReuseAfterDrain)
{
    DeviceGroup g(testCfg(), 2);
    StreamExecutor ex(g);
    RequestCoalescer co(
        ex, CoalescerOptions{/*maxBatch=*/4, /*maxLingerUs=*/60e6,
                             /*maxPending=*/0,
                             AdmissionPolicy::Shed});

    // Nothing registered, nothing submitted: drain() must return
    // immediately, and so must a second drain right behind it.
    co.drain();
    co.drain();
    EXPECT_EQ(co.completedRequests(), 0u);
    EXPECT_EQ(co.pendingRequests(), 0u);

    // The coalescer is not a one-shot: registration and submission
    // still work after draining, and a drain-with-work then a drain-
    // with-nothing both settle.
    const TpchFilterSpec spec{/*rows=*/32, /*bits=*/16};
    const uint32_t cls = co.registerClass(tpchFilterClass(spec));
    const auto col = randomData(spec.rows, 0xfff, 8);
    ServeFuture f = co.submit(cls, tpchFilterRequest(spec, col, 99));
    co.drain();
    EXPECT_TRUE(f.done());
    EXPECT_EQ(f.wait().output, tpchFilterHost(spec, col, 99));
    co.drain();
    ServeFuture f2 = co.submit(cls, tpchFilterRequest(spec, col, 7));
    co.drain();
    EXPECT_EQ(f2.wait().output, tpchFilterHost(spec, col, 7));
    EXPECT_EQ(co.completedRequests(), 2u);
}

TEST(Serving, ShedMessageNamesTenantTag)
{
    DeviceGroup g(testCfg(), 2);
    StreamExecutor ex(g);
    CoalescerOptions opts{/*maxBatch=*/8, /*maxLingerUs=*/60e6,
                          /*maxPending=*/1, AdmissionPolicy::Shed};
    opts.tenantTag = "acme";
    RequestCoalescer co(ex, opts);
    const TpchFilterSpec spec{/*rows=*/32, /*bits=*/16};
    const uint32_t cls = co.registerClass(tpchFilterClass(spec));
    const auto col = randomData(spec.rows, 0xfff, 9);

    ServeFuture f = co.submit(cls, tpchFilterRequest(spec, col, 1));
    try {
        co.submit(cls, tpchFilterRequest(spec, col, 2));
        FAIL() << "expected shed";
    } catch (const RequestShedError &e) {
        EXPECT_NE(std::string(e.what()).find("[tenant acme]"),
                  std::string::npos)
            << e.what();
    }
    co.flush();
    EXPECT_EQ(f.wait().output, tpchFilterHost(spec, col, 1));
}

// ---- the serving stack over a tenant view ---------------------------

TEST(Serving, CoalescerRunsUnmodifiedOverTenantView)
{
    DeviceGroup g(testCfg(), 2);
    StreamExecutor ex(g);
    TenantExecutor te(ex);
    const uint32_t tid = te.registerTenant({/*name=*/"serving"});
    const TpchFilterSpec spec{/*rows=*/48, /*bits=*/16};

    {
        // The whole coalescer — batch objects, shared columns,
        // dispatcher — runs against the tenant's namespace.
        RequestCoalescer co(
            te.view(tid),
            CoalescerOptions{/*maxBatch=*/3, /*maxLingerUs=*/0.0,
                             /*maxPending=*/0,
                             AdmissionPolicy::Shed});
        const uint32_t cls = co.registerClass(tpchFilterClass(spec));
        std::vector<ServeFuture> fs;
        std::vector<std::vector<uint64_t>> cols;
        for (size_t r = 0; r < 6; ++r) {
            cols.push_back(randomData(spec.rows, 0xfff, 70 + r));
            fs.push_back(co.submit(
                cls, tpchFilterRequest(spec, cols.back(),
                                       /*threshold=*/0x400 + r)));
        }
        for (size_t r = 0; r < 6; ++r)
            EXPECT_EQ(fs[r].wait().output,
                      tpchFilterHost(spec, cols[r], 0x400 + r))
                << r;
        co.drain();
    }

    // Everything it did is attributed to the tenant.
    const TenantStats s = te.stats(tid);
    EXPECT_GT(s.executed, 0u);
    EXPECT_EQ(s.failed, 0u);
    EXPECT_GT(s.liveObjects, 0u);
    EXPECT_GT(s.instructions, 0u);
    const TenantStats fleet = te.fleetStats();
    EXPECT_EQ(fleet.executed, s.executed);
}

} // namespace
} // namespace simdram
