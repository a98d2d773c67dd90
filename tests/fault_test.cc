/**
 * @file
 * Tests for the fault-tolerant execution pipeline: the TRA fault
 * injector (deterministic plans and statistical rates), integrity
 * detection under Checksum and DualModular, retry recovery to
 * bit-exact results, typed fault/deadline errors with device
 * attribution and restored state, device quarantine with healthy-
 * device and host fallback, StreamHandle::waitFor readiness probing,
 * destruction with in-flight streams, and the tenant/serve surfacing
 * of fault outcomes. Runs under ThreadSanitizer and ASan/UBSan in CI.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "common/error.h"
#include "dram/fault_injector.h"
#include "runtime/stream_executor.h"
#include "serve/request_coalescer.h"
#include "stream/stream_builder.h"
#include "stream_testutil.h"
#include "tenant/tenant_executor.h"

namespace simdram
{
namespace
{

using testutil::randomData;
using testutil::testCfg;

/** y = a + a, with the operands round-tripped through the layout. */
std::vector<BbopInstr>
addStream(uint16_t a, uint16_t y)
{
    return {BbopInstr::trsp(a, 8), BbopInstr::trsp(y, 8),
            BbopInstr::binary(OpKind::Add, 8, y, a, a),
            BbopInstr::trspInv(y, 8)};
}

StreamExecutorOptions
faultOpts(IntegrityMode mode, size_t attempts, size_t quarantine = 0,
          double deadlineUs = 0.0)
{
    StreamExecutorOptions o;
    o.integrityMode = mode;
    o.retryPolicy.maxAttempts = attempts;
    o.quarantineFaultThreshold = quarantine;
    o.deadlineUs = deadlineUs;
    return o;
}

/**
 * Pins device @p d's mutex from a dedicated thread (constructor
 * returns once it is held) until release() — so a test can stall that
 * device's worker deterministically without itself holding a device
 * lock while calling into the executor.
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

// ---------------------------------------------------------------
// FaultInjector unit behaviour
// ---------------------------------------------------------------

TEST(FaultInjector, DeterministicPlanFiresExactOrdinals)
{
    auto inj = FaultInjector::deterministic(FaultPlan{{0, 2}});
    EXPECT_TRUE(inj->sampleTra());  // ordinal 0
    EXPECT_FALSE(inj->sampleTra()); // ordinal 1
    EXPECT_TRUE(inj->sampleTra());  // ordinal 2
    EXPECT_FALSE(inj->sampleTra()); // ordinal 3
    EXPECT_EQ(inj->trasObserved(), 4u);
    EXPECT_EQ(inj->trasFailed(), 2u);
    EXPECT_DOUBLE_EQ(inj->empiricalFailureRate(), 0.5);

    inj->reset();
    EXPECT_EQ(inj->trasObserved(), 0u);
    EXPECT_DOUBLE_EQ(inj->empiricalFailureRate(), 0.0);
    EXPECT_TRUE(inj->sampleTra()); // the plan replays from ordinal 0
}

TEST(FaultInjector, StatisticalRateEndpointsAndDeterminism)
{
    auto always = FaultInjector::statistical(1.0, 7);
    auto never = FaultInjector::statistical(0.0, 7);
    for (int i = 0; i < 100; ++i) {
        EXPECT_TRUE(always->sampleTra());
        EXPECT_FALSE(never->sampleTra());
    }
    EXPECT_EQ(always->trasFailed(), 100u);
    EXPECT_EQ(never->trasFailed(), 0u);

    // A statistical injector tracks its configured rate (binomial
    // sigma at n=20000, p=0.3 is ~0.0032; 0.02 is > 6 sigma)...
    auto inj = FaultInjector::statistical(0.3, 99);
    const size_t n = 20000;
    for (size_t i = 0; i < n; ++i)
        inj->sampleTra();
    EXPECT_EQ(inj->trasObserved(), n);
    EXPECT_NEAR(inj->empiricalFailureRate(), 0.3, 0.02);

    // ...and reset() replays the identical Bernoulli sequence.
    const uint64_t failed = inj->trasFailed();
    inj->reset();
    for (size_t i = 0; i < n; ++i)
        inj->sampleTra();
    EXPECT_EQ(inj->trasFailed(), failed);
}

TEST(FaultInjector, InjectedFaultsAreCountedInStreamStats)
{
    // IntegrityMode::Off: corruption flows through undetected, but
    // every corrupted TRA is charged to the stream's DramStats.
    DeviceGroup g(testCfg(), 1);
    g.setFaultInjector(0,
                       FaultInjector::deterministic(FaultPlan{{0, 1, 2}}));
    StreamExecutor ex(g);
    const size_t n = 100;
    const uint16_t a = ex.defineObject(n, 8);
    const uint16_t y = ex.defineObject(n, 8);
    ex.writeObject(a, randomData(n, 0xff, 3));

    const StreamResult r = ex.submit(addStream(a, y)).wait();
    EXPECT_EQ(r.compute.traFaults, 3u);
    EXPECT_EQ(r.attempts, 1u); // Off: no detection, no retry
    EXPECT_EQ(r.faultsDetected, 0u);
    EXPECT_EQ(g.faultInjector(0)->trasFailed(), 3u);
    EXPECT_GT(g.faultInjector(0)->trasObserved(), 3u);
    EXPECT_EQ(ex.deviceFaultCount(0), 0u);
}

// ---------------------------------------------------------------
// Detection + retry recovery (the E2E acceptance scenario)
// ---------------------------------------------------------------

/**
 * The deterministic end-to-end recovery scenario: a FaultPlan
 * corrupts the first TRAs of device 0 (of 4), the integrity check
 * detects it, the retry re-executes from the restored snapshot, and
 * the final images are bit-exact with a fault-free run.
 */
void
expectDetectAndRecover(IntegrityMode mode)
{
    DeviceGroup g(testCfg(), 4);
    g.setFaultInjector(0,
                       FaultInjector::deterministic(FaultPlan{{0, 1, 2}}));
    StreamExecutor ex(g, faultOpts(mode, /*attempts=*/2));
    const size_t n = 700; // shards on devices 0..2
    const auto da = randomData(n, 0xff, 17);
    const uint16_t a = ex.defineObject(n, 8);
    const uint16_t y = ex.defineObject(n, 8);
    ex.writeObject(a, da);

    const StreamResult r = ex.submit(addStream(a, y)).wait();
    EXPECT_EQ(r.attempts, 2u);
    EXPECT_GE(r.faultsDetected, 1u);
    EXPECT_EQ(r.recoveredOnDevice, -1); // retry, not quarantine
    EXPECT_GE(ex.deviceFaultCount(0), 1u);
    EXPECT_EQ(ex.deviceFaultCount(1), 0u);
    EXPECT_TRUE(ex.deviceHealthy(0)); // no quarantine configured
    EXPECT_EQ(ex.quarantinedDeviceCount(), 0u);

    const auto out = ex.readObject(y);
    for (size_t i = 0; i < n; ++i)
        ASSERT_EQ(out[i], (da[i] * 2) & 0xff) << i;
    EXPECT_EQ(ex.readObject(a), da); // inputs untouched
}

TEST(FaultTolerance, ChecksumDetectsAndRetryRecoversBitExact)
{
    expectDetectAndRecover(IntegrityMode::Checksum);
}

TEST(FaultTolerance, DualModularDetectsAndRetryRecoversBitExact)
{
    expectDetectAndRecover(IntegrityMode::DualModular);
}

TEST(FaultTolerance, ExhaustedRetryBudgetIsTypedAndRestored)
{
    // Every TRA corrupts: both attempts fail, the stream surfaces
    // the attributed StreamFaultError, and the device is rolled back
    // to its pre-stream state (a faulted stream is side-effect-free).
    DeviceGroup g(testCfg(), 1);
    g.setFaultInjector(0, FaultInjector::statistical(1.0, 5));
    StreamExecutor ex(g,
                      faultOpts(IntegrityMode::Checksum, /*attempts=*/2));
    const size_t n = 100;
    const auto da = randomData(n, 0xff, 23);
    const uint16_t a = ex.defineObject(n, 8);
    const uint16_t y = ex.defineObject(n, 8);
    ex.writeObject(a, da);
    const auto y0 = ex.readObject(y);

    StreamHandle h = ex.submit(addStream(a, y));
    EXPECT_TRUE(h.waitFor(60e6)); // readiness, even for an error
    try {
        h.wait();
        FAIL() << "expected StreamFaultError";
    } catch (const StreamFaultError &e) {
        EXPECT_EQ(e.device(), 0u);
        EXPECT_NE(std::string(e.what()).find("integrity"),
                  std::string::npos);
    }
    EXPECT_EQ(ex.deviceFaultCount(0), 2u);
    EXPECT_EQ(ex.readObject(a), da); // restored
    EXPECT_EQ(ex.readObject(y), y0); // restored

    // Silence the injector: the SAME program must now succeed, and
    // the rollback must have invalidated the stream cache (the
    // re-submitted trsp's must re-execute, not elide stale lanes).
    g.setFaultInjector(0, nullptr);
    const StreamResult r = ex.submit(addStream(a, y)).wait();
    EXPECT_EQ(r.attempts, 1u);
    const auto out = ex.readObject(y);
    for (size_t i = 0; i < n; ++i)
        ASSERT_EQ(out[i], (da[i] * 2) & 0xff) << i;
}

// ---------------------------------------------------------------
// Quarantine recovery
// ---------------------------------------------------------------

TEST(FaultTolerance, QuarantineReExecutesOnHealthyDevice)
{
    DeviceGroup g(testCfg(), 4);
    g.setFaultInjector(0,
                       FaultInjector::deterministic(FaultPlan{{0, 1, 2}}));
    StreamExecutor ex(g, faultOpts(IntegrityMode::Checksum,
                                   /*attempts=*/3, /*quarantine=*/1));
    const size_t n = 700;
    const auto da = randomData(n, 0xff, 31);
    const uint16_t a = ex.defineObject(n, 8);
    const uint16_t y = ex.defineObject(n, 8);
    ex.writeObject(a, da);

    // First fault trips the threshold: instead of burning retries,
    // the stream drains through a healthy device and still succeeds.
    const StreamResult r = ex.submit(addStream(a, y)).wait();
    EXPECT_EQ(r.attempts, 2u);
    EXPECT_GE(r.faultsDetected, 1u);
    EXPECT_GE(r.recoveredOnDevice, 1);
    EXPECT_FALSE(ex.deviceHealthy(0));
    EXPECT_TRUE(ex.deviceHealthy(1));
    EXPECT_TRUE(ex.deviceHealthy(2));
    EXPECT_TRUE(ex.deviceHealthy(3));
    EXPECT_EQ(ex.quarantinedDeviceCount(), 1u);
    auto out = ex.readObject(y);
    for (size_t i = 0; i < n; ++i)
        ASSERT_EQ(out[i], (da[i] * 2) & 0xff) << i;

    // The quarantine is sticky: later streams route their ops around
    // device 0 from the start and stay bit-exact.
    const auto da2 = randomData(n, 0xff, 37);
    ex.writeObject(a, da2);
    const StreamResult r2 = ex.submit(addStream(a, y)).wait();
    EXPECT_GE(r2.recoveredOnDevice, 1);
    out = ex.readObject(y);
    for (size_t i = 0; i < n; ++i)
        ASSERT_EQ(out[i], (da2[i] * 2) & 0xff) << i;
}

TEST(FaultTolerance, QuarantineFallsBackToHostWhenNoDeviceIsHealthy)
{
    DeviceGroup g(testCfg(), 1);
    g.setFaultInjector(0,
                       FaultInjector::deterministic(FaultPlan{{0, 1, 2}}));
    StreamExecutor ex(g, faultOpts(IntegrityMode::DualModular,
                                   /*attempts=*/2, /*quarantine=*/1));
    const size_t n = 120;
    const auto da = randomData(n, 0xff, 41);
    const uint16_t a = ex.defineObject(n, 8);
    const uint16_t y = ex.defineObject(n, 8);
    ex.writeObject(a, da);

    const StreamResult r = ex.submit(addStream(a, y)).wait();
    EXPECT_EQ(r.recoveredOnDevice, -2); // the host reference path
    EXPECT_EQ(ex.quarantinedDeviceCount(), 1u);
    const auto out = ex.readObject(y);
    for (size_t i = 0; i < n; ++i)
        ASSERT_EQ(out[i], (da[i] * 2) & 0xff) << i;
}

// ---------------------------------------------------------------
// Deadlines and waitFor
// ---------------------------------------------------------------

TEST(FaultTolerance, DeadlineExpiryIsTypedUnderAStalledDevice)
{
    DeviceGroup g(testCfg(), 2);
    StreamExecutor ex(g, faultOpts(IntegrityMode::Off, /*attempts=*/1,
                                   /*quarantine=*/0,
                                   /*deadlineUs=*/2000.0));
    const size_t n = 300; // shards on both devices
    const uint16_t a = ex.defineObject(n, 8);
    const uint16_t y = ex.defineObject(n, 8);
    ex.writeObject(a, randomData(n, 0xff, 47));

    StreamHandle h;
    {
        DevicePin pin(g, 0);
        h = ex.submit(addStream(a, y));
        // The pinned device cannot start the stream; burn well past
        // the 2 ms deadline while probing (non-blocking readiness).
        EXPECT_FALSE(h.waitFor(20e3));
        EXPECT_FALSE(h.done());
    }
    // Released: the worker picks the stream up only to find its
    // deadline long gone, and fails it typed instead of running late.
    EXPECT_TRUE(h.waitFor(60e6));
    EXPECT_THROW(h.wait(), StreamDeadlineError);
}

TEST(FaultTolerance, DeadlineFailureInvalidatesTheStreamCache)
{
    // The stalled device fails the stream at its first deadline check
    // without running it and without a rollback, yet the submission
    // committed "a and y are transposed" cache facts. Unless the
    // failure invalidates them, the resubmission below elides both
    // trsps and device 0 adds lanes that were never transposed.
    DeviceGroup g(testCfg(), 2);
    StreamExecutor ex(g, faultOpts(IntegrityMode::Off, /*attempts=*/1,
                                   /*quarantine=*/0,
                                   /*deadlineUs=*/50e3));
    const size_t n = 300; // shards on both devices
    const auto da = randomData(n, 0xff, 59);
    const uint16_t a = ex.defineObject(n, 8);
    const uint16_t y = ex.defineObject(n, 8);
    ex.writeObject(a, da);

    StreamHandle h;
    {
        DevicePin pin(g, 0);
        h = ex.submit(addStream(a, y));
        EXPECT_FALSE(h.waitFor(100e3)); // pinned past the deadline
    }
    EXPECT_THROW(h.wait(), StreamDeadlineError);

    const StreamResult r = ex.submit(addStream(a, y)).wait();
    EXPECT_EQ(r.cachedInstructions, 0u);
    const auto out = ex.readObject(y);
    for (size_t i = 0; i < n; ++i)
        ASSERT_EQ(out[i], (da[i] * 2) & 0xff) << i;
}

TEST(FaultTolerance, WaitForIsANonConsumingReadinessProbe)
{
    DeviceGroup g(testCfg(), 2);
    StreamExecutor ex(g);
    const size_t n = 300;
    const auto da = randomData(n, 0xff, 53);
    const uint16_t a = ex.defineObject(n, 8);
    const uint16_t y = ex.defineObject(n, 8);
    ex.writeObject(a, da);

    StreamHandle h;
    {
        DevicePin pin(g, 0);
        h = ex.submit(addStream(a, y));
        EXPECT_FALSE(h.waitFor(5e3));
        EXPECT_FALSE(h.done());
    }
    EXPECT_TRUE(h.waitFor(60e6));
    EXPECT_TRUE(h.waitFor(0.0)); // re-probing stays true
    EXPECT_TRUE(h.done());
    const StreamResult r = h.wait(); // the probe consumed nothing
    EXPECT_EQ(r.attempts, 1u);
    const auto out = ex.readObject(y);
    for (size_t i = 0; i < n; ++i)
        ASSERT_EQ(out[i], (da[i] * 2) & 0xff) << i;
}

// ---------------------------------------------------------------
// Destruction with in-flight streams
// ---------------------------------------------------------------

TEST(FaultTolerance, ExecutorDestructionWithInFlightStreams)
{
    // Streams still queued (some of them faulting and retrying) when
    // the executor is destroyed: the destructor must drain cleanly
    // with nobody waiting on the handles. TSan/ASan guard this.
    DeviceGroup g(testCfg(), 2);
    g.setFaultInjector(
        0, FaultInjector::deterministic(FaultPlan{{0, 5, 9}}));
    {
        StreamExecutor ex(g, faultOpts(IntegrityMode::Checksum,
                                       /*attempts=*/2));
        const size_t n = 300;
        const uint16_t a = ex.defineObject(n, 8);
        const uint16_t y = ex.defineObject(n, 8);
        ex.writeObject(a, randomData(n, 0xff, 59));
        ex.submit({BbopInstr::trsp(a, 8), BbopInstr::trsp(y, 8)});
        for (int i = 0; i < 6; ++i)
            ex.submit({BbopInstr::binary(OpKind::Add, 8, y, a, a)});
        // No wait(), no sync(): handles are dropped on the floor.
    }
    SUCCEED();
}

TEST(FaultTolerance, TenantDestructionWithInFlightStreams)
{
    DeviceGroup g(testCfg(), 2);
    StreamExecutor ex(g);
    {
        TenantExecutor te(ex);
        const uint32_t t0 = te.registerTenant({/*name=*/"t0"});
        const uint32_t t1 = te.registerTenant({/*name=*/"t1"});
        const size_t n = 200;
        for (uint32_t t : {t0, t1}) {
            const uint16_t a = te.defineObject(t, n, 8);
            const uint16_t y = te.defineObject(t, n, 8);
            te.writeObject(t, a, randomData(n, 0xff, 61 + t));
            te.submit(t, {BbopInstr::trsp(a, 8),
                          BbopInstr::trsp(y, 8)});
            for (int i = 0; i < 4; ++i)
                te.submit(t, {BbopInstr::binary(OpKind::Add, 8, y, a,
                                                a)});
        }
        // Destroy with streams pending in the DRR queues.
    }
    SUCCEED();
}

// ---------------------------------------------------------------
// Tenant surfacing of fault outcomes
// ---------------------------------------------------------------

TEST(FaultTolerance, TenantStatsSplitFaultOutcomes)
{
    DeviceGroup g(testCfg(), 2);
    g.setFaultInjector(0,
                       FaultInjector::deterministic(FaultPlan{{0, 1, 2}}));
    StreamExecutor ex(g,
                      faultOpts(IntegrityMode::Checksum, /*attempts=*/2));
    TenantExecutor te(ex);
    const uint32_t t = te.registerTenant({/*name=*/"alice"});
    const size_t n = 300;
    const auto da = randomData(n, 0xff, 67);
    const uint16_t a = te.defineObject(t, n, 8);
    const uint16_t y = te.defineObject(t, n, 8);
    te.writeObject(t, a, da);

    // Recovered-by-retry: completes, and the roll-up records the
    // detection and the extra attempt against THIS tenant.
    te.submit(t, addStream(a, y)).wait();
    te.drain();
    TenantStats s = te.stats(t);
    EXPECT_EQ(s.executed, 1u);
    EXPECT_EQ(s.failed, 0u);
    EXPECT_GE(s.faultsDetected, 1u);
    EXPECT_EQ(s.retriedStreams, 1u);
    EXPECT_EQ(s.recoveredStreams, 0u);
    EXPECT_EQ(s.faultedStreams, 0u);
    EXPECT_EQ(s.deadlineExpiredStreams, 0u);
    const auto out = te.readObject(t, y);
    for (size_t i = 0; i < n; ++i)
        ASSERT_EQ(out[i], (da[i] * 2) & 0xff) << i;

    // Unrecoverable: every TRA corrupts, the budget exhausts, and
    // the failure is classified as a FAULT (not a generic error).
    g.setFaultInjector(0, FaultInjector::statistical(1.0, 71));
    EXPECT_THROW(te.submit(t, addStream(a, y)).wait(),
                 StreamFaultError);
    te.drain();
    s = te.stats(t);
    EXPECT_EQ(s.failed, 1u);
    EXPECT_EQ(s.faultedStreams, 1u);
    EXPECT_EQ(s.deadlineExpiredStreams, 0u);
    EXPECT_GE(s.faultsDetected, 3u);

    // The fleet roll-up agrees with the single tenant.
    const TenantStats fleet = te.fleetStats();
    EXPECT_EQ(fleet.faultedStreams, s.faultedStreams);
    EXPECT_EQ(fleet.faultsDetected, s.faultsDetected);
    EXPECT_EQ(fleet.retriedStreams, s.retriedStreams);
}

TEST(FaultTolerance, TenantStatsCountDeadlineExpiries)
{
    DeviceGroup g(testCfg(), 2);
    StreamExecutor ex(g, faultOpts(IntegrityMode::Off, /*attempts=*/1,
                                   /*quarantine=*/0,
                                   /*deadlineUs=*/2000.0));
    TenantExecutor te(ex);
    const uint32_t t = te.registerTenant({/*name=*/"bob"});
    const size_t n = 300;
    const uint16_t a = te.defineObject(t, n, 8);
    const uint16_t y = te.defineObject(t, n, 8);
    te.writeObject(t, a, randomData(n, 0xff, 73));

    TenantStreamHandle h;
    {
        DevicePin pin(g, 0);
        h = te.submit(t, addStream(a, y));
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    EXPECT_THROW(h.wait(), StreamDeadlineError);
    te.drain();
    const TenantStats s = te.stats(t);
    EXPECT_EQ(s.failed, 1u);
    EXPECT_EQ(s.deadlineExpiredStreams, 1u);
    EXPECT_EQ(s.faultedStreams, 0u);
}

// ---------------------------------------------------------------
// Serve-layer surfacing: per-request fault mapping + dispatcher
// robustness
// ---------------------------------------------------------------

/** requestInputs=1 class computing out = in + in over 8-bit lanes. */
RequestClassSpec
doubleClass(size_t elements)
{
    RequestClassSpec spec;
    spec.name = "double";
    spec.elements = elements;
    spec.bits = 8;
    spec.requestInputs = 1;
    spec.emit = [](StreamBuilder &b, const BatchLayout &layout) {
        b.binary(OpKind::Add, layout.output, layout.request[0],
                 layout.request[0]);
    };
    return spec;
}

TEST(FaultTolerance, CoalescerMapsFaultsToPerRequestErrors)
{
    DeviceGroup g(testCfg(), 1);
    g.setFaultInjector(0, FaultInjector::statistical(1.0, 79));
    StreamExecutor ex(g,
                      faultOpts(IntegrityMode::Checksum, /*attempts=*/1));
    RequestCoalescer co(ex, CoalescerOptions{/*maxBatch=*/2,
                                             /*maxLingerUs=*/0.0,
                                             /*maxPending=*/0,
                                             AdmissionPolicy::Shed});
    const size_t n = 100;
    const uint32_t cls = co.registerClass(doubleClass(n));
    const auto d0 = randomData(n, 0xff, 83);
    const auto d1 = randomData(n, 0xff, 89);

    ServeFuture f0 = co.submit(cls, {d0});
    ServeFuture f1 = co.submit(cls, {d1});
    for (ServeFuture *f : {&f0, &f1}) {
        try {
            f->wait();
            FAIL() << "expected RequestFaultError";
        } catch (const RequestFaultError &e) {
            // Typed per-request, with device attribution and the
            // class named — not a batch-wide opaque collapse.
            EXPECT_EQ(e.device(), 0);
            EXPECT_NE(std::string(e.what()).find("double"),
                      std::string::npos);
        }
    }
    EXPECT_EQ(co.completedRequests(), 2u);
    EXPECT_EQ(co.failedRequests(), 2u);
    EXPECT_EQ(co.faultedRequests(), 2u);
    EXPECT_EQ(co.deadlineExpiredRequests(), 0u);
    EXPECT_EQ(co.pendingRequests(), 0u);

    // The class's objects survived (faulted streams restore device
    // state): with the injector silenced the service heals in place.
    g.setFaultInjector(0, nullptr);
    ServeFuture f2 = co.submit(cls, {d0});
    ServeFuture f3 = co.submit(cls, {d1});
    EXPECT_EQ(f2.wait().output,
              [&] {
                  std::vector<uint64_t> e(n);
                  for (size_t i = 0; i < n; ++i)
                      e[i] = (d0[i] * 2) & 0xff;
                  return e;
              }());
    f3.wait();
    EXPECT_EQ(co.faultedRequests(), 2u); // unchanged
}

TEST(FaultTolerance, CoalescerThrowingSubmissionFulfilsEverySlot)
{
    // A class whose pipeline is rejected at SUBMIT time (it reads a
    // scratch object that was never written or transposed): the
    // batch's submission throws inside the dispatcher, and every
    // slot's future must still complete with the error — a throwing
    // batch must never strand a ServeFuture or wedge drain().
    DeviceGroup g(testCfg(), 1);
    StreamExecutor ex(g);
    RequestCoalescer co(ex, CoalescerOptions{/*maxBatch=*/2,
                                             /*maxLingerUs=*/0.0,
                                             /*maxPending=*/0,
                                             AdmissionPolicy::Shed});
    const size_t n = 64;
    RequestClassSpec bad;
    bad.name = "reads-unwritten-scratch";
    bad.elements = n;
    bad.bits = 8;
    bad.requestInputs = 1;
    bad.emit = [](StreamBuilder &b, const BatchLayout &layout) {
        const uint16_t s = layout.scratch(0, 8);
        b.binary(OpKind::Add, layout.output, s, layout.request[0]);
    };
    const uint32_t cls = co.registerClass(bad);

    ServeFuture f0 = co.submit(cls, {randomData(n, 0xff, 97)});
    ServeFuture f1 = co.submit(cls, {randomData(n, 0xff, 101)});
    EXPECT_THROW(f0.wait(), BbopError);
    EXPECT_THROW(f1.wait(), BbopError);
    EXPECT_EQ(co.completedRequests(), 2u);
    EXPECT_EQ(co.failedRequests(), 2u);
    EXPECT_EQ(co.faultedRequests(), 0u); // not an in-DRAM fault
    co.drain(); // must return: nothing stranded
    EXPECT_EQ(co.pendingRequests(), 0u);

    // The coalescer still serves well-formed classes afterwards.
    const uint32_t good = co.registerClass(doubleClass(n));
    const auto d = randomData(n, 0xff, 103);
    ServeFuture f2 = co.submit(good, {d});
    ServeFuture f3 = co.submit(good, {d});
    const ServeResult r = f2.wait();
    for (size_t i = 0; i < n; ++i)
        ASSERT_EQ(r.output[i], (d[i] * 2) & 0xff) << i;
    f3.wait();
}

TEST(FaultTolerance, CoalescerObjectSetupIsFailureAtomicUnderQuota)
{
    // Front-ending a tenant whose object quota cannot hold the
    // class's object group: ensureObjects must release everything it
    // defined (failure-atomic), fail the batch's futures, and leave
    // the tenant with zero live objects.
    DeviceGroup g(testCfg(), 1);
    StreamExecutor ex(g);
    TenantExecutor te(ex);
    const uint32_t t =
        te.registerTenant({/*name=*/"tight", /*weight=*/1,
                           /*maxObjects=*/1});
    RequestCoalescer co(te.view(t),
                        CoalescerOptions{/*maxBatch=*/1,
                                         /*maxLingerUs=*/0.0,
                                         /*maxPending=*/0,
                                         AdmissionPolicy::Shed,
                                         /*tenantTag=*/"tight"});
    const size_t n = 64;
    const uint32_t cls = co.registerClass(doubleClass(n));
    ServeFuture f = co.submit(cls, {randomData(n, 0xff, 107)});
    EXPECT_THROW(f.wait(), TenantQuotaError);
    co.drain();
    EXPECT_EQ(co.pendingRequests(), 0u);
    EXPECT_EQ(te.stats(t).liveObjects, 0u); // nothing half-defined
}

} // namespace
} // namespace simdram
