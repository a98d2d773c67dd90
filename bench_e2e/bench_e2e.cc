/**
 * @file
 * bench_e2e: the end-to-end benchmark of the SIMDRAM service stack.
 *
 *   bench_e2e --workload=<serve-mix|tenant-flood|apps-d1|apps-d4|all>
 *             --seed=N [--seconds=S] [--out=FILE] [--trace=FILE]
 *             [--smoke]
 *
 * It measures host wall clock — what a caller of the library waits
 * for — through the public layers: RequestCoalescer (serve),
 * TenantExecutor (tenant), StreamExecutor / StreamBuilder (runtime),
 * and the replay underneath. Every input comes from --seed; every
 * output is checked bit-exact against a host reference. Each workload
 * writes one result file (host_cores, mode, every metric with its
 * unit and sample count); the process exits nonzero on any mismatch.
 *
 * Untraced (the default), a run reports the end-to-end metrics:
 * p50/p90/p99 latency of the workload's unit of work,
 * throughput_per_s, setup_s and peak_rss_mb. With --trace=FILE, half
 * of the time runs untraced and half through the bench-local
 * TimedExecutor; the run reports the per-layer split (see trace.h)
 * and writes the spans as Chrome trace-event JSON to FILE. Modeled
 * DRAM numbers (DramStats) are reported beside host time and never
 * mixed with it.
 *
 * See README.md in this directory for the workloads and why each was
 * chosen, and for the map from layer metrics to end-to-end metrics.
 */

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "open_loop.h"
#include "runtime/stream_executor.h"
#include "serve/request_coalescer.h"
#include "serve/workloads.h"
#include "stats.h"
#include "stream/stream_builder.h"
#include "tenant/tenant_executor.h"
#include "trace.h"

namespace
{

using namespace simdram;
using e2e::Clock;
using e2e::Samples;

const char *const kWorkloads[] = {"serve-mix", "tenant-flood", "apps-d1",
                                  "apps-d4"};

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool smoke = false;
    std::string out;
    std::string trace;
};

/** Everything one workload run produces. */
struct Run
{
    Options opt;
    bool traced = false;
    Clock::time_point epoch = Clock::now();
    e2e::MetricSet ms;
    e2e::Outcome outcome;
    e2e::SpanSet spans;
};

/** Sub-streams of one run seed: each input family gets its own. */
enum SubStream : uint64_t
{
    kFixedPhase = 1,  ///< Arrival schedule of the (untraced) phase.
    kTracedPhase = 2, ///< Arrival schedule of the traced phase.
    kSaturation = 3,  ///< Request picks of the saturation phase.
    kServeData = 10,  ///< Reference columns and request pools.
    kTenantData = 11, ///< Resident tenant objects.
    kAppsData = 12,   ///< Apps reference data, images, coordinates.
    kImmediates = 50, ///< + phase: tenant stream immediates.
};

/** @return A seed for sub-stream @p k of run seed @p seed. */
uint64_t
subSeed(uint64_t seed, uint64_t k)
{
    return seed * 0x9e3779b97f4a7c15ULL + k * 0xbf58476d1ce4e5b9ULL + k;
}

double
secondsSince(Clock::time_point t)
{
    return std::chrono::duration<double>(Clock::now() - t).count();
}

/** 4,096-lane rows, 1,024 rows per subarray, two compute banks: the
 *  shape bench_runtime and bench_serving use, so a full 8-slot batch
 *  co-locates. */
DramConfig
wideCfg()
{
    DramConfig cfg = DramConfig::forTesting(4096, 1024);
    cfg.computeBanks = 2;
    return cfg;
}

/** wideCfg() with 4,096 rows per subarray: on one device the three
 *  apps parts' operand groups (2,248 rows per bank) then share one
 *  subarray data region instead of straddling a boundary, which the
 *  sequential allocator cannot co-locate. Rows are copy-on-write, so
 *  the extra rows cost no memory until written. */
DramConfig
appsCfg()
{
    DramConfig cfg = DramConfig::forTesting(4096, 4096);
    cfg.computeBanks = 2;
    return cfg;
}

/** A bare executor, or the timing decorator when tracing. */
std::unique_ptr<StreamExecutor>
makeExecutor(DeviceGroup &g, StreamExecutorOptions opts, bool timed,
             Clock::time_point epoch)
{
    opts.lintMode = LintMode::Warn; // every workload lints at submit
    if (timed)
        return std::make_unique<e2e::TimedExecutor>(g, opts, epoch);
    return std::make_unique<StreamExecutor>(g, opts);
}

e2e::TimedExecutor &
timedOf(StreamExecutor &ex)
{
    auto *t = dynamic_cast<e2e::TimedExecutor *>(&ex);
    if (t == nullptr)
        e2e::fail("traced phase without a TimedExecutor");
    return *t;
}

/**
 * Builds a rig @p reps times, timing each construction, and keeps the
 * last; the previous rig is destroyed before the next is built so the
 * peak RSS is that of one rig. Appends each time to @p setupS.
 */
template <class Rig, class Make>
std::unique_ptr<Rig>
timedSetup(size_t reps, Samples &setupS, Make &&make)
{
    std::unique_ptr<Rig> rig;
    for (size_t i = 0; i < reps; ++i) {
        rig.reset();
        const auto t0 = Clock::now();
        rig = make();
        setupS.add(secondsSince(t0));
    }
    return rig;
}

/** Modeled DRAM work of a measured phase (compute + transfer). */
struct Modeled
{
    DramStats compute;
    DramStats transfer;
};

/** Adds the per-unit modeled metrics and host time per command. */
void
addModeled(e2e::MetricSet &ms, const Modeled &m, double units,
           double hostNs)
{
    const double u = units > 0 ? units : 1.0;
    const double cmds = static_cast<double>(
        m.compute.aaps + m.compute.aps + m.transfer.aaps + m.transfer.aps);
    ms.add("dram.compute_us", m.compute.latencyNs / 1e3 / u, "model_us");
    ms.add("dram.transfer_us", m.transfer.latencyNs / 1e3 / u,
           "model_us");
    ms.add("dram.compute_uj", m.compute.energyPj / 1e6 / u, "model_uJ");
    ms.add("dram.transfer_uj", m.transfer.energyPj / 1e6 / u,
           "model_uJ");
    ms.add("dram.aaps", static_cast<double>(m.compute.aaps +
                                            m.transfer.aaps) / u,
           "count");
    ms.add("dram.aps",
           static_cast<double>(m.compute.aps + m.transfer.aps) / u,
           "count");
    ms.add("dram.multi_acts",
           static_cast<double>(m.compute.multiActivates +
                               m.transfer.multiActivates) / u,
           "count");
    ms.add("exec.host_ns_per_cmd", cmds > 0 ? hostNs / cmds : 0.0, "ns");
}

/** Adds the q-quantile of @p s, with its sample count. */
void
addQuantile(e2e::MetricSet &ms, const std::string &name, const Samples &s,
            double q, const std::string &unit)
{
    ms.add(name, s.quantile(q), unit, s.size());
}

/**
 * Adds the end-to-end latency metrics of one phase, ms: p50, p90 and
 * p99 of the workload's unit of work, each with the sample count.
 */
void
addLatency(e2e::MetricSet &ms, const Samples &s)
{
    ms.add("p50_ms", s.quantile(0.5), "ms", s.size());
    ms.add("p90_ms", s.quantile(0.9), "ms", s.size());
    ms.add("p99_ms", s.quantile(0.99), "ms", s.size());
}

// ---------------------------------------------------------------------
// Per-layer metrics common to every traced workload
// ---------------------------------------------------------------------

/** Share metric -> the span names whose self time it sums. */
const std::vector<std::pair<const char *, std::vector<std::string>>>
    kShares = {
        {"gen.late_pct", {"gen.late"}},
        {"serve.queue_pct", {"serve.queue"}},
        {"serve.work_pct", {"serve.execute", "serve.batch"}},
        {"tenant.submit_pct", {"tenant.submit"}},
        {"tenant.pending_pct", {"tenant.pending"}},
        {"tenant.reap_pct", {"tenant.reap"}},
        {"runtime.submit_pct", {"runtime.submit"}},
        {"runtime.backpressure_pct", {"runtime.backpressure"}},
        {"runtime.wait_pct", {"runtime.wait"}},
        {"runtime.io_pct", {"runtime.write", "runtime.read"}},
        {"apps.host_pct", {"apps.knn", "apps.brightness", "apps.add32"}},
        {"trace.rerun_pct", {"trace.rerun"}},
};

/**
 * Adds the layer split of the traced phase: each layer's share of the
 * end-to-end spans named @p root (self times, summing to 100 with
 * trace.unattributed_pct), the per-call runtime times from @p calls
 * (the submit split into its stages), @p waitUs (submit return to
 * completion as the caller saw it), and the executor's ratios.
 */
void
addLayerMetrics(Run &run, const char *root,
                const std::vector<e2e::ExecCall> &calls, Samples &waitUs,
                const StreamExecutor &ex, uint64_t cacheHits0,
                uint64_t optimized0)
{
    e2e::MetricSet &ms = run.ms;
    const e2e::Breakdown b = run.spans.breakdown(root);
    double named = 0.0;
    const double rootNs = b.rootNs > 0 ? b.rootNs : 1.0;
    for (const auto &[metric, names] : kShares) {
        double ns = 0.0;
        for (const std::string &n : names) {
            auto it = b.selfNs.find(n);
            if (it != b.selfNs.end())
                ns += it->second;
        }
        named += ns;
        ms.add(metric, 100.0 * ns / rootNs, "%", b.roots);
    }
    const auto rootIt = b.selfNs.find(root);
    const double unattributed =
        rootIt != b.selfNs.end() ? rootIt->second : 0.0;
    double total = 0.0;
    for (const auto &[name, ns] : b.selfNs)
        total += ns;
    if (total - named - unattributed > 1e-6 * total + 1.0)
        e2e::fail("a span name is missing from the layer share table");
    ms.add("trace.unattributed_pct", 100.0 * unattributed / rootNs, "%",
           b.roots);

    Samples submitUs, validateUs, passesUs, lintUs, otherUs, writeUs,
        readUs;
    double instructions = 0.0;
    for (const e2e::ExecCall &c : calls) {
        const double us = static_cast<double>(c.t1 - c.t0) / 1e3;
        if (c.kind == e2e::ExecCall::Write) {
            writeUs.add(us);
        } else if (c.kind == e2e::ExecCall::Read) {
            readUs.add(us);
        } else {
            submitUs.add(us);
            validateUs.add(c.validateNs / 1e3);
            passesUs.add(c.passesNs / 1e3);
            lintUs.add(c.lintNs / 1e3);
            otherUs.add(us - (c.validateNs + c.passesNs + c.lintNs +
                              c.backpressureNs) /
                                 1e3);
            instructions += static_cast<double>(c.instructions);
        }
    }
    addQuantile(ms, "runtime.submit_us", submitUs, 0.5, "us");
    addQuantile(ms, "runtime.wait_us", waitUs, 0.5, "us");
    addQuantile(ms, "isa.validate_us", validateUs, 0.5, "us");
    addQuantile(ms, "stream.passes_us", passesUs, 0.5, "us");
    addQuantile(ms, "analysis.lint_us", lintUs, 0.5, "us");
    addQuantile(ms, "runtime.submit_other_us", otherUs, 0.5, "us");
    addQuantile(ms, "runtime.write_us", writeUs, 0.5, "us");
    addQuantile(ms, "runtime.read_us", readUs, 0.5, "us");
    const double ins = instructions > 0 ? instructions : 1.0;
    ms.add("runtime.cache_hit_pct",
           100.0 * static_cast<double>(ex.cacheHits() - cacheHits0) / ins,
           "%");
    ms.add("runtime.optimized_pct",
           100.0 *
               static_cast<double>(ex.optimizedInstructionCount() -
                                   optimized0) /
               ins,
           "%");
    ms.add("runtime.queue_depth_max",
           static_cast<double>(ex.queueHighWatermark()), "count");
}

/** Records a traced call as spans under @p parent: the call, the
 *  stage re-run before a submit, and a submit's backpressure wait (the
 *  Block policy waits for queue space as the submit's last step). */
void
addCallSpans(e2e::SpanSet &spans, const e2e::ExecCall &c, int32_t parent,
             uint64_t id, uint32_t tid)
{
    const char *name = c.kind == e2e::ExecCall::Write  ? "runtime.write"
                       : c.kind == e2e::ExecCall::Read ? "runtime.read"
                                                       : "runtime.submit";
    if (c.kind == e2e::ExecCall::Submit)
        spans.add("trace.rerun", c.rerun0, c.t0, parent, id, tid);
    const int32_t call = spans.add(name, c.t0, c.t1, parent, id, tid);
    if (c.backpressureNs > 0.0)
        spans.add("runtime.backpressure",
                  c.t1 - static_cast<int64_t>(c.backpressureNs), c.t1, call,
                  id, tid);
}

// ---------------------------------------------------------------------
// serve-mix
// ---------------------------------------------------------------------

constexpr double kServeRate = 10000.0; // nominal rps of the fixed phase
constexpr uint32_t kPoolItems = 64;    // distinct requests per class
/** Admission budget: ~50 ms of arrivals at the nominal rate, longer
 *  than the host stalls (vCPU steal of 10-20 ms) seen on a shared
 *  4-core VM, so a stall delays requests instead of shedding them. */
constexpr size_t kServeMaxPending = 512;
/** Requests kept outstanding in the saturation phase: eight full
 *  batches, well inside the admission budget. */
constexpr size_t kSaturationWindow = 64;
const std::vector<double> kServeMix = {60.0, 25.0, 15.0}; // knn/bri/tpch

/** Two devices, one coalescer (maxBatch 8, linger 200 us, Shed), the
 *  three canned classes, warmed by one request each. */
struct ServeRig
{
    DeviceGroup group;
    std::unique_ptr<StreamExecutor> ex;
    RequestCoalescer co;
    std::vector<e2e::RequestPool> pools;

    ServeRig(uint64_t seed, bool timed, Clock::time_point epoch)
        : group(wideCfg(), 2),
          ex(makeExecutor(group, {}, timed, epoch)),
          co(*ex, CoalescerOptions{8, 200.0, kServeMaxPending,
                                    AdmissionPolicy::Shed})
    {
        Rng rng(subSeed(seed, kServeData));
        const KnnServeSpec knn{256, 4, 16};
        std::vector<std::vector<uint64_t>> refs(
            knn.dims, std::vector<uint64_t>(knn.refs));
        for (auto &col : refs)
            for (auto &v : col)
                v = rng.below(1000);
        const BrightnessTileSpec bri{256, 16, 3000 + rng.below(1000)};
        const TpchFilterSpec tpch{256, 32};

        pools.resize(3);
        pools[0].cls = co.registerClass(knnQueryClass(knn, refs));
        pools[1].cls = co.registerClass(brightnessTileClass(bri));
        pools[2].cls = co.registerClass(tpchFilterClass(tpch));
        for (uint32_t i = 0; i < kPoolItems; ++i) {
            std::vector<uint64_t> coords(knn.dims);
            for (auto &c : coords)
                c = rng.below(1000);
            pools[0].inputs.push_back(knnQueryRequest(knn, coords));
            pools[0].expected.push_back(knnQueryHost(knn, refs, coords));

            std::vector<uint64_t> px(bri.pixels);
            for (auto &p : px)
                p = rng.below(4096);
            const uint64_t delta = rng.below(1000);
            pools[1].inputs.push_back(
                brightnessTileRequest(bri, px, delta));
            pools[1].expected.push_back(
                brightnessTileHost(bri, px, delta));

            std::vector<uint64_t> col(tpch.rows);
            for (auto &v : col)
                v = rng.below(1000000);
            const uint64_t thr = rng.below(1000000);
            pools[2].inputs.push_back(tpchFilterRequest(tpch, col, thr));
            pools[2].expected.push_back(tpchFilterHost(tpch, col, thr));
        }
        // Warm-up: defines every class's batch objects and fills the
        // stream cache with the shared operands.
        for (const auto &p : pools)
            if (co.submit(p.cls, p.inputs[0]).wait().output !=
                p.expected[0])
                e2e::fail("serve-mix warm-up output mismatch");
    }

    Modeled
    modeled() const
    {
        return {group.computeStats(), group.transferStats()};
    }
};

Modeled
diffModeled(const Modeled &after, const Modeled &before)
{
    return {diff(after.compute, before.compute),
            diff(after.transfer, before.transfer)};
}

/** Offers @p rate rps for @p seconds to the rig's coalescer. */
e2e::ServePhase
servePhase(Run &run, ServeRig &rig, uint64_t k, double rate,
           double seconds, bool keepLog)
{
    const auto sched =
        e2e::poissonSchedule(subSeed(run.opt.seed, k), rate, seconds,
                             kServeMix, kPoolItems);
    e2e::ServePhase ph =
        e2e::runServePhase(rig.co, rig.pools, sched, run.epoch, keepLog);
    run.outcome.attempted += ph.offered;
    run.outcome.failed += ph.shed + ph.errors + ph.mismatched;
    run.outcome.mismatched += ph.mismatched;
    return ph;
}

/**
 * Saturation throughput: the generator thread keeps @p window requests
 * of the mix outstanding (a closed loop, so the coalescer always has
 * full batches to close) for @p seconds, checking every output.
 * @return Requests completed per second.
 */
double
saturatedRps(Run &run, ServeRig &rig, double seconds, size_t window)
{
    Rng rng(subSeed(run.opt.seed, kSaturation));
    const auto pick = [&] {
        return std::make_pair(e2e::pickKind(rng, kServeMix),
                              static_cast<uint32_t>(rng.below(kPoolItems)));
    };
    struct Inflight
    {
        ServeFuture f;
        uint32_t kind, item;
    };
    std::deque<Inflight> inflight;
    size_t done = 0;
    const auto start = Clock::now();
    const auto finish = [&] {
        Inflight it = std::move(inflight.front());
        inflight.pop_front();
        ++done;
        try {
            if (it.f.wait().output != rig.pools[it.kind].expected[it.item]) {
                ++run.outcome.mismatched;
                ++run.outcome.failed;
            }
        } catch (...) {
            ++run.outcome.failed;
        }
    };
    while (secondsSince(start) < seconds) {
        while (inflight.size() < window) {
            const auto [kind, item] = pick();
            inflight.push_back({rig.co.submit(rig.pools[kind].cls,
                                              rig.pools[kind].inputs[item]),
                                kind, item});
        }
        finish();
    }
    while (!inflight.empty())
        finish();
    run.outcome.attempted += done;
    return static_cast<double>(done) / secondsSince(start);
}

void
addServeExtras(e2e::MetricSet &ms, e2e::ServePhase &ph)
{
    static const char *const kinds[] = {"knn", "brightness", "tpch"};
    ms.add("serve.shed_pct",
           ph.offered ? 100.0 * static_cast<double>(ph.shed) /
                            static_cast<double>(ph.offered)
                      : 0.0,
           "%", ph.offered);
    addQuantile(ms, "serve.gen_late_p99_us", ph.lateUs, 0.99, "us");
    addQuantile(ms, "serve.req_p999_ms", ph.latencyMs, 0.999, "ms");
    for (size_t i = 0; i < 3; ++i)
        addQuantile(ms, std::string("serve.") + kinds[i] + "_p50_ms",
                    ph.kindLatencyMs[i], 0.5, "ms");
    addQuantile(ms, "serve.queue_us", ph.queueUs, 0.5, "us");
    addQuantile(ms, "serve.execute_us", ph.executeUs, 0.5, "us");
    const double served = static_cast<double>(ph.latencyMs.size());
    ms.add("serve.batch_fill_pct",
           ph.batches > 0 ? 100.0 * served / (ph.batches * 8.0) : 0.0, "%",
           ph.latencyMs.size());
}

/**
 * Spans of the traced serving phase. Batches are rebuilt from the
 * dispatcher's executor calls (each readObject ends one); every
 * request's execute span links to its batch, whose children are the
 * batch's writes, stage re-run, submit, wait, and readback.
 */
void
serveSpans(Run &run, const std::vector<e2e::ServedRequest> &log,
           const std::vector<e2e::ExecCall> &calls, Samples &waitUs)
{
    struct Batch
    {
        size_t first = 0, last = 0; // call index range, last = read
        int32_t span = -1;
    };
    std::vector<Batch> batches;
    size_t first = 0;
    for (size_t i = 0; i < calls.size(); ++i)
        if (calls[i].kind == e2e::ExecCall::Read) {
            batches.push_back({first, i, -1});
            first = i + 1;
        }

    e2e::SpanSet &sp = run.spans;
    for (size_t r = 0; r < log.size(); ++r) {
        const e2e::ServedRequest &q = log[r];
        const int64_t e0 = q.sentNs + static_cast<int64_t>(q.queueNs);
        const int64_t e1 = q.sentNs + static_cast<int64_t>(q.totalNs);
        const int32_t root = sp.add("request", q.dueNs, e1, -1, r);
        sp.add("gen.late", q.dueNs, q.sentNs, root, r);
        sp.add("serve.queue", q.sentNs, e0, root, r);
        const int32_t ex = sp.add("serve.execute", e0, e1, root, r, 1);

        // The batch whose readback ended last at or before e1.
        size_t lo = 0, hi = batches.size();
        while (lo < hi) {
            const size_t mid = (lo + hi) / 2;
            if (calls[batches[mid].last].t1 <= e1 + 2000)
                lo = mid + 1;
            else
                hi = mid;
        }
        if (lo == 0)
            continue;
        Batch &b = batches[lo - 1];
        if (calls[b.first].t0 + 2000 < e0)
            continue; // not this request's batch
        if (b.span < 0) {
            b.span = sp.add("serve.batch", e0, e1, -1, r, 1);
            int64_t submitEnd = -1;
            for (size_t c = b.first; c <= b.last; ++c) {
                const e2e::ExecCall &call = calls[c];
                if (call.kind == e2e::ExecCall::Read && submitEnd >= 0) {
                    sp.add("runtime.wait", submitEnd, call.t0, b.span, r,
                           1);
                    waitUs.add(static_cast<double>(call.t0 - submitEnd) /
                               1e3);
                }
                if (call.kind == e2e::ExecCall::Submit)
                    submitEnd = call.t1;
                addCallSpans(sp, call, b.span, r, 1);
            }
        }
        sp.link(ex, b.span);
    }
}

void
runServe(Run &run)
{
    const double S = run.opt.seconds;
    if (!run.traced) {
        Samples setupS;
        auto rig = timedSetup<ServeRig>(run.opt.smoke ? 1 : 3, setupS, [&] {
            return std::make_unique<ServeRig>(run.opt.seed, false,
                                              run.epoch);
        });
        const Modeled m0 = rig->modeled();
        e2e::ServePhase ph =
            servePhase(run, *rig, kFixedPhase, kServeRate, S / 2, false);
        const Modeled m = diffModeled(rig->modeled(), m0);
        const double rps = saturatedRps(run, *rig, S / 2, kSaturationWindow);

        e2e::MetricSet &ms = run.ms;
        addLatency(ms, ph.latencyMs);
        ms.add("throughput_per_s", rps, "1/s");
        addQuantile(ms, "setup_s", setupS, 0.5, "s");
        ms.add("peak_rss_mb", e2e::peakRssMb(), "MiB");
        addServeExtras(ms, ph);
        addModeled(ms, m, static_cast<double>(ph.latencyMs.size()),
                   ph.wallNs);
        return;
    }

    double untracedP50 = 0.0;
    {
        ServeRig rig(run.opt.seed, false, run.epoch);
        const Modeled m0 = rig.modeled();
        e2e::ServePhase ph =
            servePhase(run, rig, kFixedPhase, kServeRate, S / 2, false);
        untracedP50 = ph.latencyMs.quantile(0.5);
        addModeled(run.ms, diffModeled(rig.modeled(), m0),
                   static_cast<double>(ph.latencyMs.size()), ph.wallNs);
    }
    ServeRig rig(run.opt.seed, true, run.epoch);
    e2e::TimedExecutor &tx = timedOf(*rig.ex);
    tx.takeCalls(); // set-up traffic is not part of the phase
    const uint64_t hits0 = rig.ex->cacheHits();
    const uint64_t opt0 = rig.ex->optimizedInstructionCount();
    e2e::ServePhase ph =
        servePhase(run, rig, kTracedPhase, kServeRate, S / 2, true);
    const std::vector<e2e::ExecCall> calls = tx.takeCalls();
    Samples waitUs;
    serveSpans(run, ph.log, calls, waitUs);
    addLayerMetrics(run, "request", calls, waitUs, *rig.ex, hits0, opt0);
    addServeExtras(run.ms, ph);
    run.ms.add("trace.overhead_pct",
               100.0 * (ph.latencyMs.quantile(0.5) / untracedP50 - 1.0),
               "%");
}

// ---------------------------------------------------------------------
// tenant-flood
// ---------------------------------------------------------------------

constexpr size_t kTenantLanes = 8192;
constexpr size_t kGold = 0, kSilver = 1, kFlood = 2;
/** Offered streams/s: gold, silver, and a flooder well above the
 *  ~20 k streams/s a 4-core host completes, so the executor stays
 *  saturated and throughput_per_s measures capacity. */
const std::vector<double> kTenantRates = {1000.0, 1000.0, 30000.0};

/**
 * Two devices under a TenantExecutor (scheduler thread): gold
 * (weight 3), silver (weight 1) and flood (weight 1, at most 8
 * streams in flight, Shed). Each tenant owns resident 8192-lane
 * objects; its stream is init/add/gt/ifelse with no host I/O.
 */
struct TenantRig
{
    struct Tenant
    {
        uint32_t tid = 0;
        uint16_t x = 0, k = 0, cap = 0, s = 0, m = 0, out = 0;
        std::vector<uint64_t> xs;
        uint64_t capVal = 0;
    };

    DeviceGroup group;
    std::unique_ptr<StreamExecutor> ex;
    TenantExecutor te;
    Tenant t[3];

    TenantRig(uint64_t seed, bool timed, Clock::time_point epoch)
        : group(wideCfg(), 2),
          ex(makeExecutor(group, {}, timed, epoch)),
          te(*ex, TenantExecutorOptions{false, 64, timed})
    {
        Rng rng(subSeed(seed, kTenantData));
        const TenantConfig cfgs[3] = {
            {"gold", 3},
            {"silver", 1},
            {"flood", 1, 0, 0, 8, TenantQuotaPolicy::Shed},
        };
        for (size_t i = 0; i < 3; ++i) {
            Tenant &tn = t[i];
            tn.tid = te.registerTenant(cfgs[i]);
            tn.x = te.defineObject(tn.tid, kTenantLanes, 16);
            tn.k = te.defineObject(tn.tid, kTenantLanes, 16);
            tn.cap = te.defineObject(tn.tid, kTenantLanes, 16);
            tn.s = te.defineObject(tn.tid, kTenantLanes, 16);
            tn.m = te.defineObject(tn.tid, kTenantLanes, 1);
            tn.out = te.defineObject(tn.tid, kTenantLanes, 16);
            tn.xs.resize(kTenantLanes);
            for (auto &v : tn.xs)
                v = rng.below(30000);
            tn.capVal = 40000 + rng.below(20000);
            te.writeObject(tn.tid, tn.x, tn.xs);
            te.submit(tn.tid, {BbopInstr::trsp(tn.x, 16),
                               BbopInstr::init(tn.cap, 16, tn.capVal)})
                .wait();
            te.submit(tn.tid, stream(tn, 1)).wait();
            if (!outputMatches(tn, 1))
                e2e::fail("tenant-flood warm-up output mismatch");
        }
    }

    static std::vector<BbopInstr>
    stream(const Tenant &tn, uint64_t c)
    {
        return {BbopInstr::init(tn.k, 16, c),
                BbopInstr::binary(OpKind::Add, 16, tn.s, tn.x, tn.k),
                BbopInstr::binary(OpKind::Gt, 16, tn.m, tn.s, tn.cap),
                BbopInstr::predicated(OpKind::IfElse, 16, tn.out, tn.cap,
                                      tn.s, tn.m)};
    }

    /** @return Whether @p tn's output is the host answer for @p c.
     *  The streams leave it in the vertical image; bring it back. */
    bool
    outputMatches(const Tenant &tn, uint64_t c)
    {
        te.submit(tn.tid, {BbopInstr::trspInv(tn.out, 16)}).wait();
        return te.readObject(tn.tid, tn.out) ==
               brightnessTileHost({kTenantLanes, 16, tn.capVal}, tn.xs,
                                  c);
    }
};

/** Timing of one admitted tenant stream, ns from the run epoch. */
struct TenantRecord
{
    int64_t dueNs = 0, sentNs = 0, retNs = 0;
    double e2eNs = 0.0, wallNs = 0.0;
};

struct TenantPhase
{
    size_t offered[3] = {}, admitted[3] = {}, shed[3] = {};
    size_t errors = 0, executed = 0;
    Samples victimMs, silverMs, lateUs, submitUs, pendingUs;
    /** Init immediate of each tenant's last admitted stream. */
    uint64_t lastC[3] = {1, 1, 1}; // the warm-up streams used 1
    std::vector<TenantRecord> log[3];
    Modeled modeled;
    double wallNs = 0.0;
};

/**
 * Offers the three tenants' Poisson arrivals for @p seconds from the
 * calling thread; one collector thread waits on the handles. Each
 * stream's init immediate differs from its tenant's previous one, so
 * the stream cache never elides it and every stream does equal work.
 */
TenantPhase
tenantPhase(Run &run, TenantRig &rig, uint64_t k, double seconds,
            bool keepLog)
{
    const auto sched = e2e::poissonSchedule(
        subSeed(run.opt.seed, k),
        std::accumulate(kTenantRates.begin(), kTenantRates.end(), 0.0),
        seconds, kTenantRates, 1);
    Rng rng(subSeed(run.opt.seed, kImmediates + k));
    std::vector<uint64_t> imm(sched.size());
    uint64_t prev[3] = {1, 1, 1}; // the warm-up streams used 1
    for (size_t i = 0; i < sched.size(); ++i) {
        uint64_t c = 0;
        do {
            c = 1 + rng.below(0xfffe);
        } while (c == prev[sched[i].kind]);
        imm[i] = prev[sched[i].kind] = c;
    }

    struct Inflight
    {
        TenantStreamHandle h;
        uint32_t kind = 0;
        TenantRecord rec;
    };
    TenantPhase ph;
    e2e::Collector<Inflight> collector([&](Inflight &it) {
        e2e::pollUntilDone(it.h);
        TenantStreamResult r;
        try {
            r = it.h.wait();
        } catch (...) {
            ++ph.errors;
            return;
        }
        if (r.instructions != 4 || r.segments.size() != 1) {
            ++ph.errors;
            return;
        }
        ++ph.executed;
        ph.modeled.compute = ph.modeled.compute + r.compute;
        ph.modeled.transfer = ph.modeled.transfer + r.transfer;
        it.rec.e2eNs = r.e2eNs;
        it.rec.wallNs = r.segments.back().wallNs;
        const double lat =
            static_cast<double>(it.rec.sentNs - it.rec.dueNs) + r.e2eNs;
        if (it.kind == kGold) {
            ph.victimMs.add(lat / 1e6);
            ph.pendingUs.add((r.e2eNs - it.rec.wallNs) / 1e3);
        } else if (it.kind == kSilver) {
            ph.silverMs.add(lat / 1e6);
        }
        if (keepLog)
            ph.log[it.kind].push_back(it.rec);
    });

    const auto start = Clock::now() + std::chrono::milliseconds(2);
    e2e::runOpenLoop(
        start, sched,
        [&](const e2e::Arrival &a, Clock::time_point due,
            Clock::time_point sent) {
            const size_t i = static_cast<size_t>(&a - sched.data());
            const TenantRig::Tenant &tn = rig.t[a.kind];
            ph.lateUs.add(e2e::nsSince(due, sent) / 1e3);
            ++ph.offered[a.kind];
            try {
                TenantStreamHandle h =
                    rig.te.submit(tn.tid, TenantRig::stream(tn, imm[i]));
                const auto ret = Clock::now();
                ph.submitUs.add(e2e::nsSince(sent, ret) / 1e3);
                ++ph.admitted[a.kind];
                ph.lastC[a.kind] = imm[i];
                collector.push(Inflight{std::move(h), a.kind,
                                        {e2e::nsSince(run.epoch, due),
                                         e2e::nsSince(run.epoch, sent),
                                         e2e::nsSince(run.epoch, ret)}});
            } catch (const TenantQuotaError &) {
                ++ph.shed[a.kind];
            }
        });
    rig.te.drain();
    ph.wallNs = static_cast<double>(e2e::nsSince(start, Clock::now()));
    collector.finish();

    // Flood sheds are the quota doing its job; the victims' are not.
    e2e::Outcome &o = run.outcome;
    o.attempted += ph.offered[kGold] + ph.offered[kSilver] +
                   ph.admitted[kFlood];
    o.failed += ph.shed[kGold] + ph.shed[kSilver] + ph.errors;
    return ph;
}

/** Checks each tenant's output against the host answer for its last
 *  admitted stream of @p ph. */
void
checkTenantOutputs(Run &run, TenantRig &rig, const TenantPhase &ph)
{
    for (size_t i = 0; i < 3; ++i)
        if (!rig.outputMatches(rig.t[i], ph.lastC[i])) {
            ++run.outcome.mismatched;
            ++run.outcome.failed;
        }
}

void
addTenantExtras(e2e::MetricSet &ms, TenantPhase &ph)
{
    addQuantile(ms, "tenant.silver_p50_ms", ph.silverMs, 0.5, "ms");
    addQuantile(ms, "tenant.silver_p99_ms", ph.silverMs, 0.99, "ms");
    addQuantile(ms, "tenant.gen_late_p99_us", ph.lateUs, 0.99, "us");
    addQuantile(ms, "tenant.submit_us", ph.submitUs, 0.5, "us");
    addQuantile(ms, "tenant.pending_us", ph.pendingUs, 0.5, "us");
    ms.add("tenant.flood_shed_pct",
           ph.offered[kFlood]
               ? 100.0 * static_cast<double>(ph.shed[kFlood]) /
                     static_cast<double>(ph.offered[kFlood])
               : 0.0,
           "%", ph.offered[kFlood]);
}

/**
 * Spans of the traced tenant phase. The scheduler thread submits in
 * DRR dispatch order, which the executor records; since each tenant's
 * streams dispatch in its own submission order, the j-th submit call
 * is the next admitted stream of the tenant dispatchOrder()[j] names.
 * Each gold stream becomes due -> sent -> submit returned -> re-run ->
 * runtime submit -> device completion (submit entry + wallNs) ->
 * result handed back by the reaper.
 */
void
tenantSpans(Run &run, TenantPhase &ph, const std::vector<uint32_t> &order,
            const std::vector<e2e::ExecCall> &calls, Samples &waitUs)
{
    std::vector<const e2e::ExecCall *> submits;
    for (const e2e::ExecCall &c : calls)
        if (c.kind == e2e::ExecCall::Submit)
            submits.push_back(&c);
    if (submits.size() != order.size())
        e2e::fail("tenant-flood: dispatch order and submits disagree");
    size_t next[3] = {};
    e2e::SpanSet &sp = run.spans;
    for (size_t j = 0; j < order.size(); ++j) {
        const uint32_t kind = order[j];
        if (kind >= 3 || next[kind] >= ph.log[kind].size())
            e2e::fail("tenant-flood: unpaired dispatch");
        const TenantRecord &r = ph.log[kind][next[kind]++];
        const e2e::ExecCall &c = *submits[j];
        const int64_t done = c.t0 + static_cast<int64_t>(r.wallNs);
        waitUs.add(static_cast<double>(done - c.t1) / 1e3);
        if (kind != kGold)
            continue;
        int64_t b[8] = {r.dueNs, r.sentNs, std::min(r.retNs, c.rerun0),
                        c.rerun0, c.t0, c.t1, done,
                        r.sentNs + static_cast<int64_t>(r.e2eNs)};
        for (size_t i = 1; i < 8; ++i)
            b[i] = std::max(b[i], b[i - 1]);
        const char *const names[7] = {
            "gen.late",       "tenant.submit",  "tenant.pending",
            "trace.rerun",    "runtime.submit", "runtime.wait",
            "tenant.reap"};
        const int32_t root = sp.add("stream", b[0], b[7], -1, j);
        for (size_t i = 0; i < 7; ++i)
            sp.add(names[i], b[i], b[i + 1], root, j, i < 3 ? 0 : 1);
    }
}

void
runTenant(Run &run)
{
    const double S = run.opt.seconds;
    if (!run.traced) {
        Samples setupS;
        auto rig = timedSetup<TenantRig>(run.opt.smoke ? 1 : 3, setupS, [&] {
            return std::make_unique<TenantRig>(run.opt.seed, false,
                                               run.epoch);
        });
        TenantPhase ph = tenantPhase(run, *rig, kFixedPhase, S, false);
        checkTenantOutputs(run, *rig, ph);
        e2e::MetricSet &ms = run.ms;
        addLatency(ms, ph.victimMs);
        ms.add("throughput_per_s",
               static_cast<double>(ph.executed) / (ph.wallNs / 1e9), "1/s",
               ph.executed);
        addQuantile(ms, "setup_s", setupS, 0.5, "s");
        ms.add("peak_rss_mb", e2e::peakRssMb(), "MiB");
        addTenantExtras(ms, ph);
        addModeled(ms, ph.modeled, static_cast<double>(ph.executed),
                   ph.wallNs);
        return;
    }

    double untracedP50 = 0.0;
    {
        TenantRig rig(run.opt.seed, false, run.epoch);
        TenantPhase ph = tenantPhase(run, rig, kFixedPhase, S / 2, false);
        checkTenantOutputs(run, rig, ph);
        untracedP50 = ph.victimMs.quantile(0.5);
        addModeled(run.ms, ph.modeled, static_cast<double>(ph.executed),
                   ph.wallNs);
    }
    TenantRig rig(run.opt.seed, true, run.epoch);
    e2e::TimedExecutor &tx = timedOf(*rig.ex);
    tx.takeCalls();
    const size_t offset = rig.te.dispatchOrder().size();
    const uint64_t hits0 = rig.ex->cacheHits();
    const uint64_t opt0 = rig.ex->optimizedInstructionCount();
    TenantPhase ph = tenantPhase(run, rig, kTracedPhase, S / 2, true);
    const std::vector<uint32_t> all = rig.te.dispatchOrder();
    const std::vector<e2e::ExecCall> calls = tx.takeCalls();
    checkTenantOutputs(run, rig, ph);
    std::vector<uint32_t> order;
    for (size_t j = offset; j < all.size(); ++j)
        for (uint32_t i = 0; i < 3; ++i)
            if (rig.t[i].tid == all[j])
                order.push_back(i);
    Samples waitUs;
    tenantSpans(run, ph, order, calls, waitUs);
    addLayerMetrics(run, "stream", calls, waitUs, *rig.ex, hits0, opt0);
    addTenantExtras(run.ms, ph);
    run.ms.add("trace.overhead_pct",
               100.0 * (ph.victimMs.quantile(0.5) / untracedP50 - 1.0),
               "%");
}

// ---------------------------------------------------------------------
// apps-d1 / apps-d4
// ---------------------------------------------------------------------

constexpr size_t kKnnLanes = 32 * 1024;
constexpr size_t kKnnDims = 8;
constexpr size_t kKnnQueries = 4;
constexpr size_t kWideLanes = 64 * 1024;
constexpr size_t kImages = 4;
constexpr size_t kAddOps = 4;

/** Host timestamps of one job, ns from the run epoch. */
struct JobRecord
{
    int64_t t0 = 0, t1 = 0;
    int64_t part[3][2] = {};
    /** Blocking handle waits: (part, start, end). */
    std::vector<std::array<int64_t, 3>> waits;
    /** Each stream's backpressure wait, in submission order. */
    std::vector<double> backpressureNs;
    Modeled modeled;
    size_t mismatched = 0;

    double ns() const { return static_cast<double>(t1 - t0); }
    double partMs(size_t p) const
    {
        return static_cast<double>(part[p][1] - part[p][0]) / 1e6;
    }
};

const char *const kPartNames[3] = {"apps.knn", "apps.brightness",
                                   "apps.add32"};

/**
 * One closed-loop client on 1 or 4 devices. A job has three parts,
 * with the pipelines of src/apps and bench_runtime: (a) kNN over 8
 * resident 32 Ki x 16-bit reference columns, 4 queries as per-(query,
 * dim) streams behind bounded queues (2, Block), each query's
 * distances read back; (b) brightness on a freshly written 64 Ki-pixel
 * image, read back; (c) a 4-op add32 chain over 64 Ki elements with no
 * host I/O.
 */
struct AppsRig
{
    DeviceGroup group;
    std::unique_ptr<StreamExecutor> ex;
    Clock::time_point epoch;
    Rng rng;

    KnnServeSpec knn{kKnnLanes, kKnnDims, 16};
    std::vector<std::vector<uint64_t>> refs;
    std::vector<uint16_t> oref;
    uint16_t oq = 0, odiff = 0, oabs = 0, oa = 0, ob = 0;
    uint64_t lastCoord = 0;

    BrightnessTileSpec bri{kWideLanes, 16, 0};
    uint64_t delta = 0;
    std::vector<std::vector<uint64_t>> images, brightExpected;
    uint16_t img = 0, odelta = 0, ocap = 0, osum = 0, oovf = 0, oout = 0;

    uint16_t a = 0, b = 0, y = 0;
    std::vector<uint64_t> a0, bv;
    uint64_t chains = 0;
    size_t jobs = 0;
    /** Block-mode backpressure per stream (the kNN queues are bounded). */
    Samples backpressureUs;

    AppsRig(uint64_t seed, size_t devices, bool timed,
            Clock::time_point ep)
        : group(appsCfg(), devices),
          ex(makeExecutor(group,
                          StreamExecutorOptions{2,
                                                BackpressurePolicy::Block},
                          timed, ep)),
          epoch(ep), rng(subSeed(seed, kAppsData))
    {
        // Each part's objects are defined together so its operands
        // co-locate (see Processor's sequential allocator).
        refs.assign(kKnnDims, std::vector<uint64_t>(kKnnLanes));
        for (auto &col : refs) {
            for (auto &v : col)
                v = rng.below(1000);
            oref.push_back(ex->defineObject(kKnnLanes, 16));
        }
        for (uint16_t *o : {&oq, &odiff, &oabs, &oa, &ob})
            *o = ex->defineObject(kKnnLanes, 16);
        for (size_t d = 0; d < kKnnDims; ++d)
            ex->writeObject(oref[d], refs[d]);

        bri.cap = 3000 + rng.below(1000);
        delta = 1 + rng.below(1000);
        for (size_t i = 0; i < kImages; ++i) {
            std::vector<uint64_t> px(kWideLanes);
            for (auto &p : px)
                p = rng.below(4096);
            brightExpected.push_back(brightnessTileHost(bri, px, delta));
            images.push_back(std::move(px));
        }
        img = ex->defineObject(kWideLanes, 16);
        odelta = ex->defineObject(kWideLanes, 16);
        ocap = ex->defineObject(kWideLanes, 16);
        osum = ex->defineObject(kWideLanes, 16);
        oovf = ex->defineObject(kWideLanes, 1);
        oout = ex->defineObject(kWideLanes, 16);

        a = ex->defineObject(kWideLanes, 32);
        b = ex->defineObject(kWideLanes, 32);
        y = ex->defineObject(kWideLanes, 32);
        a0.resize(kWideLanes);
        bv.resize(kWideLanes);
        for (size_t i = 0; i < kWideLanes; ++i) {
            a0[i] = rng.next() & 0xffffffffULL;
            bv[i] = rng.next() & 0xffffffffULL;
        }
        ex->writeObject(a, a0);
        ex->writeObject(b, bv);

        StreamBuilder sb(*ex);
        for (uint16_t o : {oq, odiff, oabs, oa, ob})
            sb.trsp(o);
        sb.init(odelta, delta).init(ocap, bri.cap);
        for (uint16_t o : {osum, oovf, oout, a, b, y})
            sb.trsp(o);
        sb.submit().wait();

        const JobRecord warm = job(false);
        if (warm.mismatched != 0)
            e2e::fail("apps warm-up output mismatch");
    }

    int64_t now() const { return e2e::nsSince(epoch, Clock::now()); }

    StreamResult
    waitOn(StreamHandle &h, JobRecord &rec, size_t part)
    {
        const int64_t t0 = now();
        StreamResult r = h.wait();
        rec.waits.push_back({static_cast<int64_t>(part), t0, now()});
        rec.backpressureNs.push_back(r.backpressureWaitNs);
        backpressureUs.add(r.backpressureWaitNs / 1e3);
        rec.modeled.compute = rec.modeled.compute + r.compute;
        rec.modeled.transfer = rec.modeled.transfer + r.transfer;
        return r;
    }

    /** Runs one job; outputs are checked after its clock stops. */
    JobRecord
    job(bool keepWaits)
    {
        JobRecord rec;
        // Query coordinates: consecutive ones differ, so the stream
        // cache never elides the broadcast and every job does the
        // same modeled work.
        uint64_t coords[kKnnQueries][kKnnDims];
        for (auto &q : coords)
            for (auto &c : q) {
                do {
                    c = rng.below(1000);
                } while (c == lastCoord);
                lastCoord = c;
            }
        std::vector<uint64_t> dist[kKnnQueries];
        const size_t im = jobs++ % kImages;

        rec.t0 = rec.part[0][0] = now();
        StreamBuilder sb(*ex);
        for (size_t q = 0; q < kKnnQueries; ++q) {
            std::vector<StreamHandle> hs;
            hs.push_back(sb.init(oa, 0).submit());
            PingPong acc{oa, ob};
            for (size_t d = 0; d < kKnnDims; ++d) {
                sb.trsp(oref[d])
                    .init(oq, coords[q][d])
                    .binary(OpKind::Sub, odiff, oref[d], oq)
                    .unary(OpKind::Abs, oabs, odiff)
                    .accumulate(acc, oabs);
                hs.push_back(sb.submit());
            }
            hs.push_back(sb.trspInv(acc.result()).submit());
            for (auto &h : hs)
                waitOn(h, rec, 0);
            dist[q] = ex->readObject(acc.result());
        }
        rec.part[0][1] = rec.part[1][0] = now();

        ex->writeObject(img, images[im]);
        StreamHandle bh = sb.trsp(img)
                              .binary(OpKind::Add, osum, img, odelta)
                              .binary(OpKind::Gt, oovf, osum, ocap)
                              .predicated(OpKind::IfElse, oout, ocap,
                                          osum, oovf)
                              .trspInv(oout)
                              .submit();
        waitOn(bh, rec, 1);
        const std::vector<uint64_t> bright = ex->readObject(oout);
        rec.part[1][1] = rec.part[2][0] = now();

        uint16_t dst = y, src = a;
        for (size_t i = 0; i < kAddOps; ++i) {
            sb.binary(OpKind::Add, dst, src, b);
            std::swap(dst, src);
        }
        StreamHandle ah = sb.submit();
        waitOn(ah, rec, 2);
        ++chains;
        rec.part[2][1] = rec.t1 = now();
        if (!keepWaits) {
            rec.waits.clear();
            rec.backpressureNs.clear();
        }

        for (size_t q = 0; q < kKnnQueries; ++q)
            if (dist[q] !=
                knnQueryHost(knn, refs,
                             std::vector<uint64_t>(coords[q],
                                                   coords[q] + kKnnDims)))
                ++rec.mismatched;
        if (bright != brightExpected[im])
            ++rec.mismatched;
        return rec;
    }

    /** @return Whether the add32 chain state is the closed form: after
     *  n chains of four adds, a = a0 + 4n*b and y = a0 + (4n-1)*b.
     *  The chain never reads back, so transpose the results first. */
    bool
    chainMatches()
    {
        StreamBuilder(*ex).trspInv(a).trspInv(y).submit().wait();
        const std::vector<uint64_t> ga = ex->readObject(a);
        const std::vector<uint64_t> gy = ex->readObject(y);
        for (size_t i = 0; i < kWideLanes; ++i) {
            const uint64_t n = kAddOps * chains;
            if (ga[i] != ((a0[i] + n * bv[i]) & 0xffffffffULL) ||
                gy[i] != ((a0[i] + (n - 1) * bv[i]) & 0xffffffffULL))
                return false;
        }
        return true;
    }
};

/** Closed loop: back-to-back jobs for @p seconds. */
std::vector<JobRecord>
appsLoop(Run &run, AppsRig &rig, double seconds, bool keepWaits)
{
    std::vector<JobRecord> jobs;
    rig.backpressureUs = Samples{};
    const auto start = Clock::now();
    do {
        jobs.push_back(rig.job(keepWaits));
        run.outcome.mismatched += jobs.back().mismatched;
        run.outcome.failed += jobs.back().mismatched != 0;
    } while (secondsSince(start) < seconds);
    run.outcome.attempted += jobs.size();
    if (!rig.chainMatches()) {
        ++run.outcome.mismatched;
        ++run.outcome.failed;
    }
    return jobs;
}

/** @return Whether two jobs did the same modeled work: equal command
 *  counts, and latency/energy equal to 1e-9 (per-stream stats are
 *  differences of cumulative device counters, so their last bits
 *  depend on how much ran before). */
bool
sameModeledWork(const Modeled &x, const Modeled &y)
{
    const auto near = [](double p, double q) {
        return std::abs(p - q) <= 1e-9 * std::max(std::abs(p), std::abs(q));
    };
    const auto same = [&](const DramStats &p, const DramStats &q) {
        return p.aaps == q.aaps && p.aps == q.aps &&
               p.multiActivates == q.multiActivates &&
               near(p.latencyNs, q.latencyNs) && near(p.energyPj, q.energyPj);
    };
    return same(x.compute, y.compute) && same(x.transfer, y.transfer);
}

double
meanJobNs(const std::vector<JobRecord> &jobs)
{
    double s = 0.0;
    for (const JobRecord &j : jobs)
        s += j.ns();
    return s / static_cast<double>(jobs.size());
}

/** Adds the modeled metrics of the first measured job (every job is
 *  the same modeled work; dram.jobs_differing counts exceptions), the
 *  per-part host split, and the kNN queues' backpressure. */
void
addAppsMetrics(e2e::MetricSet &ms, const AppsRig &rig,
               const std::vector<JobRecord> &jobs)
{
    size_t differing = 0;
    for (const JobRecord &j : jobs)
        if (!sameModeledWork(j.modeled, jobs[0].modeled))
            ++differing;
    addModeled(ms, jobs[0].modeled, 1.0, meanJobNs(jobs));
    ms.add("dram.jobs_differing", static_cast<double>(differing), "count",
           jobs.size());
    for (size_t p = 0; p < 3; ++p) {
        Samples s;
        for (const JobRecord &j : jobs)
            s.add(j.partMs(p));
        addQuantile(ms, std::string(kPartNames[p]) + "_ms", s, 0.5, "ms");
    }
    addQuantile(ms, "runtime.backpressure_us", rig.backpressureUs, 0.5,
                "us");
}

/**
 * Spans of the traced apps phase: job, its three parts, the client's
 * handle waits, and every executor call (all made by the client
 * thread, in order). The k-th submit of a job is the k-th stream it
 * waited on, which gives each submit its backpressure wait.
 */
void
appsSpans(Run &run, const std::vector<JobRecord> &jobs,
          std::vector<e2e::ExecCall> &calls, Samples &waitUs)
{
    e2e::SpanSet &sp = run.spans;
    size_t c = 0;
    for (size_t j = 0; j < jobs.size(); ++j) {
        const JobRecord &r = jobs[j];
        const int32_t root = sp.add("job", r.t0, r.t1, -1, j);
        int32_t part[3];
        for (size_t p = 0; p < 3; ++p)
            part[p] = sp.add(kPartNames[p], r.part[p][0], r.part[p][1],
                             root, j);
        for (const auto &w : r.waits) {
            sp.add("runtime.wait", w[1], w[2],
                   part[static_cast<size_t>(w[0])], j);
            waitUs.add(static_cast<double>(w[2] - w[1]) / 1e3);
        }
        size_t submits = 0;
        for (; c < calls.size() && calls[c].t0 < r.t1; ++c) {
            e2e::ExecCall &call = calls[c];
            int64_t start = call.t0;
            if (call.kind == e2e::ExecCall::Submit) {
                start = call.rerun0;
                if (submits < r.backpressureNs.size())
                    call.backpressureNs = r.backpressureNs[submits++];
            }
            for (size_t p = 0; p < 3; ++p)
                if (start >= r.part[p][0] && call.t1 <= r.part[p][1])
                    addCallSpans(sp, call, part[p], j, 0);
        }
    }
}

void
runApps(Run &run, size_t devices)
{
    const double S = run.opt.seconds;
    const auto jobMs = [](const std::vector<JobRecord> &jobs) {
        Samples s;
        for (const JobRecord &j : jobs)
            s.add(j.ns() / 1e6);
        return s;
    };
    if (!run.traced) {
        Samples setupS;
        auto rig = timedSetup<AppsRig>(run.opt.smoke ? 1 : 3, setupS, [&] {
            return std::make_unique<AppsRig>(run.opt.seed, devices, false,
                                             run.epoch);
        });
        const std::vector<JobRecord> jobs = appsLoop(run, *rig, S, false);
        Samples ms = jobMs(jobs);
        e2e::MetricSet &m = run.ms;
        addLatency(m, ms);
        m.add("throughput_per_s", 1e9 / meanJobNs(jobs), "1/s",
              jobs.size());
        addQuantile(m, "setup_s", setupS, 0.5, "s");
        m.add("peak_rss_mb", e2e::peakRssMb(), "MiB");
        addAppsMetrics(m, *rig, jobs);
        return;
    }

    double untracedP50 = 0.0;
    {
        AppsRig rig(run.opt.seed, devices, false, run.epoch);
        const std::vector<JobRecord> jobs = appsLoop(run, rig, S / 2, false);
        untracedP50 = jobMs(jobs).quantile(0.5);
        addAppsMetrics(run.ms, rig, jobs);
    }
    AppsRig rig(run.opt.seed, devices, true, run.epoch);
    e2e::TimedExecutor &tx = timedOf(*rig.ex);
    tx.takeCalls();
    const uint64_t hits0 = rig.ex->cacheHits();
    const uint64_t opt0 = rig.ex->optimizedInstructionCount();
    const std::vector<JobRecord> jobs = appsLoop(run, rig, S / 2, true);
    std::vector<e2e::ExecCall> calls = tx.takeCalls();
    Samples waitUs;
    appsSpans(run, jobs, calls, waitUs);
    addLayerMetrics(run, "job", calls, waitUs, *rig.ex, hits0, opt0);
    run.ms.add("trace.overhead_pct",
               100.0 * (jobMs(jobs).quantile(0.5) / untracedP50 - 1.0), "%");
}

// ---------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------

/** @return @p path with "-<workload>" before its extension. */
std::string
suffixed(const std::string &path, const std::string &workload)
{
    if (path.empty())
        return path;
    const size_t dot = path.rfind('.');
    const size_t slash = path.rfind('/');
    if (dot == std::string::npos ||
        (slash != std::string::npos && dot < slash))
        return path + "-" + workload;
    return path.substr(0, dot) + "-" + workload + path.substr(dot);
}

int
runWorkload(const Options &opt)
{
    Run run;
    run.opt = opt;
    run.traced = !opt.trace.empty();
    if (opt.smoke)
        run.opt.seconds = 0.5;
    const std::string &w = opt.workload;
    if (w == "serve-mix")
        runServe(run);
    else if (w == "tenant-flood")
        runTenant(run);
    else if (w == "apps-d1")
        runApps(run, 1);
    else if (w == "apps-d4")
        runApps(run, 4);
    else
        e2e::fail("unknown workload '" + w + "'");
    // Ratios of layers a workload does not use are zero, not absent.
    for (const char *name : {"serve.batch_fill_pct", "tenant.flood_shed_pct"})
        if (!run.ms.has(name))
            run.ms.add(name, 0.0, "%", 0);

    std::printf("== %s (seed %llu, %s, %s, host_cores %u) ==\n", w.c_str(),
                static_cast<unsigned long long>(opt.seed),
                opt.smoke ? "smoke" : "full",
                run.traced ? "traced" : "untraced", e2e::hostCores());
    for (const e2e::Metric &m : run.ms.all())
        std::printf("  %-26s %16.6g %-9s (n=%zu)\n", m.name.c_str(),
                    m.value, m.unit.c_str(), m.samples);
    std::printf("  attempted %zu, failed %zu, mismatched %zu\n",
                run.outcome.attempted, run.outcome.failed,
                run.outcome.mismatched);
    if (!opt.out.empty() &&
        !e2e::writeResult(opt.out, w, opt.seed, run.opt.seconds, opt.smoke,
                          run.traced, run.outcome, run.ms))
        e2e::fail("cannot write " + opt.out);
    if (run.traced && !run.spans.writeChrome(opt.trace, 200000))
        e2e::fail("cannot write " + opt.trace);
    std::fflush(stdout);
    return run.outcome.mismatched == 0 ? 0 : 1;
}

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload=<serve-mix|tenant-flood|apps-d1|"
                 "apps-d4|all> [--seed=N] [--seconds=S] [--out=FILE] "
                 "[--trace=FILE] [--smoke]\n",
                 argv0);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto value = [&](const char *flag) -> const char * {
            const size_t n = std::strlen(flag);
            return a.compare(0, n, flag) == 0 ? argv[i] + n : nullptr;
        };
        if (const char *v = value("--workload="))
            opt.workload = v;
        else if (const char *v = value("--seed="))
            opt.seed = std::strtoull(v, nullptr, 10);
        else if (const char *v = value("--seconds="))
            opt.seconds = std::strtod(v, nullptr);
        else if (const char *v = value("--out="))
            opt.out = v;
        else if (const char *v = value("--trace="))
            opt.trace = v;
        else if (a == "--smoke")
            opt.smoke = true;
        else
            usage(argv[0]);
    }
    if (opt.workload.empty() || !(opt.seconds > 0.0))
        usage(argv[0]);
    if (opt.workload != "all")
        return runWorkload(opt);

    // One process per workload, so set-up time and peak RSS belong to
    // that workload alone.
    int rc = 0;
    for (const char *w : kWorkloads) {
        std::fflush(nullptr);
        const pid_t pid = fork();
        if (pid < 0)
            e2e::fail("fork failed");
        if (pid == 0) {
            Options o = opt;
            o.workload = w;
            o.out = suffixed(opt.out, w);
            o.trace = suffixed(opt.trace, w);
            const int code = runWorkload(o);
            std::fflush(nullptr);
            _exit(code);
        }
        int status = 0;
        if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
            WEXITSTATUS(status) != 0)
            rc = 1;
    }
    return rc;
}
