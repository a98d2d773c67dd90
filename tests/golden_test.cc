/**
 * @file
 * Golden modeled statistics: one reduced apps job (the kNN,
 * brightness and add32 parts of bench_e2e's apps workloads) through
 * the StreamExecutor on 1 and 4 devices, pinned exactly.
 *
 * The differential suites compare two paths against each other, so a
 * change to synthesis, row allocation or accounting that moves every
 * path together would pass them. These values are absolute: the
 * command counts, latency and energy of the paper's model for this
 * job. They must only change with a deliberate change to the model;
 * then regenerate them and say why in CHANGES.md.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "runtime/stream_executor.h"
#include "stream/stream_builder.h"

namespace simdram
{
namespace
{

/** 256-lane rows, two compute banks; every object spans 8 segments,
 *  so on 4 devices each bank of each device holds one. */
DramConfig
goldenCfg()
{
    DramConfig cfg = DramConfig::forTesting(256, 2048);
    cfg.computeBanks = 2;
    cfg.validate();
    return cfg;
}

constexpr size_t kLanes = 8 * 256;
constexpr size_t kDims = 2;

/** The statistics fields pinned per stream and per job. */
struct Pinned
{
    uint64_t activates, multiActivates, precharges, aaps, aps, writes;
    double latencyNs, energyPj;
};

void
expectPinned(const DramStats &s, const Pinned &p, const std::string &what)
{
    EXPECT_EQ(s.activates, p.activates) << what;
    EXPECT_EQ(s.multiActivates, p.multiActivates) << what;
    EXPECT_EQ(s.precharges, p.precharges) << what;
    EXPECT_EQ(s.aaps, p.aaps) << what;
    EXPECT_EQ(s.aps, p.aps) << what;
    EXPECT_EQ(s.writes, p.writes) << what;
    EXPECT_EQ(s.latencyNs, p.latencyNs) << what;
    EXPECT_EQ(s.energyPj, p.energyPj) << what;
}

/**
 * Defines, fills and transposes the job's objects, then runs one job
 * as bench_e2e's apps rig does: kNN (one query over two resident
 * reference columns, one stream per dimension, distances read back),
 * brightness (a written image, saturating add, read back) and a
 * two-add add32 chain. @return Every job stream's result, in order.
 */
std::vector<StreamResult>
runJob(size_t devices)
{
    DeviceGroup g(goldenCfg(), devices);
    StreamExecutor ex(g, StreamExecutorOptions{2, BackpressurePolicy::Block});

    // Each part's objects are defined together so they co-locate.
    std::vector<uint16_t> ref;
    for (size_t d = 0; d < kDims; ++d)
        ref.push_back(ex.defineObject(kLanes, 16));
    const uint16_t q = ex.defineObject(kLanes, 16);
    const uint16_t diff = ex.defineObject(kLanes, 16);
    const uint16_t abs = ex.defineObject(kLanes, 16);
    const uint16_t acc0 = ex.defineObject(kLanes, 16);
    const uint16_t acc1 = ex.defineObject(kLanes, 16);
    const uint16_t img = ex.defineObject(kLanes, 16);
    const uint16_t delta = ex.defineObject(kLanes, 16);
    const uint16_t cap = ex.defineObject(kLanes, 16);
    const uint16_t sum = ex.defineObject(kLanes, 16);
    const uint16_t ovf = ex.defineObject(kLanes, 1);
    const uint16_t out = ex.defineObject(kLanes, 16);
    const uint16_t a = ex.defineObject(kLanes, 32);
    const uint16_t b = ex.defineObject(kLanes, 32);
    const uint16_t y = ex.defineObject(kLanes, 32);

    std::vector<uint64_t> v(kLanes);
    for (size_t d = 0; d < kDims; ++d) {
        for (size_t i = 0; i < kLanes; ++i)
            v[i] = (i * 37 + d * 101) % 1000;
        ex.writeObject(ref[d], v);
    }
    for (size_t i = 0; i < kLanes; ++i)
        v[i] = (i * 2654435761ULL) & 0xffffffffULL;
    ex.writeObject(a, v);
    for (size_t i = 0; i < kLanes; ++i)
        v[i] = (i * 40503ULL + 7) & 0xffffffffULL;
    ex.writeObject(b, v);
    StreamBuilder sb(ex);
    for (uint16_t o : {q, diff, abs, acc0, acc1, sum, ovf, out, a, b, y})
        sb.trsp(o);
    sb.init(delta, 700).init(cap, 3500);
    sb.submit().wait();

    std::vector<StreamHandle> hs;
    hs.push_back(sb.init(acc0, 0).submit());
    PingPong acc{acc0, acc1};
    const uint64_t coords[kDims] = {123, 456};
    for (size_t d = 0; d < kDims; ++d) {
        sb.trsp(ref[d])
            .init(q, coords[d])
            .binary(OpKind::Sub, diff, ref[d], q)
            .unary(OpKind::Abs, abs, diff)
            .accumulate(acc, abs);
        hs.push_back(sb.submit());
    }
    hs.push_back(sb.trspInv(acc.result()).submit());
    std::vector<StreamResult> results;
    for (StreamHandle &h : hs)
        results.push_back(h.wait());
    ex.readObject(acc.result());

    for (size_t i = 0; i < kLanes; ++i)
        v[i] = (i * 7919) % 4096;
    ex.writeObject(img, v);
    results.push_back(sb.trsp(img)
                          .binary(OpKind::Add, sum, img, delta)
                          .binary(OpKind::Gt, ovf, sum, cap)
                          .predicated(OpKind::IfElse, out, cap, sum, ovf)
                          .trspInv(out)
                          .submit()
                          .wait());
    ex.readObject(out);

    results.push_back(sb.binary(OpKind::Add, y, a, b)
                          .binary(OpKind::Add, a, y, b)
                          .submit()
                          .wait());
    return results;
}

/** Pinned values of one device count: per stream, then the job. */
struct GoldenJob
{
    std::vector<std::pair<Pinned, Pinned>> streams; ///< compute, transfer
    Pinned compute, transfer;
};

void
expectGolden(size_t devices, const GoldenJob &golden)
{
    const std::vector<StreamResult> results = runJob(devices);
    ASSERT_EQ(results.size(), golden.streams.size());
    DramStats compute, transfer;
    for (size_t s = 0; s < results.size(); ++s) {
        const std::string what = "d" + std::to_string(devices) +
                                 " stream " + std::to_string(s);
        expectPinned(results[s].compute, golden.streams[s].first,
                     what + " compute");
        expectPinned(results[s].transfer, golden.streams[s].second,
                     what + " transfer");
        compute = compute + results[s].compute;
        transfer = transfer + results[s].transfer;
    }
    expectPinned(compute, golden.compute,
                 "d" + std::to_string(devices) + " job compute");
    expectPinned(transfer, golden.transfer,
                 "d" + std::to_string(devices) + " job transfer");
}

// Per stream {compute, transfer}, then the job's compute and transfer
// totals. Fields: activates, multiActivates, precharges, aaps, aps,
// writes, latencyNs, energyPj.
const GoldenJob kGoldenD1 = {
    {
        {{256, 0, 128, 128, 0, 0, 4960, 1450},
         {0, 0, 0, 0, 0, 0, 0, 0}},
        {{9224, 1472, 5592, 5104, 488, 0, 208882, 65659.375},
         {128, 0, 128, 0, 0, 128, 3882.2399999999907, 262994}},
        {{9224, 1472, 5592, 5104, 488, 0, 208882, 65659.375},
         {128, 0, 128, 0, 0, 128, 3882.2399999999907, 262994}},
        {{0, 0, 0, 0, 0, 0, 0, 0},
         {128, 0, 128, 0, 0, 128, 3882.2399999999907, 262994}},
        {{8328, 1488, 5216, 4600, 616, 0, 192264, 60850},
         {256, 0, 256, 0, 0, 256, 7764.4799999999886, 525988}},
        {{9216, 1536, 5632, 5120, 512, 0, 210048, 66200},
         {0, 0, 0, 0, 0, 0, 0, 0}},
    },
    {36248, 5968, 22160, 20056, 2104, 0, 825036, 259818.75},
    {640, 0, 640, 0, 0, 640, 19411.199999999961, 1314970}};

const GoldenJob kGoldenD4 = {
    {
        {{256, 0, 128, 128, 0, 0, 1240, 1450},
         {0, 0, 0, 0, 0, 0, 0, 0}},
        {{9224, 1472, 5592, 5104, 488, 0, 52220.5, 65659.375},
         {128, 0, 128, 0, 0, 128, 970.56000000000131, 262994}},
        {{9224, 1472, 5592, 5104, 488, 0, 52220.5, 65659.375},
         {128, 0, 128, 0, 0, 128, 970.56000000000131, 262994}},
        {{0, 0, 0, 0, 0, 0, 0, 0},
         {128, 0, 128, 0, 0, 128, 970.56000000000131, 262994}},
        {{8328, 1488, 5216, 4600, 616, 0, 48066, 60850},
         {256, 0, 256, 0, 0, 256, 1941.119999999999, 525988}},
        {{9216, 1536, 5632, 5120, 512, 0, 52512, 66200},
         {0, 0, 0, 0, 0, 0, 0, 0}},
    },
    {36248, 5968, 22160, 20056, 2104, 0, 206259, 259818.75},
    {640, 0, 640, 0, 0, 640, 4852.8000000000029, 1314970}};

TEST(Golden, AppsJobOnOneDevice)
{
    expectGolden(1, kGoldenD1);
}

TEST(Golden, AppsJobOnFourDevices)
{
    expectGolden(4, kGoldenD4);
}

TEST(Golden, FourDevicesComputeInAQuarterOfTheLatency)
{
    // Banks and devices run concurrently, and each of the 4 devices
    // holds a quarter of every object: the same commands, in a quarter
    // of the modeled latency.
    DramStats d1, d4;
    for (const StreamResult &r : runJob(1))
        d1 = d1 + r.compute;
    for (const StreamResult &r : runJob(4))
        d4 = d4 + r.compute;
    EXPECT_EQ(d4.aaps, d1.aaps);
    EXPECT_EQ(d4.aps, d1.aps);
    EXPECT_EQ(d4.multiActivates, d1.multiActivates);
    EXPECT_EQ(d4.latencyNs * 4, d1.latencyNs);
}

} // namespace
} // namespace simdram
