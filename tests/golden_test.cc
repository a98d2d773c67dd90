/**
 * @file
 * Golden modeled statistics: one reduced apps job (the kNN,
 * brightness and add32 parts of bench_e2e's apps workloads) through
 * the StreamExecutor on 1 and 4 devices, and bench_e1's μProgram-size
 * table (the paper's μProgram study) at widths 8, 16 and 32, pinned
 * exactly.
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
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "ambit/ambit_synth.h"
#include "ops/library.h"
#include "runtime/stream_executor.h"
#include "stream/stream_builder.h"
#include "uprog/allocator.h"

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

/** One row of bench_e1's μProgram-size table. */
struct SizeRow
{
    OpKind op;
    size_t width;
    size_t aoigGates, migGates;
    size_t ambitCmds, naiveCmds, greedyCmds;
};

/**
 * Every paper operation at widths 8, 16 and 32 (64 is left out to
 * keep the Debug and sanitizer jobs fast): AND/OR/NOT and MAJ/NOT
 * gate counts, and the AAP+AP command counts of the Ambit baseline
 * and of SIMDRAM with naive and greedy row allocation.
 */
constexpr SizeRow kSizeTable[] = {
    {OpKind::Abs, 8, 49, 40, 232, 182, 146},
    {OpKind::Abs, 16, 105, 88, 496, 398, 316},
    {OpKind::Abs, 32, 217, 184, 1024, 830, 658},
    {OpKind::Add, 8, 64, 24, 294, 104, 88},
    {OpKind::Add, 16, 136, 48, 622, 208, 176},
    {OpKind::Add, 32, 280, 96, 1278, 416, 352},
    {OpKind::AndRed, 8, 7, 7, 29, 28, 22},
    {OpKind::AndRed, 16, 15, 15, 61, 60, 46},
    {OpKind::AndRed, 32, 31, 31, 125, 124, 94},
    {OpKind::Bitcount, 8, 48, 21, 218, 98, 76},
    {OpKind::Bitcount, 16, 115, 45, 517, 216, 157},
    {OpKind::Bitcount, 32, 254, 93, 1136, 454, 325},
    {OpKind::Div, 8, 656, 337, 2971, 1541, 1234},
    {OpKind::Div, 16, 2840, 1441, 12819, 6533, 5334},
    {OpKind::Div, 32, 11816, 5953, 53251, 26885, 22170},
    {OpKind::Eq, 8, 31, 31, 149, 134, 107},
    {OpKind::Eq, 16, 63, 63, 301, 270, 215},
    {OpKind::Eq, 32, 127, 127, 605, 542, 431},
    {OpKind::Ge, 8, 46, 46, 210, 217, 163},
    {OpKind::Ge, 16, 94, 94, 426, 441, 331},
    {OpKind::Ge, 32, 190, 190, 858, 889, 667},
    {OpKind::Gt, 8, 42, 42, 192, 196, 147},
    {OpKind::Gt, 16, 90, 90, 408, 420, 315},
    {OpKind::Gt, 32, 186, 186, 840, 868, 651},
    {OpKind::IfElse, 8, 24, 24, 112, 97, 81},
    {OpKind::IfElse, 16, 48, 48, 224, 193, 161},
    {OpKind::IfElse, 32, 96, 96, 448, 385, 321},
    {OpKind::Max, 8, 66, 66, 303, 307, 235},
    {OpKind::Max, 16, 138, 138, 631, 643, 491},
    {OpKind::Max, 32, 282, 282, 1287, 1315, 1003},
    {OpKind::Min, 8, 66, 66, 303, 307, 235},
    {OpKind::Min, 16, 138, 138, 631, 643, 491},
    {OpKind::Min, 32, 282, 282, 1287, 1315, 1003},
    {OpKind::Mul, 8, 234, 120, 1042, 508, 413},
    {OpKind::Mul, 16, 1098, 496, 4858, 2104, 1777},
    {OpKind::Mul, 32, 4746, 2016, 20938, 8560, 7385},
    {OpKind::OrRed, 8, 7, 7, 29, 28, 22},
    {OpKind::OrRed, 16, 15, 15, 61, 60, 46},
    {OpKind::OrRed, 32, 31, 31, 125, 124, 94},
    {OpKind::Relu, 8, 7, 7, 43, 30, 30},
    {OpKind::Relu, 16, 15, 15, 91, 62, 62},
    {OpKind::Relu, 32, 31, 31, 187, 126, 126},
    {OpKind::Sub, 8, 65, 24, 306, 119, 95},
    {OpKind::Sub, 16, 137, 48, 642, 239, 191},
    {OpKind::Sub, 32, 281, 96, 1314, 479, 383},
    {OpKind::XorRed, 8, 21, 21, 99, 91, 65},
    {OpKind::XorRed, 16, 45, 45, 211, 195, 137},
    {OpKind::XorRed, 32, 93, 93, 435, 403, 281},
};

TEST(Golden, MicroProgramSizeTable)
{
    OperationLibrary lib;
    size_t pinned = 0;
    for (OpKind op : kAllOps) {
        for (size_t w : {8u, 16u, 32u}) {
            const SizeRow *row = nullptr;
            for (const SizeRow &r : kSizeTable)
                if (r.op == op && r.width == w)
                    row = &r;
            ASSERT_NE(row, nullptr) << toString(op) << " " << w;
            const std::string what = toString(op) + "." +
                                     std::to_string(w);
            const Circuit &aoig = lib.aoig(op, w);
            const Circuit &mig = lib.mig(op, w);
            CompileOptions naive;
            naive.greedy = false;
            EXPECT_EQ(aoig.topoOrder().size(), row->aoigGates) << what;
            EXPECT_EQ(mig.topoOrder().size(), row->migGates) << what;
            EXPECT_EQ(compileAmbit(aoig).ops.size(), row->ambitCmds)
                << what;
            EXPECT_EQ(compileMig(mig, naive).ops.size(), row->naiveCmds)
                << what;
            EXPECT_EQ(compileMig(mig).ops.size(), row->greedyCmds)
                << what;
            ++pinned;
        }
    }
    EXPECT_EQ(pinned, std::size(kSizeTable));
}

} // namespace
} // namespace simdram
