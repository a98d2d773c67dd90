/**
 * @file
 * Shared differential-testing rig for the StreamExecutor: a pair of
 * executors over independent but identically configured DeviceGroups,
 * where every action runs on both and the object images must stay
 * bit-exact while only one side may skip or optimize work. Used by
 * stream_cache_test (runtime cache on vs off, passes off) and
 * stream_ir_test (optimizer passes on vs off, cache off).
 */

#ifndef SIMDRAM_TESTS_STREAM_TESTUTIL_H
#define SIMDRAM_TESTS_STREAM_TESTUTIL_H

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "common/rng.h"
#include "runtime/stream_executor.h"
#include "stream/stream_ir.h"

namespace simdram
{
namespace testutil
{

inline DramConfig
testCfg()
{
    return DramConfig::forTesting(256, 512);
}

inline std::vector<uint64_t>
randomData(size_t n, uint64_t mask, uint64_t seed)
{
    Rng rng(seed);
    std::vector<uint64_t> v(n);
    for (auto &x : v)
        x = rng.next() & mask;
    return v;
}

/**
 * Executor options with every optimizer pass off; @p cache selects
 * the runtime trsp/init cache. The cache tests use this on both rig
 * sides so pass removals cannot perturb elision accounting; the pass
 * tests use it (cache off) as the reference side.
 */
inline StreamExecutorOptions
noPassesOpts(bool cache)
{
    StreamExecutorOptions o;
    o.enableStreamCache = cache;
    o.enableFusion = false;
    o.enableDeadWriteElim = false;
    o.enableTrspHoist = false;
    return o;
}

/**
 * A pair of executors over independent but identically configured
 * groups: every action runs on both, and the object images must stay
 * bit-exact while only the "opt" side may skip or remove work. The
 * "ref" side must be constructed with the runtime cache disabled
 * (run() asserts it never elides).
 */
struct DiffRig
{
    DeviceGroup go, gr;
    StreamExecutor opt, ref;
    std::vector<uint16_t> ids;

    DiffRig(size_t devices, const StreamExecutorOptions &optOpts,
            const StreamExecutorOptions &refOpts,
            const DramConfig &cfg = testCfg())
        : go(cfg, devices),
          gr(cfg, devices),
          opt(go, optOpts),
          ref(gr, refOpts)
    {}

    uint16_t
    define(size_t n, size_t bits)
    {
        const uint16_t a = opt.defineObject(n, bits);
        const uint16_t b = ref.defineObject(n, bits);
        EXPECT_EQ(a, b);
        ids.push_back(a);
        return a;
    }

    void
    write(uint16_t id, const std::vector<uint64_t> &data)
    {
        opt.writeObject(id, data);
        ref.writeObject(id, data);
    }

    /** Submits on both; returns (opt, ref) results. */
    std::pair<StreamResult, StreamResult>
    run(const std::vector<BbopInstr> &stream)
    {
        StreamResult ro = opt.submit(stream).wait();
        StreamResult rr = ref.submit(stream).wait();
        EXPECT_EQ(rr.cachedInstructions, 0u);
        EXPECT_EQ(ro.instructions, rr.instructions);
        return {ro, rr};
    }

    /**
     * Submits the same multi-segment program on both sides and waits
     * for every handle; returns (opt, ref) per-segment results.
     */
    std::pair<std::vector<StreamResult>, std::vector<StreamResult>>
    runIR(const StreamIR &ir)
    {
        std::vector<StreamResult> ro, rr;
        for (auto &h : opt.submit(ir))
            ro.push_back(h.wait());
        for (auto &h : ref.submit(ir))
            rr.push_back(h.wait());
        return {std::move(ro), std::move(rr)};
    }

    /** Every object's host image must match bit-exactly. */
    void
    expectSameImages()
    {
        for (uint16_t id : ids)
            ASSERT_EQ(opt.readObject(id), ref.readObject(id))
                << "object " << id;
    }
};

} // namespace testutil
} // namespace simdram

#endif // SIMDRAM_TESTS_STREAM_TESTUTIL_H
