/**
 * @file
 * Hot-kernel benchmarks on the vendored harness (no google-benchmark
 * dependency): BitRow bulk logic, layout transposition, and μProgram
 * replay, each measured against its retained reference path so
 * BENCH_kernels.json records the speedup of every optimization.
 *
 * Kernel shapes follow the modeled hardware: BitRow ops run on
 * 65,536-lane rows (one full 8 KiB DRAM row), transposition on a
 * 4,096-element cache-line stream, and replay end-to-end through
 * Processor::run on a two-bank device.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"
#include "common/bitrow.h"
#include "common/kernels_ref.h"
#include "common/rng.h"
#include "exec/processor.h"
#include "layout/transpose.h"

namespace
{

using namespace simdram;
using bench::doNotOptimize;

BitRow
randomRow(size_t bits, Rng &rng)
{
    BitRow r(bits);
    for (size_t w = 0; w + 1 < r.wordCount(); ++w)
        r.setWord(w, rng.next());
    if (r.wordCount() > 0)
        r.setWord(r.wordCount() - 1, rng.next() & r.lastWordMask());
    return r;
}

void
benchBitRow(bench::Harness &h)
{
    const size_t kLanes = 65536; // one full 8 KiB DRAM row
    Rng rng(0xb17);
    const BitRow a = randomRow(kLanes, rng);
    const BitRow b = randomRow(kLanes, rng);
    const BitRow c = randomRow(kLanes, rng);
    BitRow out(kLanes);

    h.run("bitrow/majority3/ref_bitwise", kLanes, [&] {
        const BitRow r = refkernel::majority3(a, b, c);
        doNotOptimize(&r);
    });
    h.run("bitrow/majority3/seed_alloc", kLanes, [&] {
        const BitRow r = BitRow::majority3(a, b, c);
        doNotOptimize(&r);
    });
    h.run("bitrow/majority3/fused", kLanes, [&] {
        BitRow::majority3Into(out, a, b, c);
        doNotOptimize(&out);
    });

    h.run("bitrow/select/ref_bitwise", kLanes, [&] {
        const BitRow r = refkernel::select(a, b, c);
        doNotOptimize(&r);
    });
    h.run("bitrow/select/fused", kLanes, [&] {
        BitRow::selectInto(out, a, b, c);
        doNotOptimize(&out);
    });

    h.run("bitrow/andnot/fused", kLanes, [&] {
        BitRow::andNotInto(out, a, b);
        doNotOptimize(&out);
    });
    h.run("bitrow/not/fused", kLanes, [&] {
        out.assignNot(a);
        doNotOptimize(&out);
    });

    h.run("bitrow/popcount/ref_bitwise", kLanes, [&] {
        const size_t n = refkernel::popcount(a);
        doNotOptimize(&n);
    });
    h.run("bitrow/popcount/word", kLanes, [&] {
        const size_t n = a.popcount();
        doNotOptimize(&n);
    });

    h.speedup("bitrow majority3 fused vs seed",
              "bitrow/majority3/seed_alloc", "bitrow/majority3/fused");
    h.speedup("bitrow majority3 fused vs bitwise ref",
              "bitrow/majority3/ref_bitwise", "bitrow/majority3/fused");
    h.speedup("bitrow select fused vs bitwise ref",
              "bitrow/select/ref_bitwise", "bitrow/select/fused");
    h.speedup("bitrow popcount word vs bitwise ref",
              "bitrow/popcount/ref_bitwise", "bitrow/popcount/word");
}

void
benchTranspose(bench::Harness &h)
{
    const size_t kN = 4096;
    const size_t kBits = 32;
    Rng rng(0x7a5);
    std::vector<uint64_t> elems(kN);
    for (auto &e : elems)
        e = rng.next() & 0xffffffffULL;

    h.run("transpose/e2r/ref_bitwise", kN, [&] {
        const auto rows =
            refkernel::elementsToRows(elems.data(), kN, kBits, kN);
        doNotOptimize(&rows);
    });
    h.run("transpose/e2r/tiled", kN, [&] {
        const auto rows = elementsToRows(elems.data(), kN, kBits, kN);
        doNotOptimize(&rows);
    });

    const auto rows = elementsToRows(elems.data(), kN, kBits, kN);
    std::vector<const BitRow *> ptrs(rows.size());
    for (size_t j = 0; j < rows.size(); ++j)
        ptrs[j] = &rows[j];
    std::vector<uint64_t> back(kN);
    h.run("transpose/r2e/ref_bitwise", kN, [&] {
        const auto e = refkernel::rowsToElements(rows, kN);
        doNotOptimize(&e);
    });
    h.run("transpose/r2e/tiled", kN, [&] {
        rowsToElementsInto(ptrs.data(), rows.size(), back.data(), kN);
        doNotOptimize(&back);
    });

    h.speedup("transpose e2r tiled vs bitwise ref",
              "transpose/e2r/ref_bitwise", "transpose/e2r/tiled");
    h.speedup("transpose r2e tiled vs bitwise ref",
              "transpose/r2e/ref_bitwise", "transpose/r2e/tiled");

    // One entry per width class, through the Into entry points the
    // transposition unit uses, each against the bitwise reference at
    // the same width (whose cost grows with the bit count).
    for (const size_t bits : {8, 16, 32, 64}) {
        const std::string w = "w" + std::to_string(bits);
        std::vector<uint64_t> ev(kN);
        for (auto &e : ev)
            e = rng.next() & (~0ULL >> (64 - bits));
        std::vector<BitRow> rws(bits, BitRow(kN));
        std::vector<BitRow *> wptrs(bits);
        std::vector<const BitRow *> rptrs(bits);
        for (size_t j = 0; j < bits; ++j) {
            wptrs[j] = &rws[j];
            rptrs[j] = &rws[j];
        }
        h.run("transpose/e2r/" + w + "/ref_bitwise", kN, [&] {
            const auto r =
                refkernel::elementsToRows(ev.data(), kN, bits, kN);
            doNotOptimize(&r);
        });
        h.run("transpose/e2r/" + w, kN, [&] {
            elementsToRowsInto(ev.data(), kN, bits, wptrs.data());
            doNotOptimize(&rws);
        });
        h.run("transpose/r2e/" + w + "/ref_bitwise", kN, [&] {
            const auto e = refkernel::rowsToElements(rws, kN);
            doNotOptimize(&e);
        });
        h.run("transpose/r2e/" + w, kN, [&] {
            rowsToElementsInto(rptrs.data(), bits, back.data(), kN);
            doNotOptimize(&back);
        });
        h.speedup("transpose e2r " + w + " vs bitwise ref",
                  "transpose/e2r/" + w + "/ref_bitwise",
                  "transpose/e2r/" + w);
        h.speedup("transpose r2e " + w + " vs bitwise ref",
                  "transpose/r2e/" + w + "/ref_bitwise",
                  "transpose/r2e/" + w);
    }
    // Dispatch check: a 16-bit object must cost well under a 64-bit
    // one, or the narrow class is no longer being picked.
    h.speedup("transpose r2e w64 vs w16", "transpose/r2e/w64",
              "transpose/r2e/w16");
}

/** A processor with a stored 32-bit add ready to replay. */
struct ReplayFixture
{
    Processor proc;
    Processor::VecHandle a, b, y, w, s;

    ReplayFixture(DramConfig cfg, ReplayMode mode, size_t n)
        : proc(cfg)
    {
        proc.setReplayMode(mode);
        Rng rng(0x9e9);
        std::vector<uint64_t> da(n), db(n);
        for (size_t i = 0; i < n; ++i) {
            da[i] = rng.next() & 0xffffffffULL;
            db[i] = rng.next() & 0xffffffffULL;
        }
        a = proc.alloc(n, 32);
        b = proc.alloc(n, 32);
        y = proc.alloc(n, 32);
        w = proc.alloc(n, 32);
        s = proc.alloc(n, 32);
        proc.store(a, da);
        proc.store(b, db);
    }
};

void
benchReplay(bench::Harness &h)
{
    // Wide rows: two compute banks x 4,096-lane subarrays; 16,384
    // elements = 2 segments per bank. Row copies dominate here.
    DramConfig cfg = DramConfig::forTesting(4096, 768);
    cfg.computeBanks = 2;
    const size_t kN = 4 * 4096;

    ReplayFixture ref(cfg, ReplayMode::Reference, kN);
    ReplayFixture fast(cfg, ReplayMode::Batched, kN);

    h.run("replay/add32/reference", kN,
          [&] { ref.proc.run(OpKind::Add, ref.y, ref.a, ref.b); });
    h.run("replay/add32/batched", kN,
          [&] { fast.proc.run(OpKind::Add, fast.y, fast.a, fast.b); });

    // Narrow rows (1,024 lanes, 8 segments): per-command binding and
    // accounting overhead dominates, which is what the plan removes.
    DramConfig small = DramConfig::forTesting(1024, 768);
    small.computeBanks = 2;
    const size_t kM = 8 * 1024;

    ReplayFixture sref(small, ReplayMode::Reference, kM);
    ReplayFixture sfast(small, ReplayMode::Batched, kM);

    h.run("replay/add32-narrow/reference", kM,
          [&] { sref.proc.run(OpKind::Add, sref.y, sref.a, sref.b); });
    h.run("replay/add32-narrow/batched", kM, [&] {
        sfast.proc.run(OpKind::Add, sfast.y, sfast.a, sfast.b);
    });

    // Zero-copy staging path: the RowClone-dominated work around a
    // kernel — broadcast a constant (C0/C1 interning), shift (pure
    // row copies), then the add. The batched path aliases CoW
    // payloads for every plain AAP; the reference path pays the
    // seed's eager row copies.
    h.run("replay/add32-cow/reference", kN, [&] {
        ref.proc.fillConstant(ref.w, 0x55aa55aaULL);
        ref.proc.shiftLeft(ref.s, ref.a, 1);
        ref.proc.run(OpKind::Add, ref.y, ref.s, ref.w);
    });
    h.run("replay/add32-cow/batched", kN, [&] {
        fast.proc.fillConstant(fast.w, 0x55aa55aaULL);
        fast.proc.shiftLeft(fast.s, fast.a, 1);
        fast.proc.run(OpKind::Add, fast.y, fast.s, fast.w);
    });

    h.run("processor/e2e/add32", kN, [&] {
        fast.proc.run(OpKind::Add, fast.y, fast.a, fast.b);
        const auto out = fast.proc.load(fast.y);
        doNotOptimize(&out);
    });

    h.speedup("uprog replay batched vs reference",
              "replay/add32/reference", "replay/add32/batched");
    h.speedup("uprog replay batched vs reference (narrow)",
              "replay/add32-narrow/reference",
              "replay/add32-narrow/batched");
    h.speedup("replay/add32-cow", "replay/add32-cow/reference",
              "replay/add32-cow/batched");
}

} // namespace

int
main(int argc, char **argv)
{
    simdram::bench::Options opts = simdram::bench::parseArgs(argc, argv);
    simdram::bench::Harness h(opts);
    benchBitRow(h);
    benchTranspose(h);
    benchReplay(h);
    return h.finish();
}
