#include "exec/processor.h"

#include <algorithm>

#include "ambit/ambit_synth.h"
#include "common/error.h"
#include "uprog/allocator.h"

namespace simdram
{

const char *
toString(Backend b)
{
    switch (b) {
      case Backend::Simdram:
        return "SIMDRAM";
      case Backend::SimdramNaive:
        return "SIMDRAM-naive";
      case Backend::Ambit:
        return "Ambit";
    }
    return "?";
}

const char *
toString(ReplayMode m)
{
    switch (m) {
      case ReplayMode::Reference:
        return "reference";
      case ReplayMode::Batched:
        return "batched";
    }
    return "?";
}

Processor::Processor(DramConfig cfg, Backend backend)
    : device_(cfg),
      tunit_(device_.config()),
      backend_(backend),
      cur_sub_(device_.config().banks, 0),
      next_row_(device_.config().banks, 0)
{
}

Processor::VecHandle
Processor::alloc(size_t elements, size_t bits)
{
    if (elements == 0 || bits == 0)
        fatal("Processor::alloc: empty vector");
    const DramConfig &cfg = device_.config();

    VecInfo vi;
    vi.elements = elements;
    vi.bits = bits;
    const size_t lanes_per_seg = cfg.rowBits;
    const size_t n_segs =
        (elements + lanes_per_seg - 1) / lanes_per_seg;
    for (size_t s = 0; s < n_segs; ++s) {
        const size_t lanes =
            std::min(lanes_per_seg, elements - s * lanes_per_seg);
        vi.segments.push_back(reserveSegment(s, bits, lanes));
    }

    vectors_.push_back(std::move(vi));
    VecHandle h;
    h.id = static_cast<uint32_t>(vectors_.size() - 1);
    h.elements = elements;
    h.bits = bits;
    return h;
}

Processor::Segment
Processor::reserveSegment(size_t seg_idx, size_t rows, size_t lanes)
{
    const DramConfig &cfg = device_.config();
    const size_t bank = seg_idx % cfg.computeBanks;
    const uint32_t data_limit = static_cast<uint32_t>(
        cfg.rowsPerSubarray - cfg.scratchRows);

    if (rows > data_limit)
        fatal("Processor: vector wider than a subarray data region");

    // Recycle an identically-shaped freed segment first, FIFO: a
    // teardown-and-recreate sequence that reallocates the same shapes
    // in the same order lands on the same subarray rows, preserving
    // the co-location the bump allocator would have produced.
    for (size_t i = 0; i < free_segs_.size(); ++i) {
        if (free_segs_[i].rows == rows &&
            free_segs_[i].seg.bank == bank) {
            Segment seg = free_segs_[i].seg;
            seg.lanes = lanes;
            free_segs_.erase(free_segs_.begin() +
                             static_cast<std::ptrdiff_t>(i));
            return seg;
        }
    }

    if (next_row_[bank] + rows > data_limit) {
        // Check BEFORE advancing: a failed alloc must leave the bump
        // state intact, or the next alloc would hand out a segment in
        // a subarray that does not exist.
        if (cur_sub_[bank] + 1 >= cfg.subarraysPerBank)
            fatal("Processor: out of subarrays in bank " +
                  std::to_string(bank));
        ++cur_sub_[bank];
        next_row_[bank] = 0;
    }

    Segment seg;
    seg.bank = bank;
    seg.sub = cur_sub_[bank];
    seg.baseRow = next_row_[bank];
    seg.lanes = lanes;
    next_row_[bank] += static_cast<uint32_t>(rows);
    return seg;
}

void
Processor::free(const VecHandle &v)
{
    if (!v.valid() || v.id >= vectors_.size())
        fatal("Processor: invalid vector handle");
    VecInfo &vi = vectors_[v.id];
    if (vi.freed)
        fatal("Processor::free: vector already freed");
    for (const Segment &seg : vi.segments)
        free_segs_.push_back(FreeSeg{seg, vi.bits});
    vi.freed = true;
    vi.segments.clear();
    vi.segments.shrink_to_fit();
}

const Processor::VecInfo &
Processor::info(const VecHandle &v) const
{
    if (!v.valid() || v.id >= vectors_.size())
        fatal("Processor: invalid vector handle");
    if (vectors_[v.id].freed)
        fatal("Processor: use of freed vector handle");
    return vectors_[v.id];
}

void
Processor::store(const VecHandle &v, const std::vector<uint64_t> &data)
{
    store(v, data.data(), data.size());
}

void
Processor::store(const VecHandle &v, const uint64_t *data, size_t n,
                 size_t bank)
{
    const VecInfo &vi = info(v);
    if (n != vi.elements)
        fatal("Processor::store: element count mismatch");
    size_t off = 0;
    for (const Segment &seg : vi.segments) {
        // Another bank's subarrays may be materializing concurrently:
        // touch only this part's.
        if (bank == kAllBanks || seg.bank == bank)
            TranspositionUnit::writeVertical(
                device_.bank(seg.bank).subarray(seg.sub), seg.baseRow,
                vi.bits, data + off, seg.lanes);
        off += seg.lanes;
    }
    if (bank == kAllBanks)
        accountTransfer(v);
}

void
Processor::accountTransfer(const VecHandle &v)
{
    const VecInfo &vi = info(v);
    for (const Segment &seg : vi.segments)
        tunit_.account(vi.bits, seg.lanes);
}

void
Processor::fillConstant(const VecHandle &v, uint64_t value, size_t bank)
{
    const VecInfo &vi = info(v);
    if (vi.bits < 64 && (value >> vi.bits) != 0)
        fatal("Processor::fillConstant: value wider than the vector");
    for (const Segment &seg : vi.segments) {
        if (bank != kAllBanks && seg.bank != bank)
            continue;
        Subarray &sub = device_.bank(seg.bank).subarray(seg.sub);
        // C0/C1 clones intern the constant row's payload on the fast
        // path; keep the reference mode an eager seed baseline.
        sub.useReferencePath(replay_mode_ == ReplayMode::Reference);
        for (size_t j = 0; j < vi.bits; ++j) {
            const bool bit = j < 64 && ((value >> j) & 1);
            sub.aap(RowAddr::row(bit ? SpecialRow::C1
                                     : SpecialRow::C0),
                    RowAddr::data(seg.baseRow +
                                  static_cast<uint32_t>(j)));
        }
    }
}

namespace
{

/** Shared row-copy shift used by shiftLeft/shiftRight. */
void
shiftRows(Subarray &sub, uint32_t dst_base, uint32_t src_base,
          size_t bits, size_t k, bool left)
{
    for (size_t j = 0; j < bits; ++j) {
        const uint32_t dst_row =
            dst_base + static_cast<uint32_t>(j);
        // Left shift: dst[j] = src[j-k]; right shift: src[j+k].
        bool in_range;
        size_t src_j = 0;
        if (left) {
            in_range = j >= k;
            if (in_range)
                src_j = j - k;
        } else {
            in_range = j + k < bits;
            if (in_range)
                src_j = j + k;
        }
        if (in_range)
            sub.aap(RowAddr::data(src_base +
                                  static_cast<uint32_t>(src_j)),
                    RowAddr::data(dst_row));
        else
            sub.aap(RowAddr::row(SpecialRow::C0),
                    RowAddr::data(dst_row));
    }
}

} // namespace

void
Processor::shiftLeft(const VecHandle &dst, const VecHandle &src,
                     size_t k, size_t bank)
{
    shift(dst, src, k, true, bank);
}

void
Processor::shiftRight(const VecHandle &dst, const VecHandle &src,
                      size_t k, size_t bank)
{
    shift(dst, src, k, false, bank);
}

void
Processor::shift(const VecHandle &dst, const VecHandle &src, size_t k,
                 bool left, size_t bank)
{
    const VecInfo &d = info(dst);
    const VecInfo &s = info(src);
    if (dst.id == src.id)
        fatal("Processor::shift: in-place shift is not supported");
    if (d.bits != s.bits || d.elements != s.elements)
        fatal("Processor::shift: shape mismatch");
    for (size_t i = 0; i < d.segments.size(); ++i) {
        const Segment &ds = d.segments[i];
        const Segment &ss = s.segments[i];
        if (ds.bank != ss.bank || ds.sub != ss.sub)
            fatal("Processor::shift: vectors are not co-located");
        if (bank != kAllBanks && ds.bank != bank)
            continue;
        Subarray &sub = device_.bank(ds.bank).subarray(ds.sub);
        sub.useReferencePath(replay_mode_ == ReplayMode::Reference);
        shiftRows(sub, ds.baseRow, ss.baseRow, d.bits, k, left);
    }
}

std::vector<uint64_t>
Processor::load(const VecHandle &v)
{
    std::vector<uint64_t> out(info(v).elements);
    loadInto(v, out.data());
    return out;
}

void
Processor::loadInto(const VecHandle &v, uint64_t *out, size_t bank)
{
    const VecInfo &vi = info(v);
    size_t off = 0;
    for (const Segment &seg : vi.segments) {
        if (bank == kAllBanks || seg.bank == bank)
            TranspositionUnit::readVertical(
                device_.bank(seg.bank).subarray(seg.sub), seg.baseRow,
                vi.bits, out + off, seg.lanes);
        off += seg.lanes;
    }
    if (bank == kAllBanks)
        accountTransfer(v);
}

const MicroProgram &
Processor::program(OpKind op, size_t width)
{
    const auto key = std::make_pair(op, width);
    auto it = prog_cache_.find(key);
    if (it != prog_cache_.end())
        return *it->second;

    MicroProgram prog;
    switch (backend_) {
      case Backend::Simdram:
        prog = compileMig(lib_.mig(op, width), CompileOptions{});
        break;
      case Backend::SimdramNaive: {
        CompileOptions opts;
        opts.greedy = false;
        prog = compileMig(lib_.mig(op, width), opts);
        break;
      }
      case Backend::Ambit:
        prog = compileAmbit(lib_.aoig(op, width));
        break;
    }
    if (prog.scratchRows > device_.config().scratchRows)
        fatal("Processor: μProgram needs " +
              std::to_string(prog.scratchRows) +
              " scratch rows; raise DramConfig::scratchRows");

    auto owned = std::make_unique<MicroProgram>(std::move(prog));
    const MicroProgram &ref = *owned;
    prog_cache_.emplace(key, std::move(owned));
    return ref;
}

void
Processor::precompile(OpKind op, size_t width)
{
    const MicroProgram &prog = program(op, width);
    if (replay_mode_ == ReplayMode::Batched)
        planFor(prog);
}

const std::vector<Processor::Segment> &
Processor::segments(const VecHandle &v) const
{
    return info(v).segments;
}

void
Processor::run(OpKind op, const VecHandle &dst, const VecHandle &a,
               size_t bank)
{
    const auto sig = signatureOf(op, a.bits);
    if (sig.numInputs != 1 || sig.hasSel)
        fatal("Processor::run: operation is not unary");
    const VecInfo *in[] = {&info(a)};
    execute(program(op, a.bits), in, 1, info(dst), bank);
}

void
Processor::run(OpKind op, const VecHandle &dst, const VecHandle &a,
               const VecHandle &b, size_t bank)
{
    const auto sig = signatureOf(op, a.bits);
    if (sig.numInputs != 2 || sig.hasSel)
        fatal("Processor::run: operation is not binary");
    if (a.bits != b.bits)
        fatal("Processor::run: operand width mismatch");
    const VecInfo *in[] = {&info(a), &info(b)};
    execute(program(op, a.bits), in, 2, info(dst), bank);
}

void
Processor::run(OpKind op, const VecHandle &dst, const VecHandle &a,
               const VecHandle &b, const VecHandle &sel, size_t bank)
{
    const auto sig = signatureOf(op, a.bits);
    if (!(sig.numInputs == 2 && sig.hasSel))
        fatal("Processor::run: operation is not predicated");
    if (sel.bits != 1)
        fatal("Processor::run: predicate must be 1 bit wide");
    const VecInfo *in[] = {&info(a), &info(b), &info(sel)};
    execute(program(op, a.bits), in, 3, info(dst), bank);
}

const ReplayPlan &
Processor::planFor(const MicroProgram &prog)
{
    auto it = plan_cache_.find(&prog);
    if (it == plan_cache_.end())
        it = plan_cache_
                 .emplace(&prog, ReplayPlan(prog, device_.config()))
                 .first;
    return it->second;
}

const char *
Processor::placementError(const PlacedSegment *inputs, size_t n,
                          PlacedSegment out)
{
    const Segment &seg0 = *inputs[0].seg;
    for (size_t i = 0; i < n; ++i) {
        const Segment &seg = *inputs[i].seg;
        if (seg.bank != seg0.bank || seg.sub != seg0.sub)
            return "operands are not co-located; allocate matching "
                   "vectors back to back";
    }
    if (out.seg->bank != seg0.bank || out.seg->sub != seg0.sub)
        return "destination is not co-located with the operands";
    const uint32_t out_end =
        out.seg->baseRow + static_cast<uint32_t>(out.bits);
    for (size_t i = 0; i < n; ++i) {
        const uint32_t in_end =
            inputs[i].seg->baseRow + static_cast<uint32_t>(inputs[i].bits);
        if (inputs[i].seg->baseRow < out_end &&
            out.seg->baseRow < in_end)
            return "destination overlaps an operand; in-place "
                   "execution is not supported";
    }
    return nullptr;
}

void
Processor::execute(const MicroProgram &prog, const VecInfo *const *inputs,
                   size_t n, const VecInfo &out, size_t bank)
{
    const DramConfig &cfg = device_.config();
    const size_t elements = inputs[0]->elements;
    for (size_t i = 0; i < n; ++i)
        if (inputs[i]->elements != elements)
            fatal("Processor: operand element counts differ");
    if (out.elements != elements)
        fatal("Processor: destination element count differs");
    if (n != prog.inputRegions.size())
        panic("Processor: operand count does not match μProgram");
    const size_t expected_out = prog.outputRowCount();
    if (out.bits != expected_out)
        fatal("Processor: destination must be " +
              std::to_string(expected_out) + " bits wide");

    const uint32_t scratch_base = static_cast<uint32_t>(
        cfg.rowsPerSubarray - cfg.scratchRows);
    const bool batched = replay_mode_ == ReplayMode::Batched;
    const ReplayPlan *plan = batched ? &planFor(prog) : nullptr;

    // Every segment is checked before any replays, so a misplaced
    // operation fails with no side effect. Region bases are ordered
    // inputs / outputs / scratch, the layout both ControlUnit and
    // ReplayPlan use.
    constexpr size_t kMaxInputs = 3;
    if (n > kMaxInputs)
        panic("Processor::execute: too many inputs");
    const size_t n_segs = inputs[0]->segments.size();
    for (size_t s = 0; s < n_segs; ++s) {
        PlacedSegment placed[kMaxInputs];
        for (size_t i = 0; i < n; ++i)
            placed[i] = {&inputs[i]->segments[s], inputs[i]->bits};
        if (const char *why = placementError(
                placed, n, {&out.segments[s], out.bits}))
            fatal(std::string("Processor: ") + why);
    }
    for (size_t s = 0; s < n_segs; ++s) {
        const Segment &oseg = out.segments[s];
        if (bank != kAllBanks && oseg.bank != bank)
            continue;
        uint32_t bases[kMaxInputs + 2];
        for (size_t i = 0; i < n; ++i)
            bases[i] = inputs[i]->segments[s].baseRow;
        bases[n] = oseg.baseRow;
        bases[n + 1] = scratch_base;
        Subarray &sub = device_.bank(oseg.bank).subarray(oseg.sub);
        sub.useReferencePath(!batched);
        if (batched) {
            plan->replaySegment(sub, bases);
            continue;
        }
        // Reference mode: the seed per-segment path, re-binding and
        // re-dispatching through the control unit.
        cu_.execute(sub, prog, std::vector<uint32_t>(bases, bases + n),
                    {oseg.baseRow}, scratch_base);
    }
}

DramStats
Processor::computeStats() const
{
    return device_.parallelStats();
}

DramStats
Processor::transferStats() const
{
    return tunit_.stats();
}

void
Processor::resetStats()
{
    device_.resetStats();
    tunit_.resetStats();
}

} // namespace simdram
