#include "stream/passes.h"

#include <algorithm>
#include <cstdint>
#include <ranges>
#include <vector>

namespace simdram
{

namespace
{

/** @return One-past the largest object id any node touches. */
size_t
objectBound(const StreamIR &ir)
{
    size_t bound = 0;
    for (const auto &n : ir.nodes) {
        const BbopEffects e = effectsOf(n.instr);
        for (size_t i = 0; i < e.numReads; ++i)
            bound = std::max(bound, size_t{e.reads[i].obj} + 1);
        for (size_t i = 0; i < e.numWrites; ++i)
            bound = std::max(bound, size_t{e.writes[i].obj} + 1);
    }
    return bound;
}

/**
 * Elides redundant trsp/trsp_inv/init instructions in program order.
 * Entry facts are all-unknown: nothing is assumed about images
 * produced before this program (across submissions, that is the
 * executor's stream cache).
 */
size_t
hoistPass(StreamIR &ir)
{
    std::vector<RedundancyFact> facts(objectBound(ir));
    return elideRedundant(
        ir, std::views::iota(size_t{0}, ir.nodes.size()), facts);
}

/**
 * Backward scan removing instructions whose every written location is
 * overwritten (by a surviving instruction) before any read. Both
 * locations of every object are live-out at the end of the program —
 * the host can readObject() and a later submission can read the
 * vertical image — so only writes with an overwriter INSIDE this
 * program are candidates. A removed node is transparent: it neither
 * kills nor revives liveness.
 */
size_t
deadWritePass(StreamIR &ir)
{
    const size_t bound = objectBound(ir);
    // Per (object, location): true iff a surviving later instruction
    // fully overwrites it before anything reads it.
    std::vector<uint8_t> overVert(bound, 0), overHost(bound, 0);
    auto flag = [&](const BbopAccess &a) -> uint8_t & {
        return a.loc == BbopLoc::Vert ? overVert[a.obj]
                                      : overHost[a.obj];
    };

    size_t eliminated = 0;
    for (auto it = ir.nodes.rbegin(); it != ir.nodes.rend(); ++it) {
        if (it->dead)
            continue;
        const BbopEffects e = effectsOf(it->instr);
        bool allOverwritten = e.numWrites > 0;
        for (size_t i = 0; i < e.numWrites; ++i)
            allOverwritten = allOverwritten && flag(e.writes[i]);
        if (allOverwritten) {
            it->dead = true;
            ++eliminated;
            continue;
        }
        for (size_t i = 0; i < e.numWrites; ++i)
            flag(e.writes[i]) = 1;
        for (size_t i = 0; i < e.numReads; ++i)
            flag(e.reads[i]) = 0;
    }
    return eliminated;
}

/**
 * Merges runs of adjacent segments that share an operand object into
 * one segment, then renumbers segments densely. Only adjacent
 * segments merge — the per-device FIFO makes submission order the
 * execution order, and fusing across an unrelated segment would
 * reorder it. Segments whose nodes all died keep their own (empty)
 * slot so results still map back one-to-one.
 */
size_t
fusionPass(StreamIR &ir)
{
    if (ir.segments < 2)
        return 0;

    const size_t bound = objectBound(ir);
    // Per-segment object-touch sets over live nodes.
    std::vector<std::vector<uint8_t>> touches(
        ir.segments, std::vector<uint8_t>(bound, 0));
    for (const auto &n : ir.nodes) {
        if (n.dead)
            continue;
        const BbopEffects e = effectsOf(n.instr);
        for (size_t i = 0; i < e.numReads; ++i)
            touches[n.segment][e.reads[i].obj] = 1;
        for (size_t i = 0; i < e.numWrites; ++i)
            touches[n.segment][e.writes[i].obj] = 1;
    }
    auto shares = [&](const std::vector<uint8_t> &a,
                      const std::vector<uint8_t> &b) {
        for (size_t i = 0; i < a.size(); ++i)
            if (a[i] && b[i])
                return true;
        return false;
    };

    // Greedy chain: fold each segment into the current group when it
    // shares an object with the group's accumulated touch set.
    std::vector<size_t> group(ir.segments, 0);
    std::vector<uint8_t> groupTouch = touches[0];
    size_t groups = 1;
    for (size_t s = 1; s < ir.segments; ++s) {
        if (shares(groupTouch, touches[s])) {
            for (size_t i = 0; i < bound; ++i)
                groupTouch[i] =
                    static_cast<uint8_t>(groupTouch[i] | touches[s][i]);
        } else {
            groupTouch = touches[s];
            ++groups;
        }
        group[s] = groups - 1;
    }
    if (groups == ir.segments)
        return 0;

    for (auto &n : ir.nodes)
        n.segment = group[n.segment];
    const size_t fused = ir.segments - groups;
    ir.segments = groups;
    return fused;
}

} // namespace

bool
isRedundant(const RedundancyFact &f, const BbopInstr &in)
{
    switch (in.opcode) {
      case BbopOpcode::Trsp:
      case BbopOpcode::TrspInv:
        return f.mirror;
      case BbopOpcode::Init:
        return f.mirror && f.hasConst &&
               f.constVal == in.initImmediate();
      case BbopOpcode::Op:
      case BbopOpcode::ShiftL:
      case BbopOpcode::ShiftR:
        break;
    }
    return false;
}

void
applyFact(RedundancyFact &f, const BbopInstr &in)
{
    if (isRedundant(f, in))
        return;
    switch (in.opcode) {
      case BbopOpcode::Trsp:
        // vertical := host, so a constant host image now fills both.
        f.mirror = true;
        break;
      case BbopOpcode::TrspInv:
        // host := vertical, whose content is unknown.
        f.mirror = true;
        f.hasConst = false;
        break;
      case BbopOpcode::Init:
        f = RedundancyFact{true, true, in.initImmediate()};
        break;
      case BbopOpcode::Op:
      case BbopOpcode::ShiftL:
      case BbopOpcode::ShiftR:
        // Only the vertical image is written: the images diverge.
        f = RedundancyFact{};
        break;
    }
}

PassStats
runPasses(StreamIR &ir, const PassOptions &opts)
{
    PassStats stats;
    if (ir.nodes.empty())
        return stats;
    if (opts.trspHoist)
        stats.hoisted = hoistPass(ir);
    if (opts.deadWriteElim)
        stats.deadEliminated = deadWritePass(ir);
    if (opts.fusion)
        stats.fusedSegments = fusionPass(ir);
    return stats;
}

} // namespace simdram
