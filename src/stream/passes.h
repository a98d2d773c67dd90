/**
 * @file
 * The stream optimizer passes.
 *
 * Three passes run over a StreamIR between StreamExecutor::submit()
 * and dispatch, in a fixed order:
 *
 *   1. trsp/init hoisting — a forward scan that removes transpose
 *      and constant-fill instructions whose effect is already in
 *      place, starting from all-unknown facts;
 *   2. dead-write elimination — a backward scan over the
 *      effectsOf() read/write sets that removes instructions whose
 *      every written location is overwritten before any read;
 *   3. fusion — adjacent segments that share an operand object are
 *      merged into one device pass, eliding the per-stream
 *      queue/dispatch round trip between them.
 *
 * Every write in the bbop ISA is a FULL write of its location, and
 * the validator lets full vertical writes establish the vertical
 * layout (isa/validate.h), so removing a trsp whose image is
 * overwritten before any read keeps the program valid and the final
 * layout state identical — which is what lets the executor validate
 * the ORIGINAL program and commit that layout (see
 * StreamExecutor::submit).
 *
 * Each pass is individually toggleable (StreamExecutorOptions maps
 * onto PassOptions); runPasses reports per-pass counts in PassStats.
 *
 * The redundancy rule behind hoisting — RedundancyFact, isRedundant()
 * and applyFact() — is the ONLY code that decides whether a trsp,
 * trsp_inv or init is a no-op. The hoisting pass elides with it from
 * all-unknown facts, the analyzer's redundant-trsp/redundant-init
 * lint fires on it, and the executor's stream cache is nothing but
 * the entry facts of the same elision (elideRedundant()) at submit.
 */

#ifndef SIMDRAM_STREAM_PASSES_H
#define SIMDRAM_STREAM_PASSES_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "stream/stream_ir.h"

namespace simdram
{

/**
 * What is known about one object's two images (the vertical bit-serial
 * image and the horizontal host image). Default: nothing.
 */
struct RedundancyFact
{
    bool mirror = false;   ///< The two images coincide.
    /** The host image holds constVal everywhere — and so does the
     *  vertical image while mirror is set. */
    bool hasConst = false;
    uint64_t constVal = 0;

    bool operator==(const RedundancyFact &o) const = default;
};

/**
 * @return True iff @p in rewrites data already in place, given the
 *         fact @p f about its destination: a trsp/trsp_inv while the
 *         images coincide, or an init of the constant both hold. Ops
 *         and shifts are never redundant.
 */
bool isRedundant(const RedundancyFact &f, const BbopInstr &in);

/**
 * Advances @p f (the fact about @p in's destination, the only object
 * any bbop instruction writes) past @p in. A redundant instruction
 * leaves @p f unchanged.
 */
void applyFact(RedundancyFact &f, const BbopInstr &in);

/**
 * Visits the live nodes of @p ir in @p order (a range of node
 * indices), marking dead each one isRedundant() against @p facts
 * (indexed by object id) and applying the rest. @return The number of
 * nodes elided.
 */
template <class NodeOrder>
size_t
elideRedundant(StreamIR &ir, const NodeOrder &order,
               std::vector<RedundancyFact> &facts)
{
    size_t elided = 0;
    for (size_t n : order) {
        StreamNode &node = ir.nodes[n];
        if (node.dead)
            continue;
        RedundancyFact &f = facts[node.instr.dst];
        if (isRedundant(f, node.instr)) {
            node.dead = true;
            ++elided;
        } else {
            applyFact(f, node.instr);
        }
    }
    return elided;
}

/** Which passes to run; all on by default. */
struct PassOptions
{
    bool trspHoist = true;
    bool deadWriteElim = true;
    bool fusion = true;
};

/** What the passes did to one program. */
struct PassStats
{
    size_t hoisted = 0;         ///< Nodes removed by hoisting.
    size_t deadEliminated = 0;  ///< Nodes removed by DWE.
    size_t fusedSegments = 0;   ///< Segments merged away by fusion.

    /** @return Total instructions removed by the scalar passes. */
    size_t removed() const { return hoisted + deadEliminated; }
};

/**
 * Runs the enabled passes over @p ir in place (order: hoist, DWE,
 * fusion) and returns what they did. The IR must be a VALIDATED
 * program: the passes assume every instruction obeys the bbop rules.
 */
PassStats runPasses(StreamIR &ir, const PassOptions &opts);

} // namespace simdram

#endif // SIMDRAM_STREAM_PASSES_H
