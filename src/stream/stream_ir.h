/**
 * @file
 * The typed stream IR the optimizer passes run over.
 *
 * A StreamIR is a flat list of bbop instructions annotated with the
 * two facts the passes need: which SEGMENT (device pass / stream
 * boundary) each instruction belongs to, and whether a pass has
 * already marked it dead. Dataflow facts — defs, uses, per-object
 * layout effects — are not stored; they are recomputed on demand from
 * effectsOf() (src/isa/bbop.h), which keeps the IR trivially
 * consistent under mutation.
 *
 * Lifecycle: StreamBuilder (or StreamIR::lift over a raw instruction
 * vector) produces the IR, runPasses (src/stream/passes.h) mutates it
 * in place, and lower() re-materializes one instruction vector per
 * surviving segment for the executor to dispatch.
 */

#ifndef SIMDRAM_STREAM_STREAM_IR_H
#define SIMDRAM_STREAM_STREAM_IR_H

#include <cstddef>
#include <vector>

#include "isa/bbop.h"

namespace simdram
{

/** One instruction in the IR, with its pass annotations. */
struct StreamNode
{
    BbopInstr instr;
    size_t segment = 0; ///< Which device pass this belongs to.
    bool dead = false;  ///< Set by elisions; skipped by lower().
};

/** A multi-segment bbop program in optimizer form. */
struct StreamIR
{
    std::vector<StreamNode> nodes;
    /** Number of segments; node segments are in [0, segments). */
    size_t segments = 1;

    /** @return @p stream lifted into a single-segment IR. */
    static StreamIR lift(const std::vector<BbopInstr> &stream);

    /**
     * @return One instruction vector per segment, in segment order,
     *         dead nodes skipped. Segments that became empty are
     *         still returned (as empty vectors) so callers can map
     *         results back to submission-order segments.
     */
    std::vector<std::vector<BbopInstr>> lower() const;

    /** @return Number of non-dead nodes. */
    size_t liveCount() const;
};

} // namespace simdram

#endif // SIMDRAM_STREAM_STREAM_IR_H
