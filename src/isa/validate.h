/**
 * @file
 * THE implementation of the bbop validation rules.
 *
 * The bbop ISA is the contract between the host and the DRAM
 * substrate, and the rules that police it (width ranges, trsp/shift
 * shapes, unknown ids, operation signatures, layout state) must be
 * identical wherever an instruction can enter the machine. Both entry
 * points — the synchronous BbopDispatcher and the asynchronous
 * StreamExecutor — validate through the BbopValidator below; there is
 * deliberately no other copy of these checks in the tree.
 *
 * The validator sees object tables through the small BbopObjectView
 * interface (id -> {elements, bits, vertical}), so it does not care
 * whether objects live on one Processor or are sharded across a
 * DeviceGroup. It is stateful: layout effects of validated
 * instructions are tracked in a scratch copy seeded from the view,
 * which lets a caller validate a whole stream atomically — against
 * the state each instruction will actually observe — and commit the
 * resulting layout only if every instruction passed.
 *
 * Layout rules: every instruction that READS a vertical image
 * (bbop_trsp_inv, operation/shift sources, predicates) requires its
 * operand to be vertical, but any instruction that fully WRITES a
 * destination's vertical image (bbop_trsp, bbop_init, operation and
 * shift destinations) establishes the vertical layout itself — the
 * write covers every bit of the image, so a later vertical read can
 * never observe untransposed data. This is what lets the stream
 * optimizer passes (src/stream) drop a bbop_trsp whose result is
 * overwritten before any read without invalidating the program.
 */

#ifndef SIMDRAM_ISA_VALIDATE_H
#define SIMDRAM_ISA_VALIDATE_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "isa/bbop.h"

namespace simdram
{

/** Shape and layout state of one bbop object, as validation sees it. */
struct BbopObjectShape
{
    size_t elements = 0; ///< Element count.
    size_t bits = 0;     ///< Element width in bits.
    bool vertical = false; ///< True once transposed to bit-serial layout.
};

/**
 * Read-only view of a bbop object table. Implemented by every owner
 * of such a table (BbopDispatcher, StreamExecutor) to hand its
 * objects to the shared BbopValidator.
 */
class BbopObjectView
{
  public:
    virtual ~BbopObjectView() = default;

    /** @return Number of defined objects (ids are [0, count)). */
    virtual size_t objectCount() const = 0;

    /**
     * @return Shape of object @p id. Only called with
     *         id < objectCount(); unknown ids are rejected by the
     *         validator before this is reached.
     */
    virtual BbopObjectShape shape(uint16_t id) const = 0;
};

/**
 * Validates bbop instructions against a BbopObjectView.
 *
 * Construction snapshots the view's layout state; check() validates
 * one instruction against that evolving snapshot and applies its
 * layout effect, throwing the typed BbopError on the first rule
 * violation. The underlying table is never touched, so a caller can
 * reject a whole stream atomically and commit layout() on success.
 */
class BbopValidator
{
  public:
    /** @param view Object table to validate against (borrowed). */
    explicit BbopValidator(const BbopObjectView &view);

    /**
     * Validates @p instr and, on success, records its layout effect.
     * Throws BbopError iff the instruction is malformed. Callers
     * validating a whole stream call this per instruction on one
     * validator, so each instruction is checked against the state
     * its predecessors will have produced.
     */
    void check(const BbopInstr &instr);

    /**
     * @return Per-object vertical flags after every instruction
     *         validated so far (the state to commit on acceptance).
     */
    const std::vector<bool> &layout() const { return vert_; }

  private:
    /** @return @p id's shape; throws BbopError on unknown ids. */
    BbopObjectShape shapeOf(uint16_t id) const;

    const BbopObjectView *view_;
    /** Scratch layout state; see class comment. */
    std::vector<bool> vert_;
};

/**
 * Rejects host data for an object of @p bits-bit elements: throws
 * the typed BbopError, prefixed with @p who, if any element has a bit
 * set at or above @p bits. This is the horizontal-side twin of
 * bbop_init's immediate rule, and every host write into a bbop object
 * (both writeObject entry points, the request coalescer's inputs and
 * shared data) applies it before any side effect. A too-wide element
 * would otherwise read back whole while its object stays horizontal,
 * but truncated once it is transposed, so eliding a transposition
 * (the stream cache, trsp hoisting) would change results.
 */
void checkHostData(const std::vector<uint64_t> &data, size_t bits,
                   const char *who);

} // namespace simdram

#endif // SIMDRAM_ISA_VALIDATE_H
