/**
 * @file
 * The bbop dispatcher: the programmer-visible execution model.
 *
 * The dispatcher owns an object table (the SIMDRAM memory-object
 * metadata the paper keeps alongside the μProgram memory) and drives
 * a Processor from a stream of bbop instructions, modeling the
 * user/compiler -> memory controller path end to end:
 *
 *   BbopDispatcher d(proc);
 *   auto a = d.defineObject(n, 32);
 *   d.writeObject(a, data);           // host-side (horizontal) write
 *   d.exec(BbopInstr::trsp(a, 32));   // move to vertical layout
 *   ...
 *   d.exec(BbopInstr::binary(OpKind::Add, 32, y, a, b));
 *   d.exec(BbopInstr::trspInv(y, 32));
 *   auto out = d.readObject(y);       // host-side read
 */

#ifndef SIMDRAM_ISA_DISPATCHER_H
#define SIMDRAM_ISA_DISPATCHER_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "exec/processor.h"
#include "isa/bbop.h"
#include "isa/validate.h"

namespace simdram
{

/**
 * Executes bbop instructions against a Processor.
 *
 * Every instruction is validated by the shared BbopValidator
 * (src/isa/validate.cc) before it touches the machine — the same
 * rules the StreamExecutor enforces at stream submission.
 */
class BbopDispatcher : private BbopObjectView
{
  public:
    /** @param proc Processor to drive (borrowed; must outlive). */
    explicit BbopDispatcher(Processor &proc) : proc_(&proc) {}

    /**
     * Registers a memory object of @p elements elements of
     * @p bits bits and returns its object id.
     */
    uint16_t defineObject(size_t elements, size_t bits);

    /**
     * Writes host data into an object's horizontal image. Rejects an
     * element wider than the object with a typed BbopError before
     * any side effect (checkHostData).
     */
    void writeObject(uint16_t id, const std::vector<uint64_t> &data);

    /** @return The object's current horizontal image. */
    const std::vector<uint64_t> &readObject(uint16_t id) const;

    /** Executes one instruction. */
    void exec(const BbopInstr &instr);

    /** Executes an instruction stream in order. */
    void exec(const std::vector<BbopInstr> &stream);

  private:
    struct ObjectInfo
    {
        size_t elements = 0;
        size_t bits = 0;
        std::vector<uint64_t> hostImage;
        Processor::VecHandle vec; ///< Valid once transposed.
        bool vertical = false;
    };

    ObjectInfo &object(uint16_t id);
    const ObjectInfo &object(uint16_t id) const;

    /** Allocates @p obj's vertical backing vector on first write. */
    void ensureVec(ObjectInfo &obj);

    /** Executes an instruction the validator has already accepted. */
    void execValidated(const BbopInstr &instr);

    // BbopObjectView over the object table (for the validator).
    size_t objectCount() const override { return objects_.size(); }
    BbopObjectShape shape(uint16_t id) const override;

    Processor *proc_;
    std::vector<ObjectInfo> objects_;
};

} // namespace simdram

#endif // SIMDRAM_ISA_DISPATCHER_H
