#include "isa/dispatcher.h"

#include "common/error.h"

namespace simdram
{

uint16_t
BbopDispatcher::defineObject(size_t elements, size_t bits)
{
    if (objects_.size() >= kNoObject)
        fatal("BbopDispatcher: object table full");
    ObjectInfo info;
    info.elements = elements;
    info.bits = bits;
    info.hostImage.assign(elements, 0);
    objects_.push_back(std::move(info));
    return static_cast<uint16_t>(objects_.size() - 1);
}

void
BbopDispatcher::writeObject(uint16_t id,
                            const std::vector<uint64_t> &data)
{
    ObjectInfo &obj = object(id);
    if (data.size() != obj.elements)
        fatal("writeObject: element count mismatch");
    checkHostData(data, obj.bits, "writeObject");
    obj.hostImage = data;
    if (obj.vertical) {
        // Keep the vertical copy coherent, as the transposition unit
        // would on a horizontal write to a transposed object.
        proc_->store(obj.vec, obj.hostImage);
    }
}

const std::vector<uint64_t> &
BbopDispatcher::readObject(uint16_t id) const
{
    return object(id).hostImage;
}

BbopObjectShape
BbopDispatcher::shape(uint16_t id) const
{
    const ObjectInfo &obj = objects_[id];
    return {obj.elements, obj.bits, obj.vertical};
}

void
BbopDispatcher::exec(const BbopInstr &instr)
{
    // All rule checking lives in the shared validator.
    BbopValidator validator(*this);
    validator.check(instr);
    execValidated(instr);
}

void
BbopDispatcher::ensureVec(ObjectInfo &obj)
{
    // Instructions that fully write a destination's vertical image
    // (trsp, init, operation and shift dsts) establish the vertical
    // layout themselves — see the layout rules in isa/validate.h —
    // so the backing vector is allocated on first such write.
    if (!obj.vertical) {
        obj.vec = proc_->alloc(obj.elements, obj.bits);
        obj.vertical = true;
    }
}

void
BbopDispatcher::execValidated(const BbopInstr &instr)
{
    switch (instr.opcode) {
      case BbopOpcode::Trsp: {
        ObjectInfo &obj = object(instr.dst);
        ensureVec(obj);
        proc_->store(obj.vec, obj.hostImage);
        return;
      }
      case BbopOpcode::TrspInv: {
        ObjectInfo &obj = object(instr.dst);
        obj.hostImage = proc_->load(obj.vec);
        return;
      }
      case BbopOpcode::Init: {
        ObjectInfo &obj = object(instr.dst);
        ensureVec(obj);
        const uint64_t imm = instr.initImmediate();
        proc_->fillConstant(obj.vec, imm);
        obj.hostImage.assign(obj.elements, imm);
        return;
      }
      case BbopOpcode::ShiftL:
      case BbopOpcode::ShiftR: {
        ObjectInfo &dst_o = object(instr.dst);
        ObjectInfo &src_o = object(instr.src1);
        ensureVec(dst_o);
        const auto amount = static_cast<size_t>(instr.sel);
        if (instr.opcode == BbopOpcode::ShiftL)
            proc_->shiftLeft(dst_o.vec, src_o.vec, amount);
        else
            proc_->shiftRight(dst_o.vec, src_o.vec, amount);
        return;
      }
      case BbopOpcode::Op:
        break;
    }

    ObjectInfo &dst = object(instr.dst);
    ObjectInfo &src1 = object(instr.src1);
    ensureVec(dst);
    const auto sig = signatureOf(instr.op, instr.width);
    if (sig.numInputs == 1) {
        proc_->run(instr.op, dst.vec, src1.vec);
    } else if (!sig.hasSel) {
        ObjectInfo &src2 = object(instr.src2);
        proc_->run(instr.op, dst.vec, src1.vec, src2.vec);
    } else {
        ObjectInfo &src2 = object(instr.src2);
        ObjectInfo &sel = object(instr.sel);
        proc_->run(instr.op, dst.vec, src1.vec, src2.vec, sel.vec);
    }
}

void
BbopDispatcher::exec(const std::vector<BbopInstr> &stream)
{
    // One validator for the whole stream: its layout scratch tracks
    // the same trsp effects execution applies, so each instruction
    // is checked against the state it will actually observe —
    // without re-snapshotting the object table per instruction.
    // Per-instruction semantics are unchanged: a malformed
    // instruction throws after its predecessors executed, exactly
    // like issuing the bbops one at a time.
    BbopValidator validator(*this);
    for (const auto &i : stream) {
        validator.check(i);
        execValidated(i);
    }
}

BbopDispatcher::ObjectInfo &
BbopDispatcher::object(uint16_t id)
{
    if (id >= objects_.size())
        bbopError("BbopDispatcher: unknown object id d" +
                  std::to_string(id));
    return objects_[id];
}

const BbopDispatcher::ObjectInfo &
BbopDispatcher::object(uint16_t id) const
{
    if (id >= objects_.size())
        bbopError("BbopDispatcher: unknown object id d" +
                  std::to_string(id));
    return objects_[id];
}

} // namespace simdram
