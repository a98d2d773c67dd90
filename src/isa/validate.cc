#include "isa/validate.h"

#include <string>

namespace simdram
{

BbopValidator::BbopValidator(const BbopObjectView &view)
    : view_(&view)
{
    const size_t n = view.objectCount();
    vert_.resize(n);
    for (size_t i = 0; i < n; ++i)
        vert_[i] = view.shape(static_cast<uint16_t>(i)).vertical;
}

BbopObjectShape
BbopValidator::shapeOf(uint16_t id) const
{
    if (id >= view_->objectCount())
        bbopError("bbop: unknown object id d" + std::to_string(id));
    return view_->shape(id);
}

void
BbopValidator::check(const BbopInstr &in)
{
    if (in.width == 0 || in.width > 64)
        bbopError("bbop: element width " +
                  std::to_string(int{in.width}) + " outside [1, 64]");

    switch (in.opcode) {
      case BbopOpcode::Trsp: {
        const BbopObjectShape dst = shapeOf(in.dst);
        if (in.width != dst.bits)
            bbopError("bbop_trsp: width mismatch with object");
        vert_[in.dst] = true;
        return;
      }
      case BbopOpcode::TrspInv: {
        const BbopObjectShape dst = shapeOf(in.dst);
        if (!vert_[in.dst])
            bbopError("bbop_trsp_inv: object is not vertical");
        if (in.width != dst.bits)
            bbopError("bbop_trsp_inv: width mismatch with object");
        return;
      }
      case BbopOpcode::Init: {
        const BbopObjectShape dst = shapeOf(in.dst);
        // Unification fix: bbop_init was the only opcode that never
        // checked its width field against the object — both the
        // dispatcher and the stream executor accepted e.g. a
        // bbop_init.8 on a 16-bit object. Reject it like every other
        // opcode does.
        if (in.width != dst.bits)
            bbopError("bbop_init: width mismatch with object");
        const uint64_t imm = in.initImmediate();
        if (dst.bits < 64 && (imm >> dst.bits) != 0)
            bbopError("bbop_init: immediate wider than the object");
        vert_[in.dst] = true;
        return;
      }
      case BbopOpcode::ShiftL:
      case BbopOpcode::ShiftR: {
        const BbopObjectShape dst = shapeOf(in.dst);
        const BbopObjectShape src = shapeOf(in.src1);
        if (!vert_[in.src1])
            bbopError("bbop_sh*: source object is not vertical");
        if (in.dst == in.src1)
            bbopError("bbop_sh*: in-place shift is not supported");
        if (dst.bits != src.bits || dst.elements != src.elements)
            bbopError("bbop_sh*: shape mismatch");
        if (in.width != dst.bits)
            bbopError("bbop_sh*: width mismatch with objects");
        vert_[in.dst] = true;
        return;
      }
      case BbopOpcode::Op:
        break;
      default:
        // A BbopInstr built from a raw opcode value (decodeBbop
        // rejects these already) must not fall through to the Op
        // rules below.
        bbopError("bbop: unknown opcode " +
                  std::to_string(static_cast<int>(in.opcode)));
    }

    if (static_cast<size_t>(in.op) >= kOpKindCount)
        bbopError("bbop: unknown operation " +
                  std::to_string(static_cast<int>(in.op)));

    const OpSignature sig = signatureOf(in.op, in.width);
    const BbopObjectShape dst = shapeOf(in.dst);
    const BbopObjectShape src1 = shapeOf(in.src1);
    if (!vert_[in.src1])
        bbopError("bbop: source object is not vertical");
    if (in.width != src1.bits)
        bbopError("bbop: instruction width " +
                  std::to_string(int{in.width}) +
                  " does not match source object width " +
                  std::to_string(src1.bits));
    if (dst.bits != sig.outWidth)
        bbopError("bbop: destination object must be " +
                  std::to_string(sig.outWidth) + " bits wide");
    if (in.dst == in.src1 ||
        (sig.numInputs == 2 && in.dst == in.src2) ||
        (sig.hasSel && in.dst == in.sel))
        bbopError("bbop: in-place execution is not supported");
    if (src1.elements != dst.elements)
        bbopError("bbop: operand element counts differ");

    if (sig.numInputs == 2) {
        const BbopObjectShape src2 = shapeOf(in.src2);
        if (!vert_[in.src2])
            bbopError("bbop: source object is not vertical");
        if (src2.bits != in.width)
            bbopError("bbop: operand width mismatch");
        if (src2.elements != dst.elements)
            bbopError("bbop: operand element counts differ");
    }
    if (sig.hasSel) {
        const BbopObjectShape sel = shapeOf(in.sel);
        if (!vert_[in.sel])
            bbopError("bbop: predicate object is not vertical");
        if (sel.bits != 1)
            bbopError("bbop: predicate must be 1 bit wide");
        if (sel.elements != dst.elements)
            bbopError("bbop: operand element counts differ");
    }
    vert_[in.dst] = true;
}

void
checkHostData(const std::vector<uint64_t> &data, size_t bits,
              const char *who)
{
    if (bits >= 64)
        return;
    uint64_t any = 0;
    for (const uint64_t v : data)
        any |= v;
    if ((any >> bits) == 0)
        return;
    size_t i = 0;
    while ((data[i] >> bits) == 0)
        ++i;
    bbopError(std::string(who) + ": element " + std::to_string(i) +
              " is wider than the object's " + std::to_string(bits) +
              " bits");
}

} // namespace simdram
