/**
 * @file
 * Tests for the bbop ISA: encoding round-trips, assembly printing,
 * and the dispatcher's end-to-end execution model.
 */

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"
#include "isa/dispatcher.h"
#include "malformed_corpus.h"
#include "runtime/stream_executor.h"

namespace simdram
{
namespace
{

TEST(Bbop, EncodeDecodeRoundTripAllOps)
{
    for (OpKind op : kAllOps) {
        const BbopInstr i =
            BbopInstr::predicated(op, 32, 1, 2, 3, 4);
        const BbopInstr back = decodeBbop(encodeBbop(i));
        EXPECT_EQ(back, i) << toString(op);
    }
}

TEST(Bbop, EncodeDecodeTranspose)
{
    const BbopInstr t = BbopInstr::trsp(100, 16);
    EXPECT_EQ(decodeBbop(encodeBbop(t)), t);
    const BbopInstr ti = BbopInstr::trspInv(100, 16);
    EXPECT_EQ(decodeBbop(encodeBbop(ti)), ti);
}

TEST(Bbop, FieldsSurviveExtremes)
{
    BbopInstr i = BbopInstr::binary(OpKind::XorRed, 64, 0xffe,
                                    0, 0xffe);
    const BbopInstr back = decodeBbop(encodeBbop(i));
    EXPECT_EQ(back.dst, 0xffe);
    EXPECT_EQ(back.width, 64);
}

TEST(Bbop, EncodeRejectsBadWidth)
{
    BbopInstr i = BbopInstr::trsp(0, 16);
    i.width = 0;
    EXPECT_THROW(encodeBbop(i), FatalError);
    i.width = 100;
    EXPECT_THROW(encodeBbop(i), FatalError);
}

TEST(Bbop, AsmForms)
{
    EXPECT_EQ(toAsm(BbopInstr::trsp(3, 32)), "bbop_trsp.32 d3");
    EXPECT_EQ(toAsm(BbopInstr::binary(OpKind::Add, 32, 2, 0, 1)),
              "bbop_add.32 d2, d0, d1");
    EXPECT_EQ(toAsm(BbopInstr::unary(OpKind::Relu, 8, 1, 0)),
              "bbop_relu.8 d1, d0");
    EXPECT_EQ(
        toAsm(BbopInstr::predicated(OpKind::IfElse, 16, 3, 0, 1, 2)),
        "bbop_if_else.16 d3, d0, d1, d2");
}

class DispatcherTest : public ::testing::Test
{
  protected:
    DispatcherTest()
        : proc_(DramConfig::forTesting(256, 512)), disp_(proc_)
    {
    }

    Processor proc_;
    BbopDispatcher disp_;
};

TEST_F(DispatcherTest, EndToEndAddProgram)
{
    const size_t n = 300;
    Rng rng(5);
    std::vector<uint64_t> da(n), db(n);
    for (size_t i = 0; i < n; ++i) {
        da[i] = rng.next() & 0xffff;
        db[i] = rng.next() & 0xffff;
    }

    const uint16_t a = disp_.defineObject(n, 16);
    const uint16_t b = disp_.defineObject(n, 16);
    const uint16_t y = disp_.defineObject(n, 16);
    disp_.writeObject(a, da);
    disp_.writeObject(b, db);

    disp_.exec({BbopInstr::trsp(a, 16), BbopInstr::trsp(b, 16),
                BbopInstr::trsp(y, 16),
                BbopInstr::binary(OpKind::Add, 16, y, a, b),
                BbopInstr::trspInv(y, 16)});

    const auto &out = disp_.readObject(y);
    for (size_t i = 0; i < n; ++i)
        ASSERT_EQ(out[i], (da[i] + db[i]) & 0xffff) << i;
}

TEST_F(DispatcherTest, OpOnHorizontalObjectRejected)
{
    const uint16_t a = disp_.defineObject(8, 8);
    const uint16_t y = disp_.defineObject(8, 8);
    disp_.exec(BbopInstr::trsp(y, 8));
    EXPECT_THROW(disp_.exec(BbopInstr::unary(OpKind::Relu, 8, y, a)),
                 FatalError);
}

TEST_F(DispatcherTest, TrspInvBeforeTrspRejected)
{
    const uint16_t a = disp_.defineObject(8, 8);
    EXPECT_THROW(disp_.exec(BbopInstr::trspInv(a, 8)), FatalError);
}

TEST_F(DispatcherTest, TrspWidthMismatchRejected)
{
    const uint16_t a = disp_.defineObject(8, 8);
    EXPECT_THROW(disp_.exec(BbopInstr::trsp(a, 16)), FatalError);
}

TEST_F(DispatcherTest, BadObjectIdRejectedTyped)
{
    // Unknown object ids surface as the typed BbopError (a subtype
    // of FatalError), so stream-level machinery can tell a malformed
    // stream apart from other fatal conditions.
    EXPECT_THROW(disp_.exec(BbopInstr::trsp(999, 8)), BbopError);
    EXPECT_THROW(disp_.exec(BbopInstr::binary(OpKind::Add, 8, 0,
                                              500, 501)),
                 BbopError);
}

TEST_F(DispatcherTest, UnknownOpcodeRejectedNotSilentlyRun)
{
    // The seed dispatcher fell through to the Op path on opcodes it
    // did not know; they must be rejected instead.
    const uint16_t a = disp_.defineObject(8, 8);
    const uint16_t y = disp_.defineObject(8, 8);
    disp_.exec(BbopInstr::trsp(a, 8));
    disp_.exec(BbopInstr::trsp(y, 8));
    BbopInstr bogus = BbopInstr::unary(OpKind::Relu, 8, y, a);
    bogus.opcode = static_cast<BbopOpcode>(9);
    EXPECT_THROW(disp_.exec(bogus), BbopError);
    BbopInstr bad_op = BbopInstr::unary(OpKind::Relu, 8, y, a);
    bad_op.op = static_cast<OpKind>(31);
    EXPECT_THROW(disp_.exec(bad_op), BbopError);
}

TEST_F(DispatcherTest, OpWidthMismatchRejected)
{
    const uint16_t a = disp_.defineObject(8, 8);
    const uint16_t y = disp_.defineObject(8, 8);
    disp_.exec(BbopInstr::trsp(a, 8));
    disp_.exec(BbopInstr::trsp(y, 8));
    // The instruction width must match the source object; the seed
    // silently priced the program at the object's width instead.
    EXPECT_THROW(disp_.exec(BbopInstr::unary(OpKind::Relu, 16, y,
                                             a)),
                 BbopError);
    // And the destination must match the operation's output width:
    // a comparison writes a 1-bit mask, not an 8-bit object.
    const uint16_t b = disp_.defineObject(8, 8);
    disp_.exec(BbopInstr::trsp(b, 8));
    EXPECT_THROW(disp_.exec(BbopInstr::binary(OpKind::Gt, 8, y, a,
                                              b)),
                 BbopError);
    // A second-source width mismatch is typed too.
    const uint16_t c16 = disp_.defineObject(8, 16);
    disp_.exec(BbopInstr::trsp(c16, 16));
    EXPECT_THROW(disp_.exec(BbopInstr::binary(OpKind::Add, 8, y, a,
                                              c16)),
                 BbopError);
}

TEST_F(DispatcherTest, InitShiftAndInPlaceValidated)
{
    const uint16_t a = disp_.defineObject(8, 8);
    const uint16_t b = disp_.defineObject(8, 8);
    const uint16_t w16 = disp_.defineObject(8, 16);
    disp_.exec(BbopInstr::trsp(a, 8));
    disp_.exec(BbopInstr::trsp(b, 8));
    disp_.exec(BbopInstr::trsp(w16, 16));
    // Init immediate wider than the object.
    EXPECT_THROW(disp_.exec(BbopInstr::init(a, 8, 0x100)),
                 BbopError);
    // Shift shape mismatch, in-place shift, and width mismatch.
    EXPECT_THROW(disp_.exec(BbopInstr::shift(true, 8, w16, a, 1)),
                 BbopError);
    EXPECT_THROW(disp_.exec(BbopInstr::shift(true, 8, a, a, 1)),
                 BbopError);
    EXPECT_THROW(disp_.exec(BbopInstr::shift(true, 16, a, b, 1)),
                 BbopError);
    // In-place operation.
    EXPECT_THROW(disp_.exec(BbopInstr::binary(OpKind::Add, 8, a,
                                              a, b)),
                 BbopError);
    // TrspInv width mismatch.
    EXPECT_THROW(disp_.exec(BbopInstr::trspInv(a, 16)), BbopError);
}

TEST(BbopDecode, MalformedEncodingsRejectedTyped)
{
    // Unknown opcode bits.
    EXPECT_THROW(decodeBbop(0xf), BbopError);
    // Op instruction with an operation field beyond OpKind.
    const uint64_t bad_op =
        encodeBbop(BbopInstr::binary(OpKind::Add, 8, 0, 1, 2)) |
        (uint64_t{0x1f} << 4);
    EXPECT_THROW(decodeBbop(bad_op), BbopError);
    // Width 0 and width > 64.
    uint64_t w = encodeBbop(BbopInstr::trsp(3, 16));
    w &= ~(uint64_t{0x7f} << 9);
    EXPECT_THROW(decodeBbop(w), BbopError);
    w |= uint64_t{100} << 9;
    EXPECT_THROW(decodeBbop(w), BbopError);
    // Valid encodings still round-trip.
    const BbopInstr ok = BbopInstr::binary(OpKind::Add, 8, 0, 1, 2);
    EXPECT_EQ(decodeBbop(encodeBbop(ok)), ok);
}

// ---------------------------------------------------------------
// Validator unification: both entry points (the dispatcher and the
// stream executor) run the same BbopValidator, so every malformed
// stream must be rejected with the same typed BbopError by both.
// ---------------------------------------------------------------

/**
 * Runs @p stream through both paths against identically shaped
 * object tables (two 8-bit, one 16-bit, one 1-bit object of @p n
 * elements, plus one 8-bit object of n/2 elements) and returns
 * {dispatcher error, executor error} ("" = accepted).
 */
std::pair<std::string, std::string>
rejectionOnBothPaths(const std::vector<BbopInstr> &stream)
{
    const DramConfig cfg = DramConfig::forTesting(256, 512);

    Processor proc(cfg);
    BbopDispatcher disp(proc);
    DeviceGroup group(cfg, 2);
    StreamExecutor ex(group);
    for (auto [elements, bits] : testcorpus::corpusShapes()) {
        disp.defineObject(elements, bits);
        ex.defineObject(elements, bits);
    }

    std::string disp_err, ex_err;
    try {
        for (const BbopInstr &i : stream)
            disp.exec(i);
    } catch (const BbopError &e) {
        disp_err = e.what();
    }
    try {
        ex.submit(stream).wait();
    } catch (const BbopError &e) {
        ex_err = e.what();
    }
    return {disp_err, ex_err};
}

TEST(ValidatorUnification, MalformedStreamsRejectIdenticallyTyped)
{
    // The corpus lives in malformed_corpus.h (one stream per rule
    // family, same shared object table) so analysis_test can run the
    // analyzer-vs-validator differential over the identical streams.
    const auto &bad = testcorpus::malformedStreams();

    for (size_t s = 0; s < bad.size(); ++s) {
        const auto [disp_err, ex_err] = rejectionOnBothPaths(bad[s]);
        EXPECT_FALSE(disp_err.empty())
            << "stream " << s << " accepted by the dispatcher";
        EXPECT_FALSE(ex_err.empty())
            << "stream " << s << " accepted by the stream executor";
        EXPECT_EQ(disp_err, ex_err) << "stream " << s;
    }
}

TEST(ValidatorUnification, InitWidthMismatchRejectedByBothPaths)
{
    // Regression for the gap unification surfaced: bbop_init was the
    // only opcode whose width field was never checked against the
    // object, so both paths accepted a bbop_init.8 on a 16-bit
    // object. They must now throw the same BbopError.
    const std::vector<BbopInstr> stream = {
        BbopInstr::trsp(2, 16), // d2 is the 16-bit object
        BbopInstr::init(2, 8, 5),
    };
    const auto [disp_err, ex_err] = rejectionOnBothPaths(stream);
    EXPECT_FALSE(disp_err.empty());
    EXPECT_EQ(disp_err, ex_err);
    EXPECT_NE(disp_err.find("bbop_init: width mismatch"),
              std::string::npos)
        << disp_err;
}

TEST(ValidatorUnification, ValidStreamsAcceptedByBothPaths)
{
    for (const auto &ok : testcorpus::wellFormedStreams()) {
        const auto [disp_err, ex_err] = rejectionOnBothPaths(ok);
        EXPECT_EQ(disp_err, "");
        EXPECT_EQ(ex_err, "");
    }
}

TEST(ValidatorUnification, FullVerticalWritesEstablishLayout)
{
    // Relaxed layout rules (isa/validate.h): init, op and shift
    // destinations fully write the vertical image, so they ESTABLISH
    // the vertical layout rather than requiring it — that is what
    // lets the stream optimizer drop a trsp whose image is
    // overwritten before being read. Reads still require it, so a
    // stream whose first touch of an object is a READ stays rejected
    // (see the trspInv / op-source cases in the bad list above).
    // Every destination below is an object nothing transposed:
    // d0 via a shift, d3 via an op, d2 via an init; trsp_inv then
    // READS the op-established d3.
    const std::vector<BbopInstr> ok = {
        BbopInstr::trsp(1, 8),
        BbopInstr::shift(true, 8, 0, 1, 2),
        BbopInstr::binary(OpKind::Gt, 8, 3, 0, 1),
        BbopInstr::init(2, 16, 7),
        BbopInstr::trspInv(3, 1),
    };
    const auto [disp_err, ex_err] = rejectionOnBothPaths(ok);
    EXPECT_EQ(disp_err, "");
    EXPECT_EQ(ex_err, "");

    // Both paths produce the written image, not stale data: an
    // init-first object reads back its constant on the dispatcher
    // and the executor alike.
    const size_t n = 12;
    const DramConfig cfg = DramConfig::forTesting(256, 512);
    Processor proc(cfg);
    BbopDispatcher disp(proc);
    DeviceGroup group(cfg, 2);
    StreamExecutor ex(group);
    disp.defineObject(n, 8);
    ex.defineObject(n, 8);
    const std::vector<BbopInstr> s = {
        BbopInstr::init(0, 8, 42),
        BbopInstr::trspInv(0, 8),
    };
    for (const BbopInstr &i : s)
        disp.exec(i);
    ex.submit(s).wait();
    EXPECT_EQ(disp.readObject(0), std::vector<uint64_t>(n, 42));
    EXPECT_EQ(ex.readObject(0), std::vector<uint64_t>(n, 42));
}

TEST(ValidatorUnification, WideHostDataRejectedByBothWriters)
{
    // One host-data rule (checkHostData) for both writeObject entry
    // points: an element with a bit at or above the object's width
    // is a typed BbopError and leaves the host image untouched; the
    // widest in-range value and 64-bit objects pass.
    const size_t n = 16;
    const DramConfig cfg = DramConfig::forTesting(256, 512);
    Processor proc(cfg);
    BbopDispatcher disp(proc);
    DeviceGroup group(cfg, 2);
    StreamExecutor ex(group);
    const uint16_t a = disp.defineObject(n, 8);
    ASSERT_EQ(ex.defineObject(n, 8), a);
    const uint16_t w = disp.defineObject(n, 64);
    ASSERT_EQ(ex.defineObject(n, 64), w);

    const std::vector<uint64_t> ok(n, 0xff);
    disp.writeObject(a, ok);
    ex.writeObject(a, ok);
    std::vector<uint64_t> wide = ok;
    wide[n - 1] = 0x100;
    EXPECT_THROW(disp.writeObject(a, wide), BbopError);
    EXPECT_THROW(ex.writeObject(a, wide), BbopError);
    EXPECT_EQ(disp.readObject(a), ok);
    EXPECT_EQ(ex.readObject(a), ok);

    const std::vector<uint64_t> full(n, ~0ULL);
    disp.writeObject(w, full);
    ex.writeObject(w, full);
    EXPECT_EQ(disp.readObject(w), full);
    EXPECT_EQ(ex.readObject(w), full);
}

TEST_F(DispatcherTest, WriteKeepsVerticalCoherent)
{
    const size_t n = 10;
    const uint16_t a = disp_.defineObject(n, 8);
    const uint16_t y = disp_.defineObject(n, 8);
    disp_.writeObject(a, std::vector<uint64_t>(n, 1));
    disp_.exec(BbopInstr::trsp(a, 8));
    disp_.exec(BbopInstr::trsp(y, 8));
    // Rewriting after transposition updates the vertical copy.
    disp_.writeObject(a, std::vector<uint64_t>(n, 9));
    disp_.exec(BbopInstr::unary(OpKind::Relu, 8, y, a));
    disp_.exec(BbopInstr::trspInv(y, 8));
    EXPECT_EQ(disp_.readObject(y), std::vector<uint64_t>(n, 9));
}

} // namespace
} // namespace simdram
