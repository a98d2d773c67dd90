#include "dram/subarray.h"

#include <sstream>

#include "common/error.h"

namespace simdram
{

std::string
toString(SpecialRow s)
{
    switch (s) {
      case SpecialRow::C0: return "C0";
      case SpecialRow::C1: return "C1";
      case SpecialRow::T0: return "T0";
      case SpecialRow::T1: return "T1";
      case SpecialRow::T2: return "T2";
      case SpecialRow::T3: return "T3";
      case SpecialRow::DCC0P: return "DCC0P";
      case SpecialRow::DCC0N: return "DCC0N";
      case SpecialRow::DCC1P: return "DCC1P";
      case SpecialRow::DCC1N: return "DCC1N";
    }
    return "?";
}

std::string
toString(const RowAddr &a)
{
    std::ostringstream os;
    switch (a.kind) {
      case RowAddr::Kind::Data:
        os << "D" << a.dataRow;
        break;
      case RowAddr::Kind::Special:
        os << toString(a.special);
        break;
      case RowAddr::Kind::Dual: {
        const auto rows = dualRows(a.dual);
        os << "DUAL(" << toString(rows[0]) << "," << toString(rows[1])
           << ")";
        break;
      }
      case RowAddr::Kind::Triple: {
        const auto rows = tripleRows(a.triple);
        os << "TRA(" << toString(rows[0]) << "," << toString(rows[1])
           << "," << toString(rows[2]) << ")";
        break;
      }
    }
    return os.str();
}

Subarray::Subarray(const DramConfig &cfg)
    : cfg_(cfg),
      data_(cfg.rowsPerSubarray, BitRow(cfg.rowBits)),
      c0_(cfg.rowBits, false),
      c1_(cfg.rowBits, true),
      buffer_(cfg.rowBits)
{
    for (auto &t : t_)
        t = BitRow(cfg.rowBits);
    for (auto &d : dcc_)
        d = BitRow(cfg.rowBits);
}

void
Subarray::activateState(const RowAddr &addr)
{
    if (!buffer_open_) {
        // First activation: charge sharing resolves the bitlines, then
        // the sense amplifiers restore the resolved value into every
        // activated cell. The fast path opens the buffer as a view of
        // the addressed cell (no copy); the reference path is the
        // retained seed implementation that materializes the value.
        if (addr.kind == RowAddr::Kind::Dual)
            panic("activating a dual address from precharged state has "
                  "undefined charge-sharing semantics");
        if (reference_path_) {
            buffer_view_ = nullptr;
            buffer_ = readValue(addr);
            // Keep the retained seed path an honest eager-copy
            // baseline: a read through a row address materializes a
            // fresh unshared row even under CoW storage.
            buffer_.detach();
        } else {
            openBufferFast(addr);
        }
        // Restore is value-preserving for a single row; only a triple
        // activation destroys cell contents (all three rows end up
        // holding the majority value). Injected faults model a
        // charge-sharing failure: the sense amplifiers resolve some
        // bitlines to the wrong value and restore that wrong value.
        if (addr.kind == RowAddr::Kind::Triple) {
            // Both paths materialize the majority into buffer_.
            if (tra_flip_p_ > 0.0) {
                uint64_t flipped = 0;
                for (size_t i = 0; i < buffer_.width(); ++i) {
                    if (fault_rng_.uniform() < tra_flip_p_) {
                        buffer_.set(i, !buffer_.get(i));
                        ++injected_faults_;
                        ++flipped;
                    }
                }
                if (flipped != 0)
                    ++stats_.traFaults;
            }
            if (injector_ != nullptr && injector_->sampleTra()) {
                // Charge sharing failed: one bitline resolved to the
                // wrong value and the sense amplifiers restore that
                // wrong value into all three rows. Rotate the failing
                // bitline so repeated faults don't alias.
                const size_t lane = static_cast<size_t>(
                    injector_->trasFailed() % buffer_.width());
                buffer_.set(lane, !buffer_.get(lane));
                ++injected_faults_;
                ++stats_.traFaults;
            }
            if (reference_path_)
                writeValue(addr, buffer_);
            else
                writeBufferTo(addr);
        }
        buffer_open_ = true;
    } else {
        // Row buffer is open: the sense amplifiers drive the bitlines
        // and overwrite the newly connected cells (RowClone copy).
        if (reference_path_)
            writeValue(addr, buffer_);
        else
            writeBufferTo(addr);
    }
}

void
Subarray::activate(const RowAddr &addr)
{
    activateState(addr);
    if (addr.rowsRaised() > 1)
        ++stats_.multiActivates;
    else
        ++stats_.activates;
    stats_.energyPj += cfg_.actEnergyPj(addr.rowsRaised());
}

void
Subarray::openBufferFast(const RowAddr &addr)
{
    switch (addr.kind) {
      case RowAddr::Kind::Data:
        if (addr.dataRow >= data_.size())
            panic("activate: data row out of range");
        buffer_view_ = &data_[addr.dataRow];
        buffer_view_neg_ = false;
        return;
      case RowAddr::Kind::Special: {
        const auto [cell, negated] = portCell(addr.special);
        buffer_view_ = cell;
        buffer_view_neg_ = negated;
        return;
      }
      case RowAddr::Kind::Triple: {
        buffer_view_ = nullptr;
        const auto rows = tripleRows(addr.triple);
        BitRow::majority3Into(buffer_, specialCell(rows[0]),
                              specialCell(rows[1]),
                              specialCell(rows[2]));
        return;
      }
      case RowAddr::Kind::Dual:
      default:
        panic("openBufferFast: unsupported address kind");
    }
}

void
Subarray::materializeBuffer() const
{
    if (buffer_view_ == nullptr)
        return;
    if (buffer_view_neg_)
        buffer_.assignNot(*buffer_view_);
    else
        buffer_view_->aapInto(buffer_);
    buffer_view_ = nullptr;
    buffer_view_neg_ = false;
}

void
Subarray::readBufferInto(BitRow &dst, bool negate)
{
    // A negation-parity mismatch on the viewed cell itself would
    // change the cell the view reads from; collapse the view first.
    if (buffer_view_ == &dst && negate != buffer_view_neg_)
        materializeBuffer();
    const BitRow *src = buffer_view_ != nullptr ? buffer_view_
                                                : &buffer_;
    const bool neg =
        buffer_view_ != nullptr ? (negate != buffer_view_neg_)
                                : negate;
    if (neg)
        dst.assignNot(*src);
    else
        src->aapInto(dst);
}

void
Subarray::writeBufferTo(const RowAddr &addr)
{
    switch (addr.kind) {
      case RowAddr::Kind::Data:
        if (addr.dataRow >= data_.size())
            panic("activate: data row out of range");
        readBufferInto(data_[addr.dataRow], false);
        return;
      case RowAddr::Kind::Special:
        writeSpecialFromBuffer(addr.special);
        return;
      case RowAddr::Kind::Dual: {
        const auto rows = dualRows(addr.dual);
        for (SpecialRow s : rows)
            writeSpecialFromBuffer(s);
        return;
      }
      case RowAddr::Kind::Triple: {
        const auto rows = tripleRows(addr.triple);
        for (SpecialRow s : rows)
            writeSpecialFromBuffer(s);
        return;
      }
    }
}

void
Subarray::writeSpecialFromBuffer(SpecialRow s)
{
    if (s == SpecialRow::C0 || s == SpecialRow::C1) {
        // The row decoder never drives the constant rows from the
        // sense amplifiers; a write here is a compiler bug.
        panic("writeSpecial: constant rows are read-only");
    }
    const auto [cell, negated] = portCell(s);
    readBufferInto(*cell, negated);
}

void
Subarray::enableTraFaults(double flip_probability, uint64_t seed)
{
    tra_flip_p_ = flip_probability;
    fault_rng_ = Rng(seed);
    injected_faults_ = 0;
}

void
Subarray::precharge()
{
    buffer_open_ = false;
    ++stats_.precharges;
    stats_.energyPj += cfg_.preEnergyPj();
}

void
Subarray::aap(const RowAddr &src, const RowAddr &dst)
{
    activate(src);
    activate(dst);
    precharge();
    ++stats_.aaps;
    stats_.latencyNs += cfg_.timing.aapNs();
}

void
Subarray::ap(const RowAddr &addr)
{
    activate(addr);
    precharge();
    ++stats_.aps;
    stats_.latencyNs += cfg_.timing.apNs();
}

void
Subarray::aapFunctional(const RowAddr &src, const RowAddr &dst)
{
    activateState(src);
    activateState(dst);
    buffer_open_ = false;
}

void
Subarray::apFunctional(const RowAddr &addr)
{
    activateState(addr);
    buffer_open_ = false;
}

Subarray::Cells
Subarray::replayCells()
{
    buffer_view_ = nullptr;
    buffer_view_neg_ = false;
    buffer_open_ = false;
    return Cells{data_.data(), t_, dcc_, &c0_, &c1_};
}

const BitRow &
Subarray::peekData(size_t row) const
{
    if (row >= data_.size())
        panic("peekData: row out of range");
    return data_[row];
}

void
Subarray::pokeData(size_t row, const BitRow &value)
{
    if (row >= data_.size())
        panic("pokeData: row out of range");
    if (value.width() != cfg_.rowBits)
        panic("pokeData: width mismatch");
    // The row buffer may be a view of this cell; snapshot it first.
    materializeBuffer();
    data_[row] = value;
}

BitRow &
Subarray::pokeDataRow(size_t row)
{
    if (row >= data_.size())
        panic("pokeDataRow: row out of range");
    materializeBuffer();
    return data_[row];
}

BitRow
Subarray::peek(SpecialRow s) const
{
    return readSpecial(s);
}

void
Subarray::poke(SpecialRow s, const BitRow &value)
{
    materializeBuffer();
    writeSpecial(s, value);
}

BitRow
Subarray::readValue(const RowAddr &addr) const
{
    // Reference-path reads materialize eager copies (clone()), as
    // the seed's by-value reads did before CoW storage.
    switch (addr.kind) {
      case RowAddr::Kind::Data:
        if (addr.dataRow >= data_.size())
            panic("activate: data row out of range");
        return data_[addr.dataRow].clone();
      case RowAddr::Kind::Special:
        return readSpecial(addr.special).clone();
      case RowAddr::Kind::Triple: {
        const auto rows = tripleRows(addr.triple);
        return BitRow::majority3(readSpecial(rows[0]).clone(),
                                 readSpecial(rows[1]).clone(),
                                 readSpecial(rows[2]).clone());
      }
      case RowAddr::Kind::Dual:
      default:
        panic("readValue: unsupported address kind");
    }
}

const BitRow &
Subarray::specialCell(SpecialRow s) const
{
    switch (s) {
      case SpecialRow::C0:
        return c0_;
      case SpecialRow::C1:
        return c1_;
      case SpecialRow::T0:
        return t_[0];
      case SpecialRow::T1:
        return t_[1];
      case SpecialRow::T2:
        return t_[2];
      case SpecialRow::T3:
        return t_[3];
      case SpecialRow::DCC0P:
        return dcc_[0];
      case SpecialRow::DCC1P:
        return dcc_[1];
      case SpecialRow::DCC0N:
      case SpecialRow::DCC1N:
        break;
    }
    panic("specialCell: negated port has no direct cell");
}

BitRow &
Subarray::specialCellMut(SpecialRow s)
{
    return const_cast<BitRow &>(
        static_cast<const Subarray *>(this)->specialCell(s));
}

std::pair<BitRow *, bool>
Subarray::portCell(SpecialRow s)
{
    switch (s) {
      case SpecialRow::DCC0N:
        return {&dcc_[0], true};
      case SpecialRow::DCC1N:
        return {&dcc_[1], true};
      default:
        return {&specialCellMut(s), false};
    }
}

void
Subarray::writeValue(const RowAddr &addr, const BitRow &v)
{
    // Reference-path writes stay eager word-for-word copies
    // (copyFrom/assignNot), preserving the seed cost model.
    switch (addr.kind) {
      case RowAddr::Kind::Data:
        if (addr.dataRow >= data_.size())
            panic("activate: data row out of range");
        data_[addr.dataRow].copyFrom(v);
        break;
      case RowAddr::Kind::Special:
        writeSpecial(addr.special, v);
        break;
      case RowAddr::Kind::Dual: {
        const auto rows = dualRows(addr.dual);
        for (SpecialRow s : rows)
            writeSpecial(s, v);
        break;
      }
      case RowAddr::Kind::Triple: {
        const auto rows = tripleRows(addr.triple);
        for (SpecialRow s : rows)
            writeSpecial(s, v);
        break;
      }
    }
}

BitRow
Subarray::readSpecial(SpecialRow s) const
{
    switch (s) {
      case SpecialRow::C0:
        return c0_;
      case SpecialRow::C1:
        return c1_;
      case SpecialRow::T0:
        return t_[0];
      case SpecialRow::T1:
        return t_[1];
      case SpecialRow::T2:
        return t_[2];
      case SpecialRow::T3:
        return t_[3];
      case SpecialRow::DCC0P:
        return dcc_[0];
      case SpecialRow::DCC0N:
        return ~dcc_[0];
      case SpecialRow::DCC1P:
        return dcc_[1];
      case SpecialRow::DCC1N:
        return ~dcc_[1];
    }
    panic("readSpecial: bad row");
}

void
Subarray::writeSpecial(SpecialRow s, const BitRow &v)
{
    switch (s) {
      case SpecialRow::C0:
      case SpecialRow::C1:
        // The row decoder never drives the constant rows from the
        // sense amplifiers; a write here is a compiler bug.
        panic("writeSpecial: constant rows are read-only");
      case SpecialRow::T0:
        t_[0].copyFrom(v);
        return;
      case SpecialRow::T1:
        t_[1].copyFrom(v);
        return;
      case SpecialRow::T2:
        t_[2].copyFrom(v);
        return;
      case SpecialRow::T3:
        t_[3].copyFrom(v);
        return;
      case SpecialRow::DCC0P:
        dcc_[0].copyFrom(v);
        return;
      case SpecialRow::DCC0N:
        dcc_[0].assignNot(v);
        return;
      case SpecialRow::DCC1P:
        dcc_[1].copyFrom(v);
        return;
      case SpecialRow::DCC1N:
        dcc_[1].assignNot(v);
        return;
    }
    panic("writeSpecial: bad row");
}

} // namespace simdram
