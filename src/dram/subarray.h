/**
 * @file
 * Functional + cost model of one SIMDRAM compute subarray.
 *
 * The subarray holds regular data rows plus the special rows described
 * in address.h. It models the analog behaviour of processing-using-DRAM
 * at the bit level:
 *
 *  - Activating a single row from the precharged state latches the row
 *    value into the row buffer (sense amplifiers) and restores it into
 *    the cells.
 *  - Activating a *triple* address from the precharged state performs
 *    charge sharing between three cells per bitline; the sense
 *    amplifier resolves to the majority value, which is then restored
 *    into *all three* rows (their previous contents are destroyed) and
 *    remains in the row buffer. This is the MAJ primitive.
 *  - Activating any address while the row buffer is already open makes
 *    the sense amplifiers drive the bitlines, overwriting the addressed
 *    cells with the buffer contents (the RowClone FPM copy mechanism).
 *  - Dual-contact cells expose a negative port that reads/writes the
 *    complement (in-DRAM NOT).
 *
 * Command-count, latency, and energy statistics accumulate into an
 * internal DramStats; latency accumulates serially, which is correct
 * within a subarray (and within a bank, which serializes subarrays).
 *
 * Data movement rides on BitRow's copy-on-write storage: a RowClone
 * copy (plain AAP) aliases the source row's payload in O(1), and a
 * TRA restores its majority into the three rows as aliases of one
 * payload — the accounting above is untouched (stats describe the
 * modeled commands, not host copies). The retained reference path
 * opts out with explicit eager copies so it remains the seed-cost
 * baseline. Batched μProgram replay bypasses the command interface
 * through replayCells() (see exec/replay_plan.h).
 */

#ifndef SIMDRAM_DRAM_SUBARRAY_H
#define SIMDRAM_DRAM_SUBARRAY_H

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/bitrow.h"
#include "common/rng.h"
#include "common/stats.h"
#include "dram/address.h"
#include "dram/config.h"
#include "dram/fault_injector.h"

namespace simdram
{

/** One compute-capable DRAM subarray. */
class Subarray
{
  public:
    /**
     * Creates a subarray per @p cfg geometry.
     *
     * All data and compute rows start zeroed; C0/C1 hold their
     * constants.
     */
    explicit Subarray(const DramConfig &cfg);

    /** @return Number of regular data rows. */
    size_t dataRowCount() const { return data_.size(); }

    /** @return Bits per row (SIMD lanes). */
    size_t rowBits() const { return cfg_.rowBits; }

    // ---- Command interface -------------------------------------------

    /**
     * Issues a bare ACTIVATE.
     *
     * Functional semantics as described in the file comment. Counts the
     * command and its energy; latency is accounted at the AAP/AP macro
     * level (see aap()/ap()), matching how the SIMDRAM control unit
     * issues commands.
     */
    void activate(const RowAddr &addr);

    /** Issues a PRECHARGE, closing the row buffer. */
    void precharge();

    /**
     * ACTIVATE-ACTIVATE-PRECHARGE: copies @p src into @p dst.
     *
     * If @p src is a triple address this first computes the majority
     * (the standard Ambit "compute and copy out" idiom). @p dst may be
     * a dual address to initialize two compute rows at once.
     */
    void aap(const RowAddr &src, const RowAddr &dst);

    /**
     * ACTIVATE-PRECHARGE on @p addr.
     *
     * With a triple address this computes MAJ in place, leaving the
     * result in the three activated rows.
     */
    void ap(const RowAddr &addr);

    /**
     * State-only AAP: identical memory semantics to aap(), but
     * accumulates no statistics. Batched μProgram replay
     * (exec/replay_plan.h) falls back to this, with addStats(), when
     * a TRA fault mechanism is active or the plan has no compiled
     * schedule: the per-command counters, latency, and energy of a
     * μOp stream are precomputed once per plan and added in one shot
     * per segment, while every TRA still consults the injector.
     */
    void aapFunctional(const RowAddr &src, const RowAddr &dst);

    /** State-only AP (see aapFunctional()). */
    void apFunctional(const RowAddr &addr);

    /**
     * The cells a compiled μProgram replay (exec/replay_plan.h) reads
     * and writes directly: it computes every row's final value itself
     * and stores it back, so no per-command state machine runs.
     */
    struct Cells
    {
        BitRow *data;      ///< Data rows 0..dataRowCount()-1.
        BitRow *t;         ///< Compute rows T0..T3.
        BitRow *dcc;       ///< DCC0, DCC1 (true stored values).
        const BitRow *c0;  ///< Constant all-zeros row.
        const BitRow *c1;  ///< Constant all-ones row.
    };

    /**
     * @return The subarray's cells for a compiled replay. Closes the
     *         row buffer with no view, as after any AAP/AP, so the
     *         caller's writes cannot be observed through a stale view.
     */
    Cells replayCells();

    /**
     * @return True if neither TRA fault mechanism (flip probability,
     *         fault injector) is active, so a TRA is a pure majority
     *         that consumes no randomness.
     */
    bool faultFree() const
    {
        return tra_flip_p_ == 0.0 && injector_ == nullptr;
    }

    /** Adds a precomputed statistics aggregate (serial latency). */
    void addStats(const DramStats &s) { stats_ += s; }

    // ---- Backdoor access (no cost; for host modeling and tests) ------

    /** @return The stored value of data row @p row. */
    const BitRow &peekData(size_t row) const;

    /** Overwrites data row @p row (host store backdoor). */
    void pokeData(size_t row, const BitRow &value);

    /**
     * Mutable access to data row @p row (host store backdoor).
     *
     * Lets the transposition unit write transposed words in place
     * instead of building rows aside and copying them in. The caller
     * must preserve the row's width and padding invariant.
     */
    BitRow &pokeDataRow(size_t row);

    /** @return The value visible through special-row port @p s. */
    BitRow peek(SpecialRow s) const;

    /** Overwrites the cell behind port @p s (testing backdoor). */
    void poke(SpecialRow s, const BitRow &value);

    /** @return True if the row buffer is open. */
    bool bufferOpen() const { return buffer_open_; }

    /** @return The current row-buffer contents. */
    const BitRow &
    peekBuffer() const
    {
        materializeBuffer();
        return buffer_;
    }

    // ---- Statistics ---------------------------------------------------

    /** @return Accumulated command statistics. */
    const DramStats &stats() const { return stats_; }

    /** Clears accumulated statistics (contents are kept). */
    void resetStats() { stats_.reset(); }

    // ---- Fault injection ------------------------------------------------

    /**
     * Enables TRA fault injection: after every triple-row
     * activation, each bit of the majority result flips
     * independently with probability @p flip_probability. This is
     * the functional-path counterpart of the charge-sharing failure
     * model in reliability/ — a failing TRA resolves to the wrong
     * value and that wrong value is restored into all three rows.
     */
    void enableTraFaults(double flip_probability, uint64_t seed);

    /** Disables TRA fault injection. */
    void disableTraFaults() { tra_flip_p_ = 0.0; }

    /** @return Number of bits flipped by fault injection so far. */
    uint64_t injectedFaults() const { return injected_faults_; }

    /**
     * Installs (or, with nullptr, removes) a fault injector consulted
     * once per TRA. Not owned: the installer (DeviceGroup keeps
     * shared ownership) must outlive the subarray's use of it. A
     * sampled failure flips one bitline of the resolved majority
     * before restore and counts into DramStats::traFaults.
     */
    void setFaultInjector(FaultInjector *injector)
    {
        injector_ = injector;
    }

    /** @return The installed fault injector, or nullptr. */
    FaultInjector *faultInjector() const { return injector_; }

    // ---- Reference vs. fast activate path -------------------------------

    /**
     * Selects the retained seed ("reference") activate path, which
     * materializes every value read through a row address as a fresh
     * *eagerly copied* BitRow and writes rows with eager word-for-word
     * copies (BitRow::detach()/copyFrom()), instead of the default
     * zero-copy path that aliases CoW payloads. Both are bit-exact
     * (the differential and replay-equivalence tests assert it); the
     * reference path exists as the semantics baseline and as the
     * honest seed-cost baseline for benchmarking — it must not
     * silently inherit the CoW speedups.
     */
    void useReferencePath(bool on) { reference_path_ = on; }

    /** @return True if the reference activate path is selected. */
    bool referencePath() const { return reference_path_; }

  private:
    /** @return The value read through @p addr (with port negation). */
    BitRow readValue(const RowAddr &addr) const;

    /**
     * @return The cell behind a positive-port special row. Negative
     *         ports have no direct cell reference; callers carry the
     *         complement as a flag (triple addresses only ever name
     *         positive ports).
     */
    const BitRow &specialCell(SpecialRow s) const;

    /** Mutable variant of specialCell(). */
    BitRow &specialCellMut(SpecialRow s);

    /**
     * Decodes a special-row port into (cell, negated): the single
     * place the fast path maps DCC negative ports onto their cells.
     */
    std::pair<BitRow *, bool> portCell(SpecialRow s);

    /** Memory semantics of one ACTIVATE (no statistics). */
    void activateState(const RowAddr &addr);

    /**
     * Fast-path buffer open: points the buffer at the addressed cell
     * (possibly through the negative port) instead of copying it;
     * triple addresses materialize the majority into buffer_.
     */
    void openBufferFast(const RowAddr &addr);

    /**
     * Collapses a buffer view into buffer_ (no-op when already
     * materialized). Called before anything that reads buffer_
     * directly or mutates the viewed cell.
     */
    void materializeBuffer() const;

    /**
     * Writes the buffer value (negated if @p negate) into @p dst.
     * Materializes first when the write would mutate the viewed cell
     * (negation parity mismatch), so later reads through the view
     * stay correct.
     */
    void readBufferInto(BitRow &dst, bool negate);

    /** Fast-path writeValue: writes the buffer through @p addr. */
    void writeBufferTo(const RowAddr &addr);

    /** Fast-path write of the buffer into special row @p s. */
    void writeSpecialFromBuffer(SpecialRow s);

    /** Writes @p v through @p addr into all selected cells. */
    void writeValue(const RowAddr &addr, const BitRow &v);

    /** Reads one physical special row through its port. */
    BitRow readSpecial(SpecialRow s) const;

    /** Writes one physical special row through its port. */
    void writeSpecial(SpecialRow s, const BitRow &v);

    DramConfig cfg_; ///< Copied: subarrays outlive caller configs.
    std::vector<BitRow> data_;  ///< Regular data rows.
    BitRow c0_, c1_;            ///< Constant rows.
    BitRow t_[4];               ///< Compute rows T0..T3.
    BitRow dcc_[2];             ///< DCC cells (true stored value).
    // The row buffer is either materialized in buffer_ or, on the
    // fast path, a view of a resident cell; with CoW rows even the
    // collapse is an O(1) payload alias. Mutable: views collapse
    // lazily from const accessors.
    mutable BitRow buffer_;     ///< Sense-amplifier row buffer.
    mutable const BitRow *buffer_view_ = nullptr;
    mutable bool buffer_view_neg_ = false;
    bool buffer_open_ = false;
    DramStats stats_;
    bool reference_path_ = false; ///< Use the seed activate path.
    double tra_flip_p_ = 0.0;   ///< Per-bit TRA flip probability.
    Rng fault_rng_;             ///< Fault-injection randomness.
    uint64_t injected_faults_ = 0;
    FaultInjector *injector_ = nullptr; ///< Per-TRA fault seam.
};

} // namespace simdram

#endif // SIMDRAM_DRAM_SUBARRAY_H
