/**
 * @file
 * Packed bit-vector used to model one DRAM row (one bit per bitline).
 *
 * A BitRow is the functional unit of the whole simulator: DRAM rows,
 * sense-amplifier row buffers, and logic-simulation signal values are
 * all BitRows. Bit i of the row corresponds to DRAM column i, i.e.
 * SIMD lane i. All bulk operations are word-parallel over 64-bit
 * words.
 *
 * Storage is copy-on-write: the backing words live in a refcounted
 * payload that copies and copy-assignment *share* in O(1), and every
 * mutating entry point detaches (uniquifies) the payload first. Value
 * semantics are fully preserved — mutating one row never changes
 * another — but the row copies that dominate μProgram replay
 * (RowClone AAPs, C0/C1 constant clones) collapse to a refcount
 * bump: repeated clones of one row intern a single payload until
 * somebody writes. Eager copies remain available through clone() /
 * copyFrom() for the retained seed ("reference") paths whose cost
 * model must not silently improve.
 *
 * The bulk kernels come in two flavours:
 *
 *  - value-returning operations (majority3, select, operator~, ...):
 *    convenient, but each call allocates a fresh result row;
 *  - fused "Into" operations (majority3Into, selectInto, aapInto,
 *    andNotInto, assignNot): write into an existing destination row
 *    with a single pass over the backing words and no allocation
 *    while the destination's payload is unshared (a shared
 *    destination detaches to a fresh payload first, leaving the
 *    co-owners untouched). aapInto is the exception: under CoW a
 *    row-clone copy IS payload sharing, so it is O(1).
 *    These are the hot path of μProgram replay; the word loops are
 *    written over raw pointers so compilers auto-vectorize them, and
 *    an AVX2 intrinsic path is available behind SIMDRAM_USE_AVX2.
 *
 * Thread-safety of the sharing: payload refcounts are atomic
 * (std::shared_ptr), readers never write, and writers always detach,
 * so rows whose payloads happen to be shared may be read and mutated
 * from different threads as long as each *row object* has one owner
 * (the DeviceGroup per-device locking discipline).
 *
 * Semantics of every kernel are defined by the bit-at-a-time
 * reference implementations in common/kernels_ref.h;
 * tests/kernel_diff_test.cc checks the word-parallel paths bit-exact
 * against them, and tests/property_test.cc checks the CoW aliasing
 * invariants (detach-on-write never leaks shared state).
 */

#ifndef SIMDRAM_COMMON_BITROW_H
#define SIMDRAM_COMMON_BITROW_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>

namespace simdram
{

/**
 * A fixed-width packed vector of bits with word-parallel bulk logic
 * over copy-on-write storage.
 *
 * Width is set at construction and never changes. Unused bits in the
 * final word are kept at zero as a class invariant so that whole-word
 * comparisons and population counts are exact.
 */
class BitRow
{
  public:
    /** Creates an empty (zero-width) row. */
    BitRow() = default;

    /**
     * Creates a row of @p width bits, all initialized to @p value.
     *
     * @param width Number of bits (DRAM columns).
     * @param value Initial value replicated into every bit.
     */
    explicit BitRow(size_t width, bool value = false);

    // Copies share the payload in O(1) (copy-on-write); moves steal
    // it and leave the source empty (zero-width).
    BitRow(const BitRow &) = default;
    BitRow &operator=(const BitRow &) = default;

    BitRow(BitRow &&other) noexcept
        : width_(other.width_), words_(std::move(other.words_))
    {
        other.width_ = 0;
    }

    BitRow &
    operator=(BitRow &&other) noexcept
    {
        width_ = other.width_;
        words_ = std::move(other.words_);
        other.width_ = 0;
        return *this;
    }

    /** @return The number of bits in the row. */
    size_t width() const { return width_; }

    /** @return The number of 64-bit backing words. */
    size_t wordCount() const { return (width_ + 63) / 64; }

    /** Direct word access (for high-throughput kernels). */
    uint64_t word(size_t i) const
    {
        assert(i < wordCount());
        return words_[i];
    }

    /**
     * Sets backing word @p i to @p w (detaching a shared payload).
     *
     * Writing the last word must not set padding bits above width();
     * that would silently break the invariant operator== and
     * popcount() depend on. Debug builds assert it; callers that
     * batch-write raw words can mask with lastWordMask() or call
     * trimLast() afterwards.
     */
    void
    setWord(size_t i, uint64_t w)
    {
        assert(i < wordCount());
        assert(i + 1 < wordCount() || (w & ~lastWordMask()) == 0);
        detach();
        words_[i] = w;
    }

    /**
     * @return Mask of the valid bits in the last backing word
     *         (all-ones when width() is a multiple of 64 or zero).
     */
    uint64_t
    lastWordMask() const
    {
        const size_t rem = width_ % 64;
        return rem == 0 ? ~0ULL : (1ULL << rem) - 1;
    }

    /**
     * Clears the padding bits above width() in the last word,
     * restoring the class invariant after raw word writes.
     */
    void
    trimLast()
    {
        const size_t n = wordCount();
        if (n == 0)
            return;
        const uint64_t mask = lastWordMask();
        if ((words_[n - 1] & ~mask) == 0)
            return; // invariant already holds; don't detach
        detach();
        words_[n - 1] &= mask;
    }

    /** @return Bit @p i (lane i). */
    bool get(size_t i) const;

    /** Sets bit @p i (lane i) to @p value. */
    void set(size_t i, bool value);

    /** Sets every bit to @p value. */
    void fill(bool value);

    /** @return The number of set bits. */
    size_t popcount() const;

    /** @return True if all bits are zero. */
    bool allZero() const;

    /** @return True if all bits are one. */
    bool allOne() const;

    /** In-place bitwise NOT (respects padding invariant). */
    void invert();

    /** @return Bitwise NOT of this row. */
    BitRow operator~() const;

    BitRow &operator&=(const BitRow &other);
    BitRow &operator|=(const BitRow &other);
    BitRow &operator^=(const BitRow &other);

    friend BitRow operator&(BitRow a, const BitRow &b) { return a &= b; }
    friend BitRow operator|(BitRow a, const BitRow &b) { return a |= b; }
    friend BitRow operator^(BitRow a, const BitRow &b) { return a ^= b; }

    bool operator==(const BitRow &other) const;

    // ---- Copy-on-write introspection and eager copies ---------------

    /**
     * @return True if this row and @p other share one payload (a
     *         write to either would detach it). Width-0 rows never
     *         share. Test/diagnostic hook for the CoW invariants.
     */
    bool
    sharesStorageWith(const BitRow &other) const
    {
        return words_ != nullptr && words_ == other.words_;
    }

    /**
     * Uniquifies the payload now (copying if shared), preserving
     * contents. The retained seed "reference" paths call this to keep
     * their cost model an honest eager-copy baseline; it is never
     * required for correctness.
     */
    void
    detach()
    {
        if (words_ != nullptr && words_.use_count() > 1)
            detachCopy();
    }

    /**
     * @return True if no other row or copy holds this row's payload,
     *         so an overwrite can reuse it in place. Width-0 rows
     *         have no payload and are never unshared.
     */
    bool unshared() const
    {
        return words_ != nullptr && words_.use_count() == 1;
    }

    /** @return The backing words (read-only; wordCount() of them). */
    const uint64_t *data() const { return words_.get(); }

    /**
     * Overwrites the contents with wordCount() words from @p src,
     * complemented if @p negate (padding bits are cleared). Writes in
     * place while the payload is unshared; a shared payload detaches
     * to a fresh one, leaving the co-owners untouched.
     */
    void assignWords(const uint64_t *src, bool negate);

    /** @return A deep copy with its own unshared payload. */
    BitRow clone() const;

    /**
     * Eagerly copies @p src into this row (shape and contents),
     * always performing a word-for-word copy into unshared storage —
     * the explicit non-CoW assignment for seed-cost paths.
     */
    void copyFrom(const BitRow &src);

    // ---- Fused in-place kernels (the μProgram replay hot path) ------

    /**
     * Row-clone copy: @p dst takes this row's width and contents.
     *
     * Named after the AAP command it models. Under CoW this is O(1):
     * @p dst drops its payload and shares this row's; the actual word
     * copy happens only if one of the aliases is later written.
     */
    void
    aapInto(BitRow &dst) const
    {
        if (&dst == this)
            return;
        dst.width_ = width_;
        dst.words_ = words_;
    }

    /** *this = ~src, fused (no temporary). */
    void assignNot(const BitRow &src);

    /** out = a & ~b, fused (no temporary). */
    static void andNotInto(BitRow &out, const BitRow &a,
                           const BitRow &b);

    /**
     * out[i] = MAJ(a[i], b[i], c[i]), fused into @p out.
     *
     * @p out may alias any operand (pure element-wise), whether as
     * the same object or through a shared payload.
     */
    static void majority3Into(BitRow &out, const BitRow &a,
                              const BitRow &b, const BitRow &c);

    /** out[i] = sel[i] ? t[i] : f[i], fused into @p out. */
    static void selectInto(BitRow &out, const BitRow &sel,
                           const BitRow &t, const BitRow &f);

    /**
     * Raw-word TRA kernel of the compiled μProgram replay:
     * out[i] = MAJ(a[i] ^ na, b[i] ^ nb, c[i] ^ nc) over @p n words,
     * where each mask is 0 or ~0 (a DCC negative port folded into
     * the operand). @p out may alias any operand. Negated operands
     * leave padding bits set; assignWords() clears them on the way
     * back into a row.
     */
    static void majority3Words(uint64_t *out, const uint64_t *a,
                               uint64_t na, const uint64_t *b,
                               uint64_t nb, const uint64_t *c,
                               uint64_t nc, size_t n);

    /**
     * Bitwise 3-input majority: out[i] = MAJ(a[i], b[i], c[i]).
     *
     * This is exactly what a DRAM triple-row activation computes via
     * charge sharing on each bitline.
     */
    static BitRow majority3(const BitRow &a, const BitRow &b,
                            const BitRow &c);

    /**
     * Bitwise multiplexer: out[i] = sel[i] ? t[i] : f[i].
     */
    static BitRow select(const BitRow &sel, const BitRow &t,
                         const BitRow &f);

    /**
     * @return A human-readable string of the first @p max_bits bits
     *         (LSB / lane 0 first), e.g. "0110...".
     */
    std::string toString(size_t max_bits = 64) const;

  private:
    /** Allocates an uninitialized payload of @p n words. */
    static std::shared_ptr<uint64_t[]> allocWords(size_t n);

    /** Out-of-line copy half of detach() (payload known shared). */
    void detachCopy();

    /**
     * Prepares this row to be fully overwritten with @p new_width
     * bits: adopts the width and ensures an unshared payload of the
     * right size WITHOUT preserving contents. Callers must capture
     * their input word pointers *before* calling this; co-owners of a
     * previously shared payload keep it alive, so those pointers stay
     * valid even when this row reallocates.
     */
    void prepareOverwrite(size_t new_width);

    size_t width_ = 0;
    /** Refcounted CoW payload; null iff wordCount() == 0. */
    std::shared_ptr<uint64_t[]> words_;
};

} // namespace simdram

#endif // SIMDRAM_COMMON_BITROW_H
