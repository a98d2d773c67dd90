#include "common/bitrow.h"

#include <algorithm>
#include <bit>
#include <cassert>

#if defined(SIMDRAM_USE_AVX2) && defined(__AVX2__)
#define SIMDRAM_HAVE_AVX2_KERNELS 1
#include <immintrin.h>
#endif

namespace simdram
{

std::shared_ptr<uint64_t[]>
BitRow::allocWords(size_t n)
{
    // Single allocation (control block + array), uninitialized:
    // every caller either fills the words or copies over them.
#if defined(__cpp_lib_smart_ptr_for_overwrite)
    return std::make_shared_for_overwrite<uint64_t[]>(n);
#else
    return std::shared_ptr<uint64_t[]>(new uint64_t[n]);
#endif
}

void
BitRow::detachCopy()
{
    const size_t n = wordCount();
    auto fresh = allocWords(n);
    std::copy_n(words_.get(), n, fresh.get());
    words_ = std::move(fresh);
}

void
BitRow::prepareOverwrite(size_t new_width)
{
    const size_t old_n = wordCount();
    width_ = new_width;
    const size_t new_n = wordCount();
    if (new_n == 0) {
        words_.reset();
        return;
    }
    if (words_ == nullptr || old_n != new_n ||
        words_.use_count() > 1)
        words_ = allocWords(new_n);
}

BitRow::BitRow(size_t width, bool value) : width_(width)
{
    const size_t n = wordCount();
    if (n == 0)
        return;
    words_ = allocWords(n);
    std::fill_n(words_.get(), n, value ? ~0ULL : 0ULL);
    words_[n - 1] &= lastWordMask();
}

bool
BitRow::get(size_t i) const
{
    assert(i < width_);
    return (words_[i / 64] >> (i % 64)) & 1ULL;
}

void
BitRow::set(size_t i, bool value)
{
    assert(i < width_);
    detach();
    const uint64_t mask = 1ULL << (i % 64);
    if (value)
        words_[i / 64] |= mask;
    else
        words_[i / 64] &= ~mask;
}

void
BitRow::fill(bool value)
{
    prepareOverwrite(width_);
    const size_t n = wordCount();
    if (n == 0)
        return;
    std::fill_n(words_.get(), n, value ? ~0ULL : 0ULL);
    words_[n - 1] &= lastWordMask();
}

size_t
BitRow::popcount() const
{
    // Four independent accumulators break the loop-carried dependency
    // so the popcounts pipeline (and vectorize with AVX-512 VPOPCNTQ
    // where available).
    const uint64_t *w = words_.get();
    const size_t n = wordCount();
    size_t n0 = 0, n1 = 0, n2 = 0, n3 = 0;
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        n0 += static_cast<size_t>(std::popcount(w[i]));
        n1 += static_cast<size_t>(std::popcount(w[i + 1]));
        n2 += static_cast<size_t>(std::popcount(w[i + 2]));
        n3 += static_cast<size_t>(std::popcount(w[i + 3]));
    }
    for (; i < n; ++i)
        n0 += static_cast<size_t>(std::popcount(w[i]));
    return n0 + n1 + n2 + n3;
}

bool
BitRow::allZero() const
{
    const uint64_t *w = words_.get();
    const size_t n = wordCount();
    for (size_t i = 0; i < n; ++i)
        if (w[i] != 0)
            return false;
    return true;
}

bool
BitRow::allOne() const
{
    return popcount() == width_;
}

void
BitRow::invert()
{
    const size_t n = wordCount();
    if (n == 0)
        return;
    // Read-modify-write through the (possibly fresh) unique payload.
    const uint64_t *s = words_.get();
    prepareOverwrite(width_);
    uint64_t *d = words_.get();
    for (size_t i = 0; i < n; ++i)
        d[i] = ~s[i];
    d[n - 1] &= lastWordMask();
}

BitRow
BitRow::operator~() const
{
    BitRow r;
    r.assignNot(*this);
    return r;
}

BitRow &
BitRow::operator&=(const BitRow &other)
{
    assert(width_ == other.width_);
    const size_t n = wordCount();
    if (n == 0)
        return *this;
    const uint64_t *s = words_.get();
    const uint64_t *b = other.words_.get();
    prepareOverwrite(width_);
    uint64_t *a = words_.get();
    for (size_t i = 0; i < n; ++i)
        a[i] = s[i] & b[i];
    return *this;
}

BitRow &
BitRow::operator|=(const BitRow &other)
{
    assert(width_ == other.width_);
    const size_t n = wordCount();
    if (n == 0)
        return *this;
    const uint64_t *s = words_.get();
    const uint64_t *b = other.words_.get();
    prepareOverwrite(width_);
    uint64_t *a = words_.get();
    for (size_t i = 0; i < n; ++i)
        a[i] = s[i] | b[i];
    return *this;
}

BitRow &
BitRow::operator^=(const BitRow &other)
{
    assert(width_ == other.width_);
    const size_t n = wordCount();
    if (n == 0)
        return *this;
    const uint64_t *s = words_.get();
    const uint64_t *b = other.words_.get();
    prepareOverwrite(width_);
    uint64_t *a = words_.get();
    for (size_t i = 0; i < n; ++i)
        a[i] = s[i] ^ b[i];
    return *this;
}

bool
BitRow::operator==(const BitRow &other) const
{
    if (width_ != other.width_)
        return false;
    if (words_ == other.words_)
        return true; // shared payload (or both width 0)
    const uint64_t *a = words_.get();
    const uint64_t *b = other.words_.get();
    const size_t n = wordCount();
    for (size_t i = 0; i < n; ++i)
        if (a[i] != b[i])
            return false;
    return true;
}

BitRow
BitRow::clone() const
{
    BitRow r;
    r.copyFrom(*this);
    return r;
}

void
BitRow::copyFrom(const BitRow &src)
{
    if (&src == this) {
        detach();
        return;
    }
    const uint64_t *s = src.words_.get();
    prepareOverwrite(src.width_);
    std::copy_n(s, wordCount(), words_.get());
}

void
BitRow::assignWords(const uint64_t *src, bool negate)
{
    const size_t n = wordCount();
    if (n == 0)
        return;
    prepareOverwrite(width_);
    uint64_t *d = words_.get();
    const uint64_t mask = negate ? ~0ULL : 0ULL;
    for (size_t i = 0; i < n; ++i)
        d[i] = src[i] ^ mask;
    d[n - 1] &= lastWordMask();
}

void
BitRow::assignNot(const BitRow &src)
{
    const uint64_t *s = src.words_.get();
    prepareOverwrite(src.width_);
    const size_t n = wordCount();
    if (n == 0)
        return;
    uint64_t *d = words_.get();
    for (size_t i = 0; i < n; ++i)
        d[i] = ~s[i];
    d[n - 1] &= lastWordMask();
}

void
BitRow::andNotInto(BitRow &out, const BitRow &a, const BitRow &b)
{
    assert(a.width_ == b.width_);
    const uint64_t *x = a.words_.get();
    const uint64_t *y = b.words_.get();
    out.prepareOverwrite(a.width_);
    uint64_t *o = out.words_.get();
    const size_t n = out.wordCount();
    for (size_t i = 0; i < n; ++i)
        o[i] = x[i] & ~y[i];
}

void
BitRow::majority3Into(BitRow &out, const BitRow &a, const BitRow &b,
                      const BitRow &c)
{
    assert(a.width_ == b.width_ && b.width_ == c.width_);
    // Capture input pointers before preparing the destination: if a
    // shared payload is dropped by `out`, its co-owners (the operand
    // rows) keep it alive.
    const uint64_t *x = a.words_.get();
    const uint64_t *y = b.words_.get();
    const uint64_t *z = c.words_.get();
    out.prepareOverwrite(a.width_);
    uint64_t *o = out.words_.get();
    const size_t n = out.wordCount();
    size_t i = 0;
#ifdef SIMDRAM_HAVE_AVX2_KERNELS
    for (; i + 4 <= n; i += 4) {
        const __m256i vx =
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(x + i));
        const __m256i vy =
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(y + i));
        const __m256i vz =
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(z + i));
        const __m256i r = _mm256_or_si256(
            _mm256_or_si256(_mm256_and_si256(vx, vy),
                            _mm256_and_si256(vy, vz)),
            _mm256_and_si256(vx, vz));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(o + i), r);
    }
#endif
    for (; i < n; ++i)
        o[i] = (x[i] & y[i]) | (y[i] & z[i]) | (x[i] & z[i]);
}

void
BitRow::majority3Words(uint64_t *out, const uint64_t *a, uint64_t na,
                       const uint64_t *b, uint64_t nb,
                       const uint64_t *c, uint64_t nc, size_t n)
{
    size_t i = 0;
#ifdef SIMDRAM_HAVE_AVX2_KERNELS
    const __m256i ma = _mm256_set1_epi64x(static_cast<long long>(na));
    const __m256i mb = _mm256_set1_epi64x(static_cast<long long>(nb));
    const __m256i mc = _mm256_set1_epi64x(static_cast<long long>(nc));
    for (; i + 4 <= n; i += 4) {
        const __m256i vx = _mm256_xor_si256(
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(a + i)),
            ma);
        const __m256i vy = _mm256_xor_si256(
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(b + i)),
            mb);
        const __m256i vz = _mm256_xor_si256(
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(c + i)),
            mc);
        const __m256i r = _mm256_or_si256(
            _mm256_or_si256(_mm256_and_si256(vx, vy),
                            _mm256_and_si256(vy, vz)),
            _mm256_and_si256(vx, vz));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(out + i), r);
    }
#endif
    for (; i < n; ++i) {
        const uint64_t x = a[i] ^ na;
        const uint64_t y = b[i] ^ nb;
        const uint64_t z = c[i] ^ nc;
        out[i] = (x & y) | (y & z) | (x & z);
    }
}

void
BitRow::selectInto(BitRow &out, const BitRow &sel, const BitRow &t,
                   const BitRow &f)
{
    assert(sel.width_ == t.width_ && t.width_ == f.width_);
    const uint64_t *s = sel.words_.get();
    const uint64_t *vt = t.words_.get();
    const uint64_t *vf = f.words_.get();
    out.prepareOverwrite(sel.width_);
    uint64_t *o = out.words_.get();
    const size_t n = out.wordCount();
    size_t i = 0;
#ifdef SIMDRAM_HAVE_AVX2_KERNELS
    for (; i + 4 <= n; i += 4) {
        const __m256i vs =
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(s + i));
        const __m256i v1 =
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(vt + i));
        const __m256i v0 =
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(vf + i));
        // (f ^ ((f ^ t) & s)): one fewer logical op than the naive mux.
        const __m256i r = _mm256_xor_si256(
            v0, _mm256_and_si256(_mm256_xor_si256(v0, v1), vs));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(o + i), r);
    }
#endif
    for (; i < n; ++i)
        o[i] = vf[i] ^ ((vf[i] ^ vt[i]) & s[i]);
}

BitRow
BitRow::majority3(const BitRow &a, const BitRow &b, const BitRow &c)
{
    BitRow r;
    majority3Into(r, a, b, c);
    return r;
}

BitRow
BitRow::select(const BitRow &sel, const BitRow &t, const BitRow &f)
{
    BitRow r;
    selectInto(r, sel, t, f);
    return r;
}

std::string
BitRow::toString(size_t max_bits) const
{
    const size_t n = std::min(max_bits, width_);
    std::string s;
    s.reserve(n + 3);
    for (size_t i = 0; i < n; ++i)
        s.push_back(get(i) ? '1' : '0');
    if (n < width_)
        s += "...";
    return s;
}

} // namespace simdram
