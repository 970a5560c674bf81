#include "crc32.hh"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace cxlfork::sim::detail {

#if defined(__x86_64__) || defined(__i386__)

#define CXLF_CLMUL_TARGET __attribute__((target("pclmul,sse4.1")))

namespace {

CXLF_CLMUL_TARGET inline __m128i
load(const uint8_t *at)
{
    return _mm_loadu_si128(reinterpret_cast<const __m128i *>(at));
}

/**
 * One fold step: carry x's two 64-bit halves forward by the distance
 * the constant pair k encodes and add the next input lane.
 */
CXLF_CLMUL_TARGET inline __m128i
fold(__m128i x, __m128i k, __m128i next)
{
    const __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
    const __m128i hi = _mm_clmulepi64_si128(x, k, 0x11);
    return _mm_xor_si128(_mm_xor_si128(lo, hi), next);
}

} // namespace

// Carry-less folding for the reflected IEEE polynomial, after Intel's
// "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
// Instruction" (Gopal et al., 2009), with the constants Linux's
// crc32-pclmul uses. In the bit-reflected domain each constant is
// x^k mod P for the fold distance k:
//   k1/k2 fold a 128-bit lane forward by 512 bits (four-lane loop),
//   k3/k4 fold by 128 bits (lane merge and single-lane loop),
//   k5 folds the last 64 bits into 32 + 32 appended zero bits,
//   P' (the polynomial with its x^32 term) and mu = floor(x^64 / P)
//   drive the final Barrett reduction to the 32-bit remainder.
CXLF_CLMUL_TARGET uint32_t
crc32Clmul(uint32_t state, const uint8_t *p, size_t n)
{
    if (n < Crc32::kBulkBytes)
        return crc32Table(state, p, n);

    const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
    const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
    const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
    const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
    const __m128i mask32 = _mm_setr_epi32(~0, 0, ~0, 0);

    __m128i x1 = _mm_xor_si128(load(p), _mm_cvtsi32_si128(int(state)));
    __m128i x2 = load(p + 16);
    __m128i x3 = load(p + 32);
    __m128i x4 = load(p + 48);
    p += 64;
    n -= 64;

    for (; n >= 64; n -= 64, p += 64) {
        x1 = fold(x1, k1k2, load(p));
        x2 = fold(x2, k1k2, load(p + 16));
        x3 = fold(x3, k1k2, load(p + 32));
        x4 = fold(x4, k1k2, load(p + 48));
    }

    // Merge the four lanes, then fold any whole 16-byte lanes left.
    x1 = fold(x1, k3k4, x2);
    x1 = fold(x1, k3k4, x3);
    x1 = fold(x1, k3k4, x4);
    for (; n >= 16; n -= 16, p += 16)
        x1 = fold(x1, k3k4, load(p));

    // 128 -> 64 bits, appending 32 zero bits on the way.
    __m128i t = _mm_clmulepi64_si128(x1, k3k4, 0x10);
    x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), t);
    t = _mm_srli_si128(x1, 4);
    x1 = _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), k5, 0x00);
    x1 = _mm_xor_si128(x1, t);

    // Barrett reduction 64 -> 32 bits.
    t = _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), poly, 0x10);
    t = _mm_clmulepi64_si128(_mm_and_si128(t, mask32), poly, 0x00);
    x1 = _mm_xor_si128(x1, t);
    state = uint32_t(_mm_extract_epi32(x1, 1));

    return crc32Table(state, p, n);
}

#undef CXLF_CLMUL_TARGET

#else

// No carry-less multiply on this CPU family: crc32ClmulSupported() is
// false, so update() never gets here; the table keeps the digest.
uint32_t
crc32Clmul(uint32_t state, const uint8_t *p, size_t n)
{
    return crc32Table(state, p, n);
}

#endif

} // namespace cxlfork::sim::detail
