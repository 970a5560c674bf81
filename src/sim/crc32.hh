/**
 * @file
 * CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) for checkpoint
 * integrity. CRC-32 detects every single-bit and every burst error up
 * to 32 bits, which is exactly the torn-write / bit-rot failure model
 * injected on the simulated CXL device.
 *
 * Two kernels compute the identical digest:
 *  - Slicing-by-8 (crc32Table): eight derived tables let one step fold
 *    eight input bytes, so a 64-bit token costs one table round
 *    instead of eight dependent byte steps. It runs on every CPU, feeds
 *    every short update, and is the reference the tests compare the
 *    other kernel against.
 *  - Carry-less folding (crc32Clmul): on x86 CPUs with PCLMULQDQ and
 *    SSE4.1, updates of at least 64 bytes fold 64-byte blocks with
 *    carry-less multiplies by x^k mod P constants and Barrett-reduce
 *    the remainder, which is the same polynomial arithmetic as the
 *    tables, so the digest is bit-identical. The kernel is chosen once
 *    per process from the CPU's feature bits; there is no switch.
 *
 * The SSE4.2 crc32 instruction computes CRC-32C (Castagnoli), a
 * different polynomial, so it cannot stand in for either kernel: every
 * sealed digest would change.
 */

#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace cxlfork::sim {

// Tokens are fed as their little-endian bytes: update64(v) and
// update(&v, 8) agree only on a little-endian host.
static_assert(std::endian::native == std::endian::little,
              "CRC-32 token feeds assume a little-endian host");

namespace detail {

using Crc32Tables = std::array<std::array<uint32_t, 256>, 8>;

/**
 * tables[0] is the classic byte table; tables[k][b] is the CRC state
 * contribution of byte b followed by k zero bytes.
 */
constexpr Crc32Tables
makeCrc32Tables()
{
    Crc32Tables t{};
    for (uint32_t i = 0; i < 256; ++i) {
        uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        t[0][i] = c;
    }
    for (size_t k = 1; k < t.size(); ++k)
        for (uint32_t i = 0; i < 256; ++i)
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    return t;
}

inline constexpr Crc32Tables kCrc32Tables = makeCrc32Tables();

/** Fold v's eight little-endian bytes into `state` in one step. */
inline uint32_t
crc32Fold64(uint32_t state, uint64_t v)
{
    const auto &t = kCrc32Tables;
    const uint32_t lo = uint32_t(v) ^ state;
    const uint32_t hi = uint32_t(v >> 32);
    return t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^
           t[5][(lo >> 16) & 0xFF] ^ t[4][lo >> 24] ^ t[3][hi & 0xFF] ^
           t[2][(hi >> 8) & 0xFF] ^ t[1][(hi >> 16) & 0xFF] ^
           t[0][hi >> 24];
}

/** Slicing-by-8 kernel: any length, any CPU. Returns the new state. */
inline uint32_t
crc32Table(uint32_t state, const uint8_t *p, size_t n)
{
    for (; n >= 8; n -= 8, p += 8) {
        uint64_t v;
        std::memcpy(&v, p, sizeof(v));
        state = crc32Fold64(state, v);
    }
    for (; n > 0; --n, ++p)
        state = kCrc32Tables[0][(state ^ *p) & 0xFF] ^ (state >> 8);
    return state;
}

/**
 * Carry-less folding kernel: any length (the 16-byte-multiple prefix
 * of a buffer of at least 64 bytes is folded, the rest goes through
 * crc32Table). Callable only when crc32ClmulSupported().
 */
uint32_t crc32Clmul(uint32_t state, const uint8_t *p, size_t n);

/** True when this CPU runs crc32Clmul (PCLMULQDQ and SSE4.1). */
inline bool
crc32ClmulSupported()
{
#if defined(__x86_64__) || defined(__i386__)
    static const bool supported = [] {
        __builtin_cpu_init();
        return __builtin_cpu_supports("pclmul") &&
               __builtin_cpu_supports("sse4.1");
    }();
    return supported;
#else
    return false;
#endif
}

} // namespace detail

/** Incremental CRC-32 over heterogeneous fields. */
class Crc32
{
  public:
    /** Updates below this many bytes stay on the table kernel. */
    static constexpr size_t kBulkBytes = 64;

    void
    update(const void *data, size_t n)
    {
        const auto *p = static_cast<const uint8_t *>(data);
        state_ = n >= kBulkBytes && detail::crc32ClmulSupported()
                     ? detail::crc32Clmul(state_, p, n)
                     : detail::crc32Table(state_, p, n);
    }

    /** Fold v's eight little-endian bytes in one slicing-by-8 step. */
    void update64(uint64_t v) { state_ = detail::crc32Fold64(state_, v); }

    /** Finalized digest; the accumulator keeps running. */
    uint32_t value() const { return state_ ^ 0xFFFFFFFFu; }

  private:
    uint32_t state_ = 0xFFFFFFFFu;
};

/** One-shot CRC-32 of a byte buffer. */
inline uint32_t
crc32(const void *data, size_t n)
{
    Crc32 c;
    c.update(data, n);
    return c.value();
}

} // namespace cxlfork::sim
