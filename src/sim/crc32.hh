/**
 * @file
 * CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) for checkpoint
 * integrity. CRC-32 detects every single-bit and every burst error up
 * to 32 bits, which is exactly the torn-write / bit-rot failure model
 * injected on the simulated CXL device.
 *
 * Slicing-by-8: eight derived tables let one step fold eight input
 * bytes, so a 64-bit token costs one table round instead of eight
 * dependent byte steps. The digest is identical to the byte-at-a-time
 * form. (The SSE4.2 crc32 instruction computes CRC-32C, a different
 * polynomial, so it cannot stand in here.)
 */

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace cxlfork::sim {

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

} // namespace detail

/** Incremental CRC-32 over heterogeneous fields. */
class Crc32
{
  public:
    void
    update(const void *data, size_t n)
    {
        const auto *p = static_cast<const uint8_t *>(data);
        for (; n >= 8; n -= 8, p += 8) {
            uint64_t v = 0;
            for (int i = 0; i < 8; ++i)
                v |= uint64_t(p[i]) << (8 * i);
            update64(v);
        }
        for (; n > 0; --n, ++p)
            state_ = detail::kCrc32Tables[0][(state_ ^ *p) & 0xFF] ^
                     (state_ >> 8);
    }

    /** Fold v's eight little-endian bytes in one slicing-by-8 step. */
    void
    update64(uint64_t v)
    {
        const auto &t = detail::kCrc32Tables;
        const uint32_t lo = uint32_t(v) ^ state_;
        const uint32_t hi = uint32_t(v >> 32);
        state_ = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^
                 t[5][(lo >> 16) & 0xFF] ^ t[4][lo >> 24] ^
                 t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
                 t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
    }

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
