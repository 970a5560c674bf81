/**
 * @file
 * A compact tag-length-value wire format: the stand-in for the
 * Protocol Buffers serialization CRIU uses.
 *
 * Encoding is real (bytes are produced and parsed back), so round-trip
 * tests are meaningful. Simulated *cost* is charged separately by the
 * callers, because one encoded "page" carries an 8-byte content token
 * standing in for 4 KB of data.
 */

#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace cxlfork::proto {

/** Append-only encoder. */
class Encoder
{
  public:
    void putVarint(uint64_t v);
    void putU64(uint64_t v) { putVarint(v); }
    void putU32(uint32_t v) { putVarint(v); }
    void putBool(bool v) { putVarint(v ? 1 : 0); }
    void putString(const std::string &s);
    void putBytes(const uint8_t *data, size_t n);

    const std::vector<uint8_t> &buffer() const { return buf_; }
    std::vector<uint8_t> take() { return std::move(buf_); }
    size_t size() const { return buf_.size(); }

  private:
    std::vector<uint8_t> buf_;
};

/** Sequential decoder over an encoded buffer. Throws on malformed input. */
class Decoder
{
  public:
    explicit Decoder(const std::vector<uint8_t> &buf) : buf_(buf) {}

    /**
     * With at least kMaxVarintBytes left, the varint is read without
     * per-byte bounds checks; shorter tails and malformed input (no
     * terminator within kMaxVarintBytes) take getVarintSlow(), which
     * owns every error.
     */
    uint64_t
    getVarint()
    {
        if (remaining() < kMaxVarintBytes)
            return getVarintSlow();
        static_assert(std::endian::native == std::endian::little);
        const uint8_t *p = buf_.data() + pos_;
        uint64_t w;
        std::memcpy(&w, p, sizeof(w));
        // A clear top bit ends the varint. Within the first 8 bytes:
        // keep bytes up to and including the last one, drop their
        // continuation bits, and pack the 7-bit groups together.
        const uint64_t stops = ~w & 0x8080'8080'8080'8080ull;
        if (stops) {
            pos_ += size_t(std::countr_zero(stops) + 1) / 8;
            return packGroups(w & (stops ^ (stops - 1)));
        }
        // p[8] carries bits 56-62 and p[9] bit 63; p[9] counts only
        // when p[8] continues.
        const uint64_t b8 = p[8];
        const uint64_t b9 = p[9];
        if (b8 & b9 & 0x80)
            return getVarintSlow(); // no end within ten bytes
        const uint64_t tenth = b8 >> 7;
        pos_ += 9 + tenth;
        return packGroups(w) | ((b8 & 0x7f) << 56) | ((b9 & tenth) << 63);
    }

    /**
     * The bounds-checked byte loop: the fallback of getVarint(), and
     * the reference the tests hold its fast path to. Fatal on a
     * truncated varint or one that runs past kMaxVarintBytes.
     */
    uint64_t getVarintSlow();

    uint64_t getU64() { return getVarint(); }
    uint32_t getU32() { return uint32_t(getVarint()); }
    bool getBool() { return getVarint() != 0; }
    std::string getString();

    bool atEnd() const { return pos_ == buf_.size(); }
    size_t remaining() const { return buf_.size() - pos_; }

    /** A 64-bit value needs at most ten 7-bit groups. */
    static constexpr size_t kMaxVarintBytes = 10;

  private:
    /** Pack the low 7 bits of each byte of w into one 56-bit value. */
    static uint64_t
    packGroups(uint64_t w)
    {
        w &= 0x7f7f'7f7f'7f7f'7f7full;
        w = (w & 0x007f'007f'007f'007full) |
            ((w & 0x7f00'7f00'7f00'7f00ull) >> 1);
        w = (w & 0x0000'3fff'0000'3fffull) |
            ((w & 0x3fff'0000'3fff'0000ull) >> 2);
        return (w & 0x0000'0000'0fff'ffffull) |
               ((w & 0x0fff'ffff'0000'0000ull) >> 4);
    }

    const std::vector<uint8_t> &buf_;
    size_t pos_ = 0;
};

} // namespace cxlfork::proto
