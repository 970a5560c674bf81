#include <gtest/gtest.h>

#include <random>

#include "proto/messages.hh"
#include "sim/log.hh"

namespace cxlfork::proto {
namespace {

TEST(Wire, VarintRoundTripBoundaries)
{
    Encoder e;
    const std::vector<uint64_t> values{0, 1, 127, 128, 16383, 16384,
                                       ~0ull, 1ull << 63};
    for (uint64_t v : values)
        e.putVarint(v);
    Decoder d(e.buffer());
    for (uint64_t v : values)
        EXPECT_EQ(d.getVarint(), v);
    EXPECT_TRUE(d.atEnd());
}

TEST(Wire, StringRoundTrip)
{
    Encoder e;
    e.putString("");
    e.putString("hello/world.so");
    std::string big(10000, 'x');
    e.putString(big);
    Decoder d(e.buffer());
    EXPECT_EQ(d.getString(), "");
    EXPECT_EQ(d.getString(), "hello/world.so");
    EXPECT_EQ(d.getString(), big);
}

TEST(Wire, TruncatedInputThrows)
{
    Encoder e;
    e.putString("abcdef");
    std::vector<uint8_t> cut(e.buffer().begin(), e.buffer().begin() + 3);
    Decoder d(cut);
    EXPECT_THROW(d.getString(), sim::FatalError);
}

TEST(Wire, TruncatedVarintThrows)
{
    std::vector<uint8_t> bad{0x80, 0x80};
    Decoder d(bad);
    EXPECT_THROW(d.getVarint(), sim::FatalError);
}

TEST(Wire, OverlongVarintThrows)
{
    std::vector<uint8_t> bad(11, 0x80);
    Decoder d(bad);
    EXPECT_THROW(d.getVarint(), sim::FatalError);
}

/**
 * What one read of `bytes` gives on a decoder: the value and the bytes
 * consumed, or the fatal message.
 */
struct VarintRead
{
    uint64_t value = 0;
    size_t consumed = 0;
    std::string error;

    bool operator==(const VarintRead &) const = default;
};

VarintRead
readVarint(const std::vector<uint8_t> &bytes, bool slow)
{
    Decoder d(bytes);
    VarintRead r;
    try {
        r.value = slow ? d.getVarintSlow() : d.getVarint();
    } catch (const sim::FatalError &e) {
        r.error = e.what();
    }
    r.consumed = bytes.size() - d.remaining();
    return r;
}

/**
 * getVarint's fast path (taken with at least kMaxVarintBytes left) and
 * the bounds-checked slow path give the same value or the same fatal
 * error on each buffer, and leave the decoder at the same position.
 */
TEST(Wire, VarintFastAndSlowPathsAgree)
{
    constexpr size_t kWindow = Decoder::kMaxVarintBytes;
    const std::vector<uint8_t> maxVarint{0xff, 0xff, 0xff, 0xff, 0xff,
                                         0xff, 0xff, 0xff, 0xff, 0x01};
    std::vector<uint8_t> overflow(kWindow, 0x80);
    std::vector<uint8_t> overflowPadded = overflow;
    overflowPadded.insert(overflowPadded.end(), 5, 0x00);
    std::vector<uint8_t> maxPadded = maxVarint;
    maxPadded.insert(maxPadded.end(), 3, 0x7f);
    std::vector<uint8_t> shortPadded{0xac, 0x02};
    shortPadded.insert(shortPadded.end(), kWindow, 0x00);

    const struct
    {
        const char *name;
        std::vector<uint8_t> bytes;
        bool fastWindow; ///< getVarint takes the fast path.
        const char *error;
    } cases[] = {
        {"ends on the last byte", {0xac, 0x02}, false, nullptr},
        {"max ends on the last byte", maxVarint, true, nullptr},
        {"max inside the window", maxPadded, true, nullptr},
        {"short inside the window", shortPadded, true, nullptr},
        {"11th-byte overflow at the end", overflow, true, "overflow"},
        {"11th-byte overflow in the window", overflowPadded, true,
         "overflow"},
        {"truncated", {0x80, 0x80, 0x80}, false, "truncated"},
    };
    for (const auto &c : cases) {
        SCOPED_TRACE(c.name);
        EXPECT_EQ(c.bytes.size() >= kWindow, c.fastWindow);
        const VarintRead fast = readVarint(c.bytes, false);
        const VarintRead slow = readVarint(c.bytes, true);
        EXPECT_EQ(fast, slow) << fast.error << " vs " << slow.error;
        if (c.error)
            EXPECT_NE(slow.error.find(c.error), std::string::npos);
        else
            EXPECT_EQ(slow.error, "");
    }
    EXPECT_EQ(readVarint(maxVarint, false).value, ~0ull);
    EXPECT_EQ(readVarint(maxVarint, false).consumed, kWindow);
    EXPECT_EQ(readVarint(shortPadded, false).value, 300u);
    EXPECT_EQ(readVarint(shortPadded, false).consumed, 2u);

    // Random bytes, mostly continuing, so every length from 1 to past
    // the 10-byte window turns up, with junk bits in the 10th byte.
    std::mt19937_64 rng(0x5a17);
    for (int i = 0; i < 20000; ++i) {
        std::vector<uint8_t> bytes(kWindow + rng() % 6);
        for (uint8_t &b : bytes)
            b = uint8_t(rng()) | (rng() % 8 ? 0x80 : 0x00);
        ASSERT_EQ(readVarint(bytes, false), readVarint(bytes, true))
            << "case " << i;
    }
}

GlobalStateMsg
sampleGlobal()
{
    GlobalStateMsg g;
    g.taskName = "bert";
    g.files = {{3, "/opt/faas/bert/config.json", 1, 0},
               {4, "/var/log/fn.log", 2, 128}};
    g.sockets = {{5, "gateway:8080"}};
    g.mounts = {"/", "/tmp", "/opt/faas"};
    g.pidNamespaceId = 42;
    return g;
}

TEST(Messages, GlobalStateRoundTrip)
{
    Encoder e;
    sampleGlobal().encode(e);
    Decoder d(e.buffer());
    EXPECT_EQ(GlobalStateMsg::decode(d), sampleGlobal());
    EXPECT_TRUE(d.atEnd());
}

TEST(Messages, CriuImageRoundTrip)
{
    CriuImageMsg img;
    img.global = sampleGlobal();
    img.cpu.rip = 0x401000;
    img.cpu.gpr[5] = 0xdead;
    img.vmas = {{0x1000, 0x5000, 3, 0, 1, 0, "", "[heap]"},
                {0x10000, 0x20000, 5, 1, 0, 4096, "/lib/a.so", "a.so"}};
    for (uint64_t i = 0; i < 1000; ++i)
        img.pages.push_back({i, i * 31});

    Encoder e;
    img.encode(e);
    Decoder d(e.buffer());
    EXPECT_EQ(CriuImageMsg::decode(d), img);
}

TEST(Messages, SimulatedBytesDominatedByPages)
{
    CriuImageMsg img;
    img.global = sampleGlobal();
    for (uint64_t i = 0; i < 1024; ++i)
        img.pages.push_back({i, 0});
    // 1024 pages ~ 4 MB; metadata is tiny in comparison.
    EXPECT_GT(img.simulatedBytes(), 1024ull * 4096);
    EXPECT_LT(img.simulatedBytes(), 1100ull * 4096);
}

TEST(Messages, RecordCountCoversAllPieces)
{
    CriuImageMsg img;
    img.global = sampleGlobal();
    img.vmas.resize(10);
    img.pages.resize(20);
    EXPECT_EQ(img.recordCount(), img.global.recordCount() + 1 + 10 + 20);
}

/** Property: random messages always round-trip bit-exactly. */
class WireFuzz : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(WireFuzz, RandomCriuImageRoundTrips)
{
    std::mt19937_64 rng(GetParam());
    auto ru = [&](uint64_t mod) { return rng() % mod; };

    CriuImageMsg img;
    img.global.taskName = std::string(ru(30), char('a' + ru(26)));
    for (uint64_t i = 0; i < ru(8); ++i) {
        img.global.files.push_back(
            {int32_t(3 + i), std::string(ru(40), 'p'), uint32_t(ru(4)),
             rng()});
    }
    for (uint64_t i = 0; i < ru(4); ++i)
        img.global.sockets.push_back({int32_t(20 + i), "peer:1"});
    img.global.pidNamespaceId = rng();
    for (auto &r : img.cpu.gpr)
        r = rng();
    for (uint64_t i = 0; i < ru(50); ++i) {
        const uint64_t start = ru(1000) * 0x10000;
        img.vmas.push_back({start + i * 0x100000000ull,
                            start + i * 0x100000000ull + 0x4000,
                            uint8_t(ru(8)), uint8_t(ru(2)), uint8_t(ru(4)),
                            ru(100) * 4096, std::string(ru(20), 'f'),
                            std::string(ru(10), 'n')});
    }
    for (uint64_t i = 0; i < ru(2000); ++i)
        img.pages.push_back({rng() >> 12, rng()});

    Encoder e;
    img.encode(e);
    Decoder d(e.buffer());
    EXPECT_EQ(CriuImageMsg::decode(d), img);
    EXPECT_TRUE(d.atEnd());
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireFuzz,
                         ::testing::Range<uint64_t>(1, 17));

} // namespace
} // namespace cxlfork::proto
