#include <gtest/gtest.h>

#include <cstdlib>

#include "bench_util.hh"
#include "sim/log.hh"

namespace cxlfork::bench {
namespace {

constexpr const char *kKnob = "CXLFORK_BENCH_ENV_TEST_KNOB";

/** Parse kKnob set to `value` (nullptr: unset). */
template <typename T>
std::optional<T>
parseAs(const char *value, T lo, T hi)
{
    if (value)
        setenv(kKnob, value, 1);
    else
        unsetenv(kKnob);
    return envNumber<T>(kKnob, lo, hi);
}

TEST(EnvNumber, UnsetIsNullopt)
{
    EXPECT_FALSE(parseAs<double>(nullptr, 0.0, 1.0).has_value());
    EXPECT_FALSE(parseAs<unsigned>(nullptr, 1, 8).has_value());
}

TEST(EnvNumber, WholeNumbersInRangeParse)
{
    EXPECT_EQ(parseAs<double>("800", 0.0, 1e6), 800.0);
    EXPECT_EQ(parseAs<double>("0.3", 0.0, 0.95), 0.3);
    EXPECT_EQ(parseAs<double>("1e3", 0.0, 1e6), 1000.0);
    EXPECT_EQ(parseAs<unsigned>("8", 1, 1024), 8u);
    // Both bounds are inclusive.
    EXPECT_EQ(parseAs<uint32_t>("0", 0, 16), 0u);
    EXPECT_EQ(parseAs<uint32_t>("16", 0, 16), 16u);
}

TEST(EnvNumber, MalformedValuesAreFatal)
{
    for (const char *bad : {"abc", "", "800x", " 800", "1.5.2"})
        EXPECT_THROW(parseAs<double>(bad, 0.0, 1e6), sim::FatalError)
            << "'" << bad << "'";
    // An integer knob takes no fraction, and no sign on an unsigned:
    // "-1" must never wrap to 4294967295.
    for (const char *bad : {"-1", "2.5", "0x10", "abc"})
        EXPECT_THROW(parseAs<uint32_t>(bad, 0, 1000), sim::FatalError)
            << "'" << bad << "'";
}

TEST(EnvNumber, OutOfRangeIsFatal)
{
    EXPECT_THROW(parseAs<unsigned>("0", 1, 1024), sim::FatalError);
    EXPECT_THROW(parseAs<uint32_t>("17", 0, 16), sim::FatalError);
    EXPECT_THROW(parseAs<double>("0.96", 0.0, 0.95), sim::FatalError);
    EXPECT_THROW(parseAs<double>("-0.1", 0.0, 1.0), sim::FatalError);
    EXPECT_THROW(parseAs<double>("nan", 0.0, 1.0), sim::FatalError);
    EXPECT_THROW(parseAs<double>("inf", 0.0, 1.0), sim::FatalError);
    // Beyond the type itself.
    EXPECT_THROW(parseAs<uint32_t>("4294967296", 0, 4294967295u),
                 sim::FatalError);
}

} // namespace
} // namespace cxlfork::bench
