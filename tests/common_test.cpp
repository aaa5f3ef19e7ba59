// Unit tests for the common substrate: math helpers, formatting,
// strong-type conversions, errors, and the deterministic RNG.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "common/error.hpp"
#include "common/format.hpp"
#include "common/math.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"

namespace mst {
namespace {

TEST(CeilDiv, ExactDivision)
{
    EXPECT_EQ(ceil_div(12, 4), 3);
    EXPECT_EQ(ceil_div(0, 7), 0);
}

TEST(CeilDiv, RoundsUp)
{
    EXPECT_EQ(ceil_div(13, 4), 4);
    EXPECT_EQ(ceil_div(1, 1000), 1);
    EXPECT_EQ(ceil_div(999, 1000), 1);
    EXPECT_EQ(ceil_div(1001, 1000), 2);
}

TEST(PowProb, MatchesStdPow)
{
    for (const double p : {0.0, 0.25, 0.5, 0.9999, 1.0}) {
        for (const std::int64_t e : {0LL, 1LL, 2LL, 7LL, 100LL, 513LL}) {
            EXPECT_NEAR(pow_prob(p, e), std::pow(p, static_cast<double>(e)), 1e-12)
                << "p=" << p << " e=" << e;
        }
    }
}

TEST(PowProb, ZeroExponentIsOne)
{
    EXPECT_DOUBLE_EQ(pow_prob(0.3, 0), 1.0);
    EXPECT_DOUBLE_EQ(pow_prob(0.0, 0), 1.0);
}

TEST(PowProb, LargeExponentStaysInRange)
{
    const Probability p = pow_prob(0.9999, 1'000'000);
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
}

TEST(AtLeastOneOf, SingleTrialIsIdentity)
{
    EXPECT_DOUBLE_EQ(at_least_one_of(0.37, 1), 0.37);
}

TEST(AtLeastOneOf, ZeroSitesIsZero)
{
    EXPECT_DOUBLE_EQ(at_least_one_of(0.9, 0), 0.0);
}

TEST(AtLeastOneOf, IncreasesWithTrials)
{
    double previous = 0.0;
    for (SiteCount n = 1; n <= 16; ++n) {
        const double current = at_least_one_of(0.3, n);
        EXPECT_GT(current, previous) << "n=" << n;
        previous = current;
    }
}

TEST(AtLeastOneOf, CertainSuccess)
{
    EXPECT_DOUBLE_EQ(at_least_one_of(1.0, 5), 1.0);
}

TEST(ClampProbability, ClampsBothEnds)
{
    EXPECT_DOUBLE_EQ(clamp_probability(-0.1), 0.0);
    EXPECT_DOUBLE_EQ(clamp_probability(1.1), 1.0);
    EXPECT_DOUBLE_EQ(clamp_probability(0.5), 0.5);
}

TEST(ChannelWireConversion, RoundTrips)
{
    for (WireCount w = 1; w <= 64; ++w) {
        EXPECT_EQ(wires_from_channels(channels_from_wires(w)), w);
    }
}

TEST(FormatDepth, PaperLabels)
{
    EXPECT_EQ(format_depth(48 * kibi), "48K");
    EXPECT_EQ(format_depth(7 * mebi), "7M");
    EXPECT_EQ(format_depth(100), "100");
}

TEST(FormatDepth, FractionalMega)
{
    EXPECT_EQ(format_depth(parse_depth("1.256M")), "1.256M");
}

TEST(ParseDepth, RoundTripsPaperValues)
{
    for (const char* label : {"48K", "56K", "128K", "384K", "1M", "7M", "14M", "3.512M"}) {
        EXPECT_EQ(format_depth(parse_depth(label)), label) << label;
    }
}

TEST(ParseDepth, PlainIntegers)
{
    EXPECT_EQ(parse_depth("49152"), 49152);
}

TEST(ParseDepth, LowerCaseSuffix)
{
    EXPECT_EQ(parse_depth("48k"), 48 * kibi);
    EXPECT_EQ(parse_depth("7m"), 7 * mebi);
}

TEST(ParseDepth, RejectsMalformed)
{
    EXPECT_THROW((void)parse_depth(""), ValidationError);
    EXPECT_THROW((void)parse_depth("K"), ValidationError);
    EXPECT_THROW((void)parse_depth("12Q"), ValidationError);
    EXPECT_THROW((void)parse_depth("abc"), ValidationError);
    EXPECT_THROW((void)parse_depth("-48K"), ValidationError);
    EXPECT_THROW((void)parse_depth("0"), ValidationError);
}

/// The message parse_depth rejects `text` with.
std::string depth_error(const std::string& text)
{
    try {
        (void)parse_depth(text);
    } catch (const ValidationError& error) {
        return error.what();
    }
    return "accepted";
}

TEST(ParseDepth, RejectsNonFiniteAndOutOfRangeValues)
{
    for (const char* text : {"nan", "NaN", "-nan", "inf", "infM", "-inf", "1e19", "9.3e18",
                             "9007199254740992K", "1e400", "1e400M"}) {
        EXPECT_EQ(depth_error(text), std::string("vector-memory depth out of range: '") + text + "'")
            << text;
    }
    // The largest double below 2^63 still converts exactly.
    EXPECT_EQ(parse_depth("9223372036854774784"), 9223372036854774784LL);
}

TEST(ParseDepth, RejectsValuesRoundingBelowOne)
{
    for (const char* text : {"0.4", "0.0000001M", "0.49", "-0.4"}) {
        EXPECT_EQ(depth_error(text), std::string("malformed vector-memory depth: '") + text + "'")
            << text;
    }
    EXPECT_EQ(parse_depth("0.5"), 1);
    EXPECT_EQ(parse_depth("0.001K"), 1);
}

TEST(FormatThroughput, EngineeringStyle)
{
    EXPECT_EQ(format_throughput(13000.0), "1.30e4");
    EXPECT_EQ(format_throughput(500.0), "500.0");
}

TEST(FormatSeconds, MillisecondResolution)
{
    EXPECT_EQ(format_seconds(1.4675), "1.468 s");
    EXPECT_EQ(format_seconds(0.0), "0.000 s");
}

TEST(FormatDollars, ThousandsSeparators)
{
    EXPECT_EQ(format_dollars(24000.0), "$24,000");
    EXPECT_EQ(format_dollars(8000.0), "$8,000");
    EXPECT_EQ(format_dollars(500.0), "$500");
    EXPECT_EQ(format_dollars(1234567.0), "$1,234,567");
}

TEST(ParseErrorType, CarriesFileAndLine)
{
    const ParseError error("bench.soc", 42, "bad token");
    EXPECT_EQ(error.file(), "bench.soc");
    EXPECT_EQ(error.line(), 42);
    EXPECT_NE(std::string(error.what()).find("bench.soc:42"), std::string::npos);
}

TEST(Rng, DeterministicForEqualSeeds)
{
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(a.uniform_int(0, 1'000'000), b.uniform_int(0, 1'000'000));
    }
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1);
    Rng b(2);
    int differences = 0;
    for (int i = 0; i < 32; ++i) {
        if (a.uniform_int(0, 1'000'000) != b.uniform_int(0, 1'000'000)) {
            ++differences;
        }
    }
    EXPECT_GT(differences, 0);
}

TEST(Rng, UniformIntStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const std::int64_t value = rng.uniform_int(5, 9);
        EXPECT_GE(value, 5);
        EXPECT_LE(value, 9);
    }
}

TEST(Rng, UniformRealStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const double value = rng.uniform_real(-1.5, 2.5);
        EXPECT_GE(value, -1.5);
        EXPECT_LT(value, 2.5);
    }
}

TEST(Rng, LogNormalIsPositive)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_GT(rng.log_normal(0.0, 1.0), 0.0);
    }
}

} // namespace
} // namespace mst
