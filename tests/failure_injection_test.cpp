// Failure-injection tests: every external failure mode (malformed files,
// impossible testers, hostile parameters) must surface as a typed mst
// exception, never as a crash or silent wrong answer.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "core/optimizer.hpp"
#include "soc/d695.hpp"
#include "soc/parser.hpp"
#include "soc/writer.hpp"

namespace mst {
namespace {

TEST(FailureInjection, TruncatedFileInMidModule)
{
    EXPECT_THROW((void)parse_soc_string("soc x\nmodule broken inputs 3 outputs"), ParseError);
}

TEST(FailureInjection, BinaryGarbage)
{
    const std::string garbage = std::string("\x7f""ELF\x02\x01\x01", 7) + "\x00\x90\x90";
    EXPECT_THROW((void)parse_soc_string(garbage), ParseError);
}

TEST(FailureInjection, HugeNumbersOverflowGracefully)
{
    // Numbers beyond int64 must raise ParseError, not UB.
    EXPECT_THROW(
        (void)parse_soc_string("soc x\nmodule m inputs 1 outputs 1 patterns 999999999999999999999\n"),
        ParseError);
}

TEST(FailureInjection, TerminalCountsPastIntMaxAreRejected)
{
    // Terminal counts are stored as int: 2^32 + 1 must not wrap to 1.
    for (const std::string field : {"inputs", "outputs", "bidirs"}) {
        std::string text = "soc x\nmodule m inputs 1 outputs 1 bidirs 0 patterns 1\nend\n";
        text.replace(text.find(field + " ") + field.size() + 1, 1, "4294967297");
        try {
            (void)parse_soc_string(text, "big.soc");
            FAIL() << "expected ParseError for " << field;
        } catch (const ParseError& error) {
            EXPECT_EQ(error.line(), 2);
            EXPECT_EQ(std::string(error.what()),
                      "big.soc:2: '" + field + "' must be at most 2147483647, got '4294967297'");
        }
    }
    // INT_MAX itself still parses, but not when a derived width (cells
    // per side plus scan chains) would pass it.
    const Soc soc = parse_soc_string(
        "soc x\nmodule m inputs 2147483647 outputs 1 patterns 1\nend\n");
    EXPECT_EQ(soc.module(0).inputs(), 2147483647);
    EXPECT_EQ(soc.module(0).max_useful_width(), 2147483647);
    for (const std::string extra : {"bidirs 1", "scan 5"}) {
        const std::string text =
            "soc x\nmodule m inputs 1 outputs 2147483647 patterns 1 " + extra + "\nend\n";
        try {
            (void)parse_soc_string(text, "wide.soc");
            FAIL() << "expected ParseError for " << extra;
        } catch (const ParseError& error) {
            EXPECT_EQ(std::string(error.what()),
                      "wide.soc:2: module 'm' has more terminals and scan chains than "
                      "2147483647");
        }
    }
}

TEST(FailureInjection, NegativeScanChain)
{
    EXPECT_THROW(
        (void)parse_soc_string("soc x\nmodule m inputs 1 outputs 1 patterns 1 scan -4\n"),
        ParseError);
}

TEST(FailureInjection, UnwritableSavePath)
{
    EXPECT_THROW(save_soc_file("/nonexistent-dir/sub/out.soc", make_d695()), Error);
}

TEST(FailureInjection, ZeroChannelAte)
{
    TestCell cell;
    cell.ate.channels = 0;
    EXPECT_THROW((void)optimize_multi_site(make_d695(), cell), ValidationError);
}

TEST(FailureInjection, NegativeIndexTime)
{
    TestCell cell;
    cell.prober.index_time = -1.0;
    EXPECT_THROW((void)optimize_multi_site(make_d695(), cell), ValidationError);
}

TEST(FailureInjection, OutOfRangeYields)
{
    TestCell cell;
    OptimizeOptions options;
    options.yields.manufacturing_yield = 1.0001;
    EXPECT_THROW((void)optimize_multi_site(make_d695(), cell, options), ValidationError);
}

TEST(FailureInjection, SingleChannelPairButGiantSoc)
{
    TestCell cell;
    cell.ate.channels = 2;
    cell.ate.vector_memory_depth = 48 * kibi;
    EXPECT_THROW((void)optimize_multi_site(make_d695(), cell), InfeasibleError);
}

TEST(FailureInjection, DepthOfOneCycle)
{
    TestCell cell;
    cell.ate.vector_memory_depth = 1;
    EXPECT_THROW((void)optimize_multi_site(make_d695(), cell), InfeasibleError);
}

TEST(FailureInjection, InfeasibleErrorsAreDistinguishable)
{
    // Callers must be able to tell "your data is malformed" from "this
    // tester cannot test this SOC".
    TestCell cell;
    cell.ate.vector_memory_depth = 1;
    try {
        (void)optimize_multi_site(make_d695(), cell);
        FAIL() << "expected InfeasibleError";
    } catch (const InfeasibleError& e) {
        EXPECT_NE(std::string(e.what()).find("does not fit"), std::string::npos);
    } catch (const ValidationError&) {
        FAIL() << "wrong error category";
    }
}

TEST(FailureInjection, ExtremeButLegalParametersStayFinite)
{
    // A pathological-but-legal cell: glacial clock, long index time.
    TestCell cell;
    cell.ate.channels = 256;
    cell.ate.vector_memory_depth = 1 * mebi;
    cell.ate.test_clock_hz = 1.0;
    cell.prober.index_time = 3600.0;
    const Solution solution = optimize_multi_site(make_d695(), cell);
    EXPECT_GT(solution.best_throughput(), 0.0);
    EXPECT_TRUE(std::isfinite(solution.best_throughput()));
    EXPECT_TRUE(std::isfinite(solution.manufacturing_time));
}

TEST(FailureInjection, ContactYieldZeroIsLegalButGrim)
{
    TestCell cell;
    cell.ate.channels = 256;
    cell.ate.vector_memory_depth = 64 * kibi;
    OptimizeOptions options;
    options.yields.contact_yield_per_terminal = 0.0;
    options.retest = RetestPolicy::retest_contact_failures;
    const Solution solution = optimize_multi_site(make_d695(), cell, options);
    // Every device fails contact: half the hourly slots are re-tests.
    EXPECT_NEAR(solution.throughput.retest_fraction, 1.0, 1e-12);
    EXPECT_NEAR(solution.throughput.unique_devices_per_hour,
                solution.throughput.devices_per_hour / 2.0, 1e-9);
}

} // namespace
} // namespace mst
