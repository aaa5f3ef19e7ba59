// Unit tests for the .soc parser and writer, including the round-trip
// property parse(write(soc)) == soc.
#include <gtest/gtest.h>

#include <sys/stat.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/error.hpp"
#include "soc/d695.hpp"
#include "soc/parser.hpp"
#include "soc/writer.hpp"

namespace mst {
namespace {

constexpr const char* minimal_soc = R"(# a comment
soc demo
module alpha inputs 3 outputs 2 bidirs 1 patterns 7 scan 10 9
module beta inputs 1 outputs 1 patterns 2
end
)";

TEST(SocParser, ParsesMinimalFile)
{
    const Soc soc = parse_soc_string(minimal_soc);
    EXPECT_EQ(soc.name(), "demo");
    ASSERT_EQ(soc.module_count(), 2);
    const Module& alpha = soc.module(0);
    EXPECT_EQ(alpha.inputs(), 3);
    EXPECT_EQ(alpha.outputs(), 2);
    EXPECT_EQ(alpha.bidirs(), 1);
    EXPECT_EQ(alpha.patterns(), 7);
    ASSERT_EQ(alpha.scan_chain_count(), 2);
    EXPECT_EQ(alpha.scan_chain_lengths()[0], 10);
    EXPECT_EQ(alpha.scan_chain_lengths()[1], 9);
    EXPECT_EQ(soc.module(1).bidirs(), 0); // bidirs defaults to zero
}

TEST(SocParser, RejectsMissingEndAsTruncation)
{
    // A file that just stops (no 'end') reads as truncated; the error
    // points at the last line seen.
    try {
        (void)parse_soc_string("soc x\nmodule m inputs 1 outputs 1 patterns 1\n", "cut.soc");
        FAIL() << "expected ParseError";
    } catch (const ParseError& error) {
        EXPECT_EQ(error.line(), 2);
        EXPECT_EQ(error.file(), "cut.soc");
        EXPECT_NE(std::string(error.what()).find("end"), std::string::npos);
    }
}

TEST(SocParser, IgnoresCommentsAndBlankLines)
{
    const Soc soc = parse_soc_string(
        "\n# header\n  \nsoc x # trailing\nmodule m inputs 1 outputs 1 patterns 1 # eol\n\nend\n");
    EXPECT_EQ(soc.name(), "x");
    EXPECT_EQ(soc.module_count(), 1);
}

TEST(SocParser, FieldsInAnyOrder)
{
    const Soc soc =
        parse_soc_string("soc x\nmodule m patterns 5 outputs 2 inputs 3\nend\n");
    EXPECT_EQ(soc.module(0).patterns(), 5);
    EXPECT_EQ(soc.module(0).inputs(), 3);
}

TEST(SocParser, RejectsNegativeCountsWithLineNumbers)
{
    // Negative scan-chain lengths and pattern counts are diagnosed by the
    // parser itself, with the offending line, not by downstream Module
    // validation (which has no position information).
    try {
        (void)parse_soc_string("soc x\nmodule ok inputs 1 outputs 1 patterns 1 scan 4\n"
                               "module bad inputs 1 outputs 1 patterns 1 scan 4 -3\nend\n",
                               "neg.soc");
        FAIL() << "expected ParseError";
    } catch (const ParseError& error) {
        EXPECT_EQ(error.line(), 3);
        EXPECT_NE(std::string(error.what()).find("non-negative"), std::string::npos);
    }
    try {
        (void)parse_soc_string("soc x\nmodule m inputs 1 outputs 1 patterns -7\nend\n");
        FAIL() << "expected ParseError";
    } catch (const ParseError& error) {
        EXPECT_EQ(error.line(), 2);
    }
    EXPECT_THROW((void)parse_soc_string("soc x\nmodule m inputs -1 outputs 1 patterns 1\nend\n"),
                 ParseError);
}

TEST(SocParser, ErrorsCarryLineNumbers)
{
    try {
        (void)parse_soc_string("soc x\nmodule m inputs 1 outputs 1 patterns oops\n", "t.soc");
        FAIL() << "expected ParseError";
    } catch (const ParseError& error) {
        EXPECT_EQ(error.line(), 2);
        EXPECT_EQ(error.file(), "t.soc");
    }
}

TEST(SocParser, RejectsModuleBeforeSoc)
{
    EXPECT_THROW((void)parse_soc_string("module m inputs 1 outputs 1 patterns 1\n"), ParseError);
}

TEST(SocParser, RejectsDuplicateSocStatement)
{
    EXPECT_THROW((void)parse_soc_string("soc a\nsoc b\n"), ParseError);
}

TEST(SocParser, RejectsUnknownStatement)
{
    EXPECT_THROW((void)parse_soc_string("soc a\nwibble\n"), ParseError);
}

TEST(SocParser, RejectsUnknownModuleField)
{
    EXPECT_THROW((void)parse_soc_string("soc a\nmodule m inputs 1 outputs 1 patterns 1 clocks 2\n"),
                 ParseError);
}

TEST(SocParser, RejectsMissingValue)
{
    EXPECT_THROW((void)parse_soc_string("soc a\nmodule m inputs\n"), ParseError);
}

TEST(SocParser, RejectsMissingMandatoryFields)
{
    EXPECT_THROW((void)parse_soc_string("soc a\nmodule m inputs 1 outputs 1\n"), ParseError);
    EXPECT_THROW((void)parse_soc_string("soc a\nmodule m patterns 1\n"), ParseError);
}

TEST(SocParser, RejectsContentAfterEnd)
{
    EXPECT_THROW(
        (void)parse_soc_string("soc a\nmodule m inputs 1 outputs 1 patterns 1\nend\nsoc b\n"),
        ParseError);
}

TEST(SocParser, RejectsMissingSoc)
{
    EXPECT_THROW((void)parse_soc_string("# nothing here\n"), ParseError);
}

TEST(SocParser, RejectsSemanticErrorsAsParseErrors)
{
    // Validation failures surface as ParseError with position info.
    EXPECT_THROW((void)parse_soc_string("soc a\nmodule m inputs 1 outputs 1 patterns 0\n"),
                 ParseError);
    EXPECT_THROW((void)parse_soc_string("soc a\nmodule m inputs 1 outputs 1 patterns 1 scan 0\n"),
                 ParseError);
}

TEST(SocParser, RejectsDuplicateModules)
{
    EXPECT_THROW((void)parse_soc_string("soc a\n"
                                        "module m inputs 1 outputs 1 patterns 1\n"
                                        "module m inputs 1 outputs 1 patterns 1\n"),
                 ParseError);
}

/// The full ParseError text for `text`, or "" when it parses.
std::string parse_error_of(const std::string& text)
{
    try {
        (void)parse_soc_string(text, "t.soc");
    } catch (const ParseError& error) {
        return error.what();
    }
    return "";
}

std::string with_patterns(const std::string& token)
{
    return "soc x\nmodule m inputs 1 outputs 1 patterns " + token + "\nend\n";
}

TEST(SocParser, AcceptsSignedIntegerTokens)
{
    // The integer rule is a full-consumption std::stoll: an optional sign,
    // a leading '+' included, then decimal digits only.
    EXPECT_EQ(parse_soc_string(with_patterns("+5")).module(0).patterns(), 5);
    EXPECT_EQ(parse_soc_string(with_patterns("007")).module(0).patterns(), 7);
    const Soc soc = parse_soc_string(
        "soc x\nmodule m inputs +2 outputs 1 bidirs -0 patterns 1 scan +4\nend\n");
    EXPECT_EQ(soc.module(0).inputs(), 2);
    EXPECT_EQ(soc.module(0).bidirs(), 0);
    ASSERT_EQ(soc.module(0).scan_chain_count(), 1);
    EXPECT_EQ(soc.module(0).scan_chain_lengths()[0], 4);
}

TEST(SocParser, RejectsMalformedIntegerTokensWithExactMessages)
{
    for (const std::string token : {"12x", "0x10", "1e3", "+", "-", "+-5", "++5", "--5", " 5x",
                                    "9223372036854775808", "-9223372036854775809"}) {
        const std::string trimmed = token.substr(token.find_first_not_of(' '));
        EXPECT_EQ(parse_error_of(with_patterns(token)),
                  "t.soc:2: expected an integer for 'patterns', got '" + trimmed + "'")
            << token;
    }
    EXPECT_EQ(parse_error_of(with_patterns("-9223372036854775808")),
              "t.soc:2: expected a non-negative integer for 'patterns', got "
              "'-9223372036854775808'");
    EXPECT_EQ(parse_error_of("soc x\nmodule m inputs 1 outputs 1 patterns 1 scan 3 4x\nend\n"),
              "t.soc:2: expected an integer for 'scan chain length', got '4x'");
    // An unknown field's value is checked before the field name.
    EXPECT_EQ(parse_error_of("soc x\nmodule m pins 4x inputs 1 outputs 1 patterns 1\nend\n"),
              "t.soc:2: expected an integer for 'pins', got '4x'");
    EXPECT_EQ(parse_error_of("soc x\nmodule m pins 4 inputs 1 outputs 1 patterns 1\nend\n"),
              "t.soc:2: unknown module field 'pins'");
}

TEST(SocParser, CommentEndsTheTokenAndTheLine)
{
    // '#' inside a token ends it: "5#x" reads as 5 and drops the rest of
    // the line, so fields after it are missing.
    EXPECT_EQ(parse_soc_string(with_patterns("5#x")).module(0).patterns(), 5);
    EXPECT_EQ(parse_error_of("soc x\nmodule m inputs 5#x outputs 1 patterns 1\nend\n"),
              "t.soc:2: module 'm' must define inputs, outputs, and patterns");
}

TEST(SocParser, TabsAndCarriageReturnsSeparateTokens)
{
    const Soc soc = parse_soc_string(
        "soc\tx\r\nmodule\tm\tinputs 3\voutputs\f2 patterns 1\tscan 4\t5\r\n\r\nend\r\n");
    EXPECT_EQ(soc.name(), "x");
    EXPECT_EQ(soc.module(0).inputs(), 3);
    EXPECT_EQ(soc.module(0).outputs(), 2);
    EXPECT_EQ(soc.module(0).scan_chain_count(), 2);
    // Line numbers count '\n' only, whatever ends the line.
    EXPECT_EQ(parse_error_of("soc x\r\n\r\nbogus\r\n"), "t.soc:3: unknown statement 'bogus'");
    EXPECT_EQ(parse_error_of("soc x\nmodule m inputs 1 outputs 1 patterns 1"),
              "t.soc:2: missing 'end' statement (truncated file?)");
    EXPECT_EQ(parse_error_of("soc x\n\n"), "t.soc:2: missing 'end' statement (truncated file?)");
    EXPECT_EQ(parse_error_of(""), "t.soc:0: missing 'soc' statement");
}

TEST(SocWriter, RoundTripsD695)
{
    const Soc original = make_d695();
    const Soc reparsed = parse_soc_string(soc_to_string(original));
    ASSERT_EQ(reparsed.module_count(), original.module_count());
    EXPECT_EQ(reparsed.name(), original.name());
    for (int m = 0; m < original.module_count(); ++m) {
        const Module& a = original.module(m);
        const Module& b = reparsed.module(m);
        EXPECT_EQ(a.name(), b.name());
        EXPECT_EQ(a.inputs(), b.inputs());
        EXPECT_EQ(a.outputs(), b.outputs());
        EXPECT_EQ(a.bidirs(), b.bidirs());
        EXPECT_EQ(a.patterns(), b.patterns());
        EXPECT_EQ(a.scan_chain_lengths(), b.scan_chain_lengths());
    }
}

TEST(SocWriter, FileRoundTrip)
{
    const std::string path = testing::TempDir() + "/mst_writer_roundtrip.soc";
    const Soc original = make_d695();
    save_soc_file(path, original);
    const Soc loaded = load_soc_file(path);
    EXPECT_EQ(loaded.name(), original.name());
    EXPECT_EQ(loaded.module_count(), original.module_count());
    std::remove(path.c_str());
}

TEST(SocLoader, MissingFileThrows)
{
    EXPECT_THROW((void)load_soc_file("/nonexistent/dir/foo.soc"), ParseError);
}

TEST(SocParser, StreamReadsToItsEnd)
{
    std::istringstream in(minimal_soc);
    EXPECT_EQ(parse_soc(in).module_count(), 2);
}

TEST(SocParser, FailedStreamIsUnreadable)
{
    // A stream that stops before its end is an error, never empty text.
    std::istringstream in(minimal_soc);
    in.setstate(std::ios::failbit);
    try {
        (void)parse_soc(in, "failed");
        ADD_FAILURE() << "a failed stream parsed";
    } catch (const ParseError& e) {
        EXPECT_EQ(e.line(), 0);
        EXPECT_NE(std::string(e.what()).find("cannot read file"), std::string::npos) << e.what();
    }
}

/// The message of the ParseError `load_soc_file(path)` throws.
std::string load_error(const std::string& path)
{
    try {
        (void)load_soc_file(path);
    } catch (const ParseError& e) {
        EXPECT_EQ(e.file(), path);
        EXPECT_EQ(e.line(), 0);
        return e.what();
    }
    ADD_FAILURE() << path << " loaded";
    return {};
}

TEST(SocLoader, DirectoryIsAnUnreadableFile)
{
    const std::string message = load_error(testing::TempDir());
    EXPECT_NE(message.find("cannot read file"), std::string::npos) << message;
}

TEST(SocLoader, NamedPipeLoadsLikeAFile)
{
    // A pipe has no size to look up; it must read to its end, here
    // across more than one 64 KiB chunk.
    std::string text = "soc piped\n";
    for (int m = 0; m < 3000; ++m) {
        text += "module m" + std::to_string(m) + " inputs 4 outputs 4 patterns 9 scan 12 11\n";
    }
    text += "end\n";
    ASSERT_GT(text.size(), std::size_t{64} << 10);
    const std::string path = testing::TempDir() + "/mst_pipe.soc";
    std::remove(path.c_str());
    ASSERT_EQ(::mkfifo(path.c_str(), 0600), 0);
    std::thread writer([&] { std::ofstream(path) << text; });
    const Soc soc = load_soc_file(path);
    writer.join();
    EXPECT_EQ(soc.name(), "piped");
    EXPECT_EQ(soc.module_count(), 3000);
    std::remove(path.c_str());
}

TEST(SocLoader, EmptyFileIsMissingItsSocStatement)
{
    const std::string path = testing::TempDir() + "/mst_empty.soc";
    std::ofstream(path).close();
    const std::string message = load_error(path);
    EXPECT_NE(message.find("missing 'soc' statement"), std::string::npos) << message;
    std::remove(path.c_str());
}

} // namespace
} // namespace mst
