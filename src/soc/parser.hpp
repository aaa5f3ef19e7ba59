// Reader for the .soc benchmark format.
//
// The format is a line-oriented rendition of the ITC'02 SOC Test
// Benchmarks [13], carrying exactly the fields the DATE'05 algorithm
// consumes. Grammar (one statement per line, '#' starts a comment):
//
//   soc <name>
//   module <name> inputs <n> outputs <n> bidirs <n> patterns <n> [scan <l1> <l2> ...]
//   end            # required terminator (guards against truncated files)
//
// Tokens are separated by spaces, tabs, '\r', '\v' or '\f'. Every <n> and
// <l> is a non-negative decimal integer (a leading '+' is allowed) that
// fits in int64; inputs, outputs and bidirs must also fit in an int.
//
// Example:
//
//   soc d695
//   module c6288 inputs 32 outputs 32 bidirs 0 patterns 12
//   module s9234 inputs 36 outputs 39 bidirs 0 patterns 105 scan 54 53 52 52
//   end
#pragma once

#include <iosfwd>
#include <string>

#include "soc/soc.hpp"

namespace mst {

/// Parse a .soc description from a stream, read to its end. `origin` is
/// used in error messages only. Throws ParseError if the stream fails
/// before its end or on malformed input, and ValidationError on
/// semantically invalid data.
[[nodiscard]] Soc parse_soc(std::istream& in, std::string_view origin = "<stream>");

/// Parse a .soc description held in a string.
[[nodiscard]] Soc parse_soc_string(const std::string& text, std::string_view origin = "<string>");

/// Load a .soc file from disk (or any readable path: a pipe loads like
/// a file). Throws ParseError if the path cannot be opened or read, or
/// the file is malformed.
[[nodiscard]] Soc load_soc_file(const std::string& path);

} // namespace mst
