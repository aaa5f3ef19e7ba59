#include "soc/parser.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <limits>
#include <optional>
#include <istream>
#include <string_view>
#include <vector>

#include "common/error.hpp"

namespace mst {

namespace {

/// The separators of `std::istream >> std::string` in the classic
/// locale, so tabs and the '\r' of a CRLF line end split tokens too.
/// Tested char by char: std::string_view::find_first_of is ~1.5x slower
/// over a whole gen1000x-wide file.
bool is_blank(char c) noexcept
{
    return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r';
}

/// Tokenize one logical line into `tokens` (cleared first), dropping
/// everything after a '#'. The views point into `line`.
void tokenize(std::string_view line, std::vector<std::string_view>& tokens)
{
    tokens.clear();
    line = line.substr(0, line.find('#'));
    std::size_t i = 0;
    while (true) {
        while (i < line.size() && is_blank(line[i])) {
            ++i;
        }
        if (i == line.size()) {
            return;
        }
        const std::size_t start = i;
        while (i < line.size() && !is_blank(line[i])) {
            ++i;
        }
        tokens.push_back(line.substr(start, i - start));
    }
}

/// Decimal int64 accepting exactly what a full-consumption std::stoll
/// accepts in a whitespace-free token: an optional sign ('+' included,
/// which std::from_chars alone rejects) followed by digits only.
std::optional<std::int64_t> to_int64(std::string_view token) noexcept
{
    if (!token.empty() && token.front() == '+') {
        token.remove_prefix(1);
        if (!token.empty() && token.front() == '-') {
            return std::nullopt;
        }
    }
    std::int64_t value = 0;
    const char* const end = token.data() + token.size();
    const auto [ptr, ec] = std::from_chars(token.data(), end, value);
    if (ec != std::errc() || ptr != end) {
        return std::nullopt;
    }
    return value;
}

std::int64_t parse_count(std::string_view token, std::string_view origin, int line_no,
                         std::string_view field)
{
    const std::optional<std::int64_t> value = to_int64(token);
    if (!value) {
        throw ParseError(origin, line_no,
                         "expected an integer for '" + std::string(field) + "', got '" +
                             std::string(token) + "'");
    }
    // Negative terminal counts, chain lengths, and pattern counts are
    // never meaningful; diagnose them here with the line number instead
    // of relying on downstream Module validation to notice.
    if (*value < 0) {
        throw ParseError(origin, line_no,
                         "expected a non-negative integer for '" + std::string(field) +
                             "', got '" + std::string(token) + "'");
    }
    return *value;
}

/// A terminal count, which Module stores as an int: values past INT_MAX
/// are diagnosed instead of silently truncated.
int to_terminals(std::int64_t value, std::string_view token, std::string_view origin,
                 int line_no, std::string_view field)
{
    constexpr int limit = std::numeric_limits<int>::max();
    if (value > limit) {
        throw ParseError(origin, line_no,
                         "'" + std::string(field) + "' must be at most " +
                             std::to_string(limit) + ", got '" + std::string(token) + "'");
    }
    return static_cast<int>(value);
}

Module parse_module_line(const std::vector<std::string_view>& tokens, std::string_view origin,
                         int line_no)
{
    if (tokens.size() < 2) {
        throw ParseError(origin, line_no, "'module' requires a name");
    }
    const std::string_view name = tokens[1];
    std::optional<int> inputs;
    std::optional<int> outputs;
    std::optional<int> bidirs;
    std::optional<PatternCount> patterns;
    std::vector<FlipFlopCount> chains;

    std::size_t i = 2;
    while (i < tokens.size()) {
        const std::string_view key = tokens[i];
        if (key == "scan") {
            chains.reserve(tokens.size() - i - 1);
            for (++i; i < tokens.size(); ++i) {
                chains.push_back(parse_count(tokens[i], origin, line_no, "scan chain length"));
            }
            break;
        }
        if (i + 1 >= tokens.size()) {
            throw ParseError(origin, line_no,
                             "field '" + std::string(key) + "' is missing its value");
        }
        const std::string_view token = tokens[i + 1];
        const std::int64_t value = parse_count(token, origin, line_no, key);
        if (key == "inputs") {
            inputs = to_terminals(value, token, origin, line_no, key);
        } else if (key == "outputs") {
            outputs = to_terminals(value, token, origin, line_no, key);
        } else if (key == "bidirs") {
            bidirs = to_terminals(value, token, origin, line_no, key);
        } else if (key == "patterns") {
            patterns = value;
        } else {
            throw ParseError(origin, line_no, "unknown module field '" + std::string(key) + "'");
        }
        i += 2;
    }

    if (!inputs || !outputs || !patterns) {
        throw ParseError(origin, line_no,
                         "module '" + std::string(name) +
                             "' must define inputs, outputs, and patterns");
    }
    try {
        return Module(std::string(name), *inputs, *outputs, bidirs.value_or(0), *patterns,
                      std::move(chains));
    } catch (const ValidationError& e) {
        throw ParseError(origin, line_no, e.what());
    }
}

/// Parse a whole .soc text. Lines split on '\n' exactly as std::getline
/// splits them, so line numbers in diagnostics are unchanged.
Soc parse_soc_text(std::string_view text, std::string_view origin)
{
    std::string soc_name;
    std::vector<Module> modules;
    bool ended = false;

    std::vector<std::string_view> tokens; // reused across lines
    int line_no = 0;
    std::size_t pos = 0;
    while (pos < text.size()) {
        const std::size_t end = std::min(text.find('\n', pos), text.size());
        const std::string_view line = text.substr(pos, end - pos);
        pos = end + 1;
        ++line_no;
        tokenize(line, tokens);
        if (tokens.empty()) {
            continue;
        }
        if (ended) {
            throw ParseError(origin, line_no, "content after 'end'");
        }
        const std::string_view keyword = tokens[0];
        if (keyword == "soc") {
            if (!soc_name.empty()) {
                throw ParseError(origin, line_no, "duplicate 'soc' statement");
            }
            if (tokens.size() != 2) {
                throw ParseError(origin, line_no, "'soc' requires exactly one name");
            }
            soc_name = tokens[1];
        } else if (keyword == "module") {
            if (soc_name.empty()) {
                throw ParseError(origin, line_no, "'module' before 'soc' statement");
            }
            modules.push_back(parse_module_line(tokens, origin, line_no));
        } else if (keyword == "end") {
            ended = true;
        } else {
            throw ParseError(origin, line_no, "unknown statement '" + std::string(keyword) + "'");
        }
    }

    if (soc_name.empty()) {
        throw ParseError(origin, line_no, "missing 'soc' statement");
    }
    if (!ended) {
        // A file that just stops is indistinguishable from one cut off
        // mid-transfer; require the 'end' terminator so truncation is a
        // diagnosed error instead of a silently shorter SOC.
        throw ParseError(origin, line_no, "missing 'end' statement (truncated file?)");
    }
    try {
        return Soc(soc_name, std::move(modules));
    } catch (const ValidationError& e) {
        throw ParseError(origin, line_no, e.what());
    }
}

} // namespace

Soc parse_soc(std::istream& in, std::string_view origin)
{
    // Read to the end of the stream, with no size lookup as a
    // precondition, so pipes and character devices load like files. A
    // regular file's buffer reports its remaining size as available, so
    // the first read (one byte past it, to meet the end) usually takes
    // the whole file; anything else reads on in doubling chunks.
    const std::streamsize available = in.rdbuf() != nullptr ? in.rdbuf()->in_avail() : 0;
    std::size_t chunk = static_cast<std::size_t>(std::max<std::streamsize>(available, 0)) + 1;
    std::string text;
    std::size_t length = 0;
    while (in) {
        text.resize(length + chunk);
        in.read(text.data() + length, static_cast<std::streamsize>(chunk));
        length += static_cast<std::size_t>(in.gcount());
        chunk = std::max(text.size(), std::size_t{64} << 10);
    }
    // Only a read that met the end of the stream sets eofbit. A read
    // error (a directory opens like a file but cannot be read) sets
    // badbit instead, and must not reach the parser as empty or cut-off
    // text.
    if (!in.eof()) {
        throw ParseError(origin, 0, "cannot read file");
    }
    text.resize(length);
    return parse_soc_text(text, origin);
}

Soc parse_soc_string(const std::string& text, std::string_view origin)
{
    return parse_soc_text(text, origin);
}

Soc load_soc_file(const std::string& path)
{
    std::ifstream file(path, std::ios::binary);
    if (!file) {
        throw ParseError(path, 0, "cannot open file");
    }
    return parse_soc(file, path);
}

} // namespace mst
