#include "common/format.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "common/error.hpp"

namespace mst {

std::string format_depth(CycleCount depth)
{
    char buffer[64];
    if (depth >= mebi) {
        if (depth % mebi == 0) {
            std::snprintf(buffer, sizeof buffer, "%lldM", static_cast<long long>(depth / mebi));
        } else {
            std::snprintf(buffer, sizeof buffer, "%.3fM", static_cast<double>(depth) / static_cast<double>(mebi));
        }
        return buffer;
    }
    if (depth >= kibi && depth % kibi == 0) {
        std::snprintf(buffer, sizeof buffer, "%lldK", static_cast<long long>(depth / kibi));
        return buffer;
    }
    std::snprintf(buffer, sizeof buffer, "%lld", static_cast<long long>(depth));
    return buffer;
}

CycleCount parse_depth(const std::string& text)
{
    if (text.empty()) {
        throw ValidationError("empty vector-memory depth");
    }
    CycleCount multiplier = 1;
    std::string digits = text;
    const char suffix = static_cast<char>(std::toupper(static_cast<unsigned char>(text.back())));
    if (suffix == 'K' || suffix == 'M') {
        multiplier = (suffix == 'K') ? kibi : mebi;
        digits.pop_back();
    }
    if (digits.empty()) {
        throw ValidationError("malformed vector-memory depth: '" + text + "'");
    }
    std::size_t consumed = 0;
    double value = 0.0;
    try {
        value = std::stod(digits, &consumed);
    } catch (const std::out_of_range&) {
        throw ValidationError("vector-memory depth out of range: '" + text + "'");
    } catch (const std::exception&) {
        throw ValidationError("malformed vector-memory depth: '" + text + "'");
    }
    if (consumed != digits.size()) {
        throw ValidationError("malformed vector-memory depth: '" + text + "'");
    }
    // llround of a NaN, an infinity or anything past the int64 range
    // returns LLONG_MIN, so those never reach it. 2^63 is exact in a
    // double, and every double below it rounds to a valid int64.
    const double scaled = value * static_cast<double>(multiplier);
    if (!std::isfinite(scaled) || scaled >= 9223372036854775808.0) {
        throw ValidationError("vector-memory depth out of range: '" + text + "'");
    }
    const auto depth = static_cast<CycleCount>(scaled > 0.0 ? std::llround(scaled) : 0);
    if (depth < 1) {
        throw ValidationError("malformed vector-memory depth: '" + text + "'");
    }
    return depth;
}

std::string format_throughput(DevicesPerHour value)
{
    char buffer[64];
    if (value >= 1000.0) {
        const double exponent = std::floor(std::log10(value));
        const double mantissa = value / std::pow(10.0, exponent);
        std::snprintf(buffer, sizeof buffer, "%.2fe%d", mantissa, static_cast<int>(exponent));
    } else {
        std::snprintf(buffer, sizeof buffer, "%.1f", value);
    }
    return buffer;
}

std::string format_seconds(Seconds value)
{
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%.3f s", value);
    return buffer;
}

std::string format_dollars(UsDollars value)
{
    char digits[64];
    std::snprintf(digits, sizeof digits, "%.0f", value);
    std::string raw = digits;
    std::string out;
    const bool negative = !raw.empty() && raw.front() == '-';
    if (negative) {
        raw.erase(raw.begin());
    }
    int count = 0;
    for (auto it = raw.rbegin(); it != raw.rend(); ++it) {
        if (count != 0 && count % 3 == 0) {
            out.push_back(',');
        }
        out.push_back(*it);
        ++count;
    }
    if (negative) {
        out.push_back('-');
    }
    out.push_back('$');
    return {out.rbegin(), out.rend()};
}

} // namespace mst
