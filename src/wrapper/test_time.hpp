// The scan test application time formula used throughout the paper.
#pragma once

#include <algorithm>

#include "common/types.hpp"

namespace mst {

/// Test application time in test-clock cycles for a wrapped module with
/// `patterns` test patterns, maximum wrapper scan-in length `max_scan_in`
/// and maximum wrapper scan-out length `max_scan_out`:
///
///   t = (1 + max(s_i, s_o)) * p + min(s_i, s_o)
///
/// (pipelined scan-in of the next pattern overlapped with scan-out of the
/// previous one, one capture cycle per pattern; [11], [14]).
[[nodiscard]] inline CycleCount scan_test_time(PatternCount patterns,
                                               FlipFlopCount max_scan_in,
                                               FlipFlopCount max_scan_out) noexcept
{
    const FlipFlopCount longer = std::max(max_scan_in, max_scan_out);
    const FlipFlopCount shorter = std::min(max_scan_in, max_scan_out);
    return (1 + longer) * patterns + shorter;
}

} // namespace mst
