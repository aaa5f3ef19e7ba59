// Fast, exact wrapper test-time evaluation.
//
// Building the time tables dominated the optimizer's wall time: the
// staircase needs wrapped_test_time(module, w) for every width w, and
// the full design path re-sorts the module's scan chains, materializes a
// WrapperDesign, and water-fills the functional cells one by one on
// every call. Only three numbers per width survive into the time
// formula: the LPT maximum aggregate scan length and the two water-fill
// maxima — and the water-fill maxima have closed forms. The calculator
// sorts the chains once per module. A width runs the loads-only LPT heap
// only when it has fewer wrapper chains than scan chains and a cheap
// upper bound on the LPT maximum exceeds one of the two waterlines (the
// ceiling of the average load with each side's cells); otherwise the
// scan maximum cannot change the time and is never computed. Test
// times are byte-identical to design_wrapper (asserted exhaustively by
// tests/wrapper_time_test.cpp).
#pragma once

#include <vector>

#include "soc/module.hpp"

namespace mst {

/// Reusable per-module evaluator of design_wrapper(...).test_time.
class WrapperTimeCalculator {
public:
    explicit WrapperTimeCalculator(const Module& module);

    [[nodiscard]] const Module& module() const noexcept { return *module_; }

    /// Test time of `module` wrapped at `width`; equals
    /// design_wrapper(module, width).test_time exactly.
    /// Throws ValidationError if width < 1.
    [[nodiscard]] CycleCount time(WireCount width) const;

    /// Same result as time(), but the LPT load heap lives in
    /// `loads_scratch` (cleared and reused per call). The table build
    /// evaluates every width of every module in a tight loop; reusing
    /// one buffer per build task keeps that loop allocation-free.
    [[nodiscard]] CycleCount time(WireCount width,
                                  std::vector<FlipFlopCount>& loads_scratch) const;

private:
    /// LPT maximum aggregate scan length over `width` wrapper chains.
    [[nodiscard]] FlipFlopCount lpt_max_load(WireCount width) const;
    [[nodiscard]] FlipFlopCount lpt_max_load(WireCount width,
                                             std::vector<FlipFlopCount>& loads) const;

    const Module* module_;
    std::vector<FlipFlopCount> sorted_lengths_; ///< chain lengths, descending
    FlipFlopCount total_flip_flops_ = 0;
    FlipFlopCount longest_chain_ = 0;
};

} // namespace mst
