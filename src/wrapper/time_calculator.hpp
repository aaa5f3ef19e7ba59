// Fast, exact wrapper test-time evaluation.
//
// Building the time tables dominated the optimizer's wall time: the
// staircase needs wrapped_test_time(module, w) for every width w, and
// the full design path re-sorts the module's scan chains, materializes a
// WrapperDesign, and water-fills the functional cells one by one on
// every call. Only three numbers per width survive into the time
// formula: the LPT maximum aggregate scan length and the two water-fill
// maxima — and the water-fill maxima have closed forms.
//
// The staircase kernel sorts the chains once per module. Below the
// chain count n it runs a loads-only LPT only where a cheap upper bound
// on the LPT maximum exceeds one of the two waterlines (the ceiling of
// the average load with each side's cells); otherwise the scan maximum
// cannot change the time and is never computed. The LPT places runs of
// equal chains in batches rather than one by one. From width n on every
// chain sits alone, the time depends only on the two waterlines, and the
// kernel steps whole intervals of constant time instead of single
// widths. Test times are byte-identical to design_wrapper (asserted
// exhaustively by tests/wrapper_time_test.cpp).
#pragma once

#include <cstddef>

#include "soc/module.hpp"

namespace mst {

/// Evaluator of design_wrapper(...).test_time for one module.
class WrapperTimeCalculator {
public:
    explicit WrapperTimeCalculator(const Module& module) noexcept : module_(&module) {}

    [[nodiscard]] const Module& module() const noexcept { return *module_; }

    /// Test time of `module` wrapped at `width`; equals
    /// design_wrapper(module, width).test_time exactly. The per-width
    /// query, for tests and one-off callers: it sorts the chains on every
    /// call. Throws ValidationError if width < 1.
    [[nodiscard]] CycleCount time(WireCount width) const;

    /// Fill `times[0, count)` with the running minimum of time(w) over
    /// widths 1..count: the TableBuild::fast staircase. Allocation-free
    /// once the calling thread's scratch buffers have grown.
    void staircase(CycleCount* times, std::size_t count) const;

private:
    const Module* module_;
};

} // namespace mst
