#include "wrapper/time_calculator.hpp"

#include <algorithm>
#include <functional>

#include "common/error.hpp"
#include "wrapper/test_time.hpp"

namespace mst {

namespace {

/// Ceiling of the average load after water-filling `cells` unit items
/// onto `width` wrapper chains whose scan loads sum to `total`. The
/// greedy fill (each cell onto the currently shortest chain) realizes
/// the optimal maximum, which is max(scan maximum, waterline): the peak
/// while the valleys absorb the cells, the waterline once they overflow.
FlipFlopCount waterline(FlipFlopCount total, int cells, WireCount width) noexcept
{
    return (total + cells + width - 1) / width;
}

} // namespace

WrapperTimeCalculator::WrapperTimeCalculator(const Module& module) : module_(&module)
{
    sorted_lengths_ = module.scan_chain_lengths();
    std::stable_sort(sorted_lengths_.begin(), sorted_lengths_.end(),
                     std::greater<FlipFlopCount>());
    for (const FlipFlopCount length : sorted_lengths_) {
        total_flip_flops_ += length;
    }
    longest_chain_ = sorted_lengths_.empty() ? 0 : sorted_lengths_.front();
}

FlipFlopCount WrapperTimeCalculator::lpt_max_load(WireCount width) const
{
    // A local buffer keeps const time() safe to call from many threads.
    std::vector<FlipFlopCount> loads;
    return lpt_max_load(width, loads);
}

FlipFlopCount WrapperTimeCalculator::lpt_max_load(WireCount width,
                                                  std::vector<FlipFlopCount>& loads) const
{
    // With at least one wrapper chain per scan chain, LPT places every
    // chain alone: the bottleneck is the longest chain.
    if (static_cast<std::size_t>(width) >= sorted_lengths_.size()) {
        return longest_chain_;
    }
    // Loads-only LPT: longest chain first onto the currently shortest
    // wrapper chain. Which equal-load chain receives a chain does not
    // affect the evolving load multiset, so tracking loads alone yields
    // the same maximum as the index-tie-broken heap in design_wrapper.
    // The first `width` chains each land on an empty wrapper chain, so
    // they are loaded directly: reversed, the descending prefix is
    // ascending, which is already a valid min-heap.
    const auto first = sorted_lengths_.begin();
    loads.assign(std::make_reverse_iterator(first + width), std::make_reverse_iterator(first));
    const auto min_heap = std::greater<FlipFlopCount>();
    for (auto it = first + width; it != sorted_lengths_.end(); ++it) {
        std::pop_heap(loads.begin(), loads.end(), min_heap);
        loads.back() += *it;
        std::push_heap(loads.begin(), loads.end(), min_heap);
    }
    return *std::max_element(loads.begin(), loads.end());
}

CycleCount WrapperTimeCalculator::time(WireCount width) const
{
    std::vector<FlipFlopCount> loads;
    return time(width, loads);
}

CycleCount WrapperTimeCalculator::time(WireCount width,
                                       std::vector<FlipFlopCount>& loads_scratch) const
{
    if (width < 1) {
        throw ValidationError("wrapper width must be at least 1 wire (module '" +
                              module_->name() + "')");
    }
    const FlipFlopCount waterline_in =
        waterline(total_flip_flops_, module_->scan_in_cells(), width);
    const FlipFlopCount waterline_out =
        waterline(total_flip_flops_, module_->scan_out_cells(), width);
    // The scan maximum enters the time only through max(scan_max,
    // waterline) on each side, so LPT is skipped whenever an upper bound
    // UB >= scan_max lies at or under both waterlines: then both maxima
    // are the waterlines whatever LPT would return. Let p1 >= ... >= pn
    // be the sorted chain lengths, S_j their prefix sums and T = S_n.
    // At width >= n every chain sits alone and scan_max = p1 exactly.
    // At width < n the first `width` chains sit alone (loads <= p1), and
    // chain j > width (p_j <= p_{width+1}) joins the least-loaded wrapper
    // chain, whose load is at most the average S_{j-1}/width and, being
    // an integer, at most floor(S_{j-1}/width) <= floor((T - pn)/width).
    // So every final load is at most
    //   UB = max(p1, floor((T - pn)/width) + p_{width+1}).
    const std::size_t n = sorted_lengths_.size();
    FlipFlopCount scan_bound = longest_chain_;
    if (static_cast<std::size_t>(width) < n) {
        scan_bound = std::max(longest_chain_,
                              (total_flip_flops_ - sorted_lengths_.back()) / width +
                                  sorted_lengths_[static_cast<std::size_t>(width)]);
    }
    if (std::min(waterline_in, waterline_out) >= scan_bound) {
        return scan_test_time(module_->patterns(), waterline_in, waterline_out);
    }
    const FlipFlopCount scan_max = lpt_max_load(width, loads_scratch);
    return scan_test_time(module_->patterns(), std::max(scan_max, waterline_in),
                          std::max(scan_max, waterline_out));
}

} // namespace mst
