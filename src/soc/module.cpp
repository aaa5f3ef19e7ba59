#include "soc/module.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "common/error.hpp"

namespace mst {

Module::Module(std::string name,
               int inputs,
               int outputs,
               int bidirs,
               PatternCount patterns,
               std::vector<FlipFlopCount> scan_chain_lengths)
    : name_(std::move(name)),
      inputs_(inputs),
      outputs_(outputs),
      bidirs_(bidirs),
      patterns_(patterns),
      scan_chain_lengths_(std::move(scan_chain_lengths))
{
    if (name_.empty()) {
        throw ValidationError("module must have a non-empty name");
    }
    if (inputs_ < 0 || outputs_ < 0 || bidirs_ < 0) {
        throw ValidationError("module '" + name_ + "' has a negative terminal count");
    }
    if (patterns_ <= 0) {
        throw ValidationError("module '" + name_ + "' must have at least one test pattern");
    }
    const bool bad_chain = std::any_of(scan_chain_lengths_.begin(), scan_chain_lengths_.end(),
                                       [](FlipFlopCount l) { return l <= 0; });
    if (bad_chain) {
        throw ValidationError("module '" + name_ + "' has a scan chain of non-positive length");
    }
    // Cells per side and max_useful_width() are ints: reject counts whose
    // sums would overflow them.
    const std::int64_t widest = std::int64_t{std::max(inputs_, outputs_)} + bidirs_ +
                                static_cast<std::int64_t>(scan_chain_lengths_.size());
    if (widest > std::numeric_limits<int>::max()) {
        throw ValidationError("module '" + name_ + "' has more terminals and scan chains than " +
                              std::to_string(std::numeric_limits<int>::max()));
    }
    if (inputs_ == 0 && outputs_ == 0 && bidirs_ == 0 && scan_chain_lengths_.empty()) {
        throw ValidationError("module '" + name_ + "' has neither terminals nor scan chains");
    }
}

FlipFlopCount Module::total_scan_flip_flops() const noexcept
{
    return std::accumulate(scan_chain_lengths_.begin(), scan_chain_lengths_.end(),
                           FlipFlopCount{0});
}

WireCount Module::max_useful_width() const noexcept
{
    // Each scan chain is indivisible; functional cells can be spread one
    // per wrapper chain. More wires than (chains + max(in-cells, out-cells))
    // leaves wires idle.
    const int cells = std::max(scan_in_cells(), scan_out_cells());
    const WireCount width = scan_chain_count() + cells;
    return std::max(width, 1);
}

std::int64_t Module::test_data_volume_bits() const noexcept
{
    const std::int64_t scan_in_bits = total_scan_flip_flops() + scan_in_cells();
    const std::int64_t scan_out_bits = total_scan_flip_flops() + scan_out_cells();
    return patterns_ * (scan_in_bits + scan_out_bits);
}

} // namespace mst
