#include "wrapper/pareto.hpp"

#include <algorithm>
#include <limits>

#include "common/error.hpp"
#include "wrapper/time_calculator.hpp"
#include "wrapper/wrapper_design.hpp"

namespace mst {

ModuleTimeTable::ModuleTimeTable(const Module& module, WireCount max_width, TableBuild build)
    : module_(&module)
{
    WireCount limit = (max_width > 0) ? max_width : module.max_useful_width();
    limit = std::clamp(limit, 1, width_cap);
    // Early saturation: once w covers every scan chain (LPT then puts
    // each chain alone, so the scan bottleneck is the longest chain) and
    // both water-fill ceilings have sunk to that longest chain, the
    // wrapped time is the same constant at every wider width. Ending the
    // table there changes no observable value — time(), used_width(),
    // min_width_for(), and min_area_from() all clamp into the flat tail,
    // and the suffix-min area at the cut equals the true minimum over
    // the removed widths (w * t grows with w on a constant t). The
    // saturation width depends only on the module, never on the build
    // mode, so fast and reference tables stay identical. Explicit
    // max_width requests keep their exact extent (tests rely on it).
    if (max_width <= 0 && module.scan_chain_count() > 0) {
        const FlipFlopCount longest =
            *std::max_element(module.scan_chain_lengths().begin(),
                              module.scan_chain_lengths().end());
        const FlipFlopCount total = module.total_scan_flip_flops();
        const auto ceil_div = [](FlipFlopCount bits, FlipFlopCount chain) {
            return static_cast<WireCount>((bits + chain - 1) / chain);
        };
        const WireCount saturated = std::max(
            {module.scan_chain_count(),
             ceil_div(total + module.scan_in_cells(), longest),
             ceil_div(total + module.scan_out_cells(), longest)});
        limit = std::clamp(saturated, 1, limit);
    }

    times_.reserve(static_cast<std::size_t>(limit));
    used_widths_.reserve(static_cast<std::size_t>(limit));

    const WrapperTimeCalculator calculator(module);
    std::vector<FlipFlopCount> lpt_scratch; // reused across the width loop
    CycleCount best_time = 0;
    WireCount best_width = 0;
    for (WireCount w = 1; w <= limit; ++w) {
        const CycleCount raw = (build == TableBuild::fast) ? calculator.time(w, lpt_scratch)
                                                           : wrapped_test_time(module, w);
        if (best_width == 0 || raw < best_time) {
            best_time = raw;
            best_width = w;
        }
        times_.push_back(best_time);
        used_widths_.push_back(best_width);
    }
    finalize_derived();
}

ModuleTimeTable::ModuleTimeTable(const Module& module, std::vector<CycleCount> times,
                                 std::vector<WireCount> used_widths)
    : module_(&module), times_(std::move(times)), used_widths_(std::move(used_widths))
{
    // The arrays come from a checksummed shared-memory blob, so damage
    // is unlikely — but the restore path must never hand the optimizer
    // a table violating the staircase invariants, so check them all.
    if (times_.empty() || times_.size() != used_widths_.size()) {
        throw ValidationError("restored time table has inconsistent array sizes");
    }
    for (std::size_t i = 0; i < times_.size(); ++i) {
        const auto w = static_cast<WireCount>(i) + 1;
        if (times_[i] <= 0 || (i > 0 && times_[i] > times_[i - 1])) {
            throw ValidationError("restored time table is not non-increasing");
        }
        // finalize_derived() multiplies w * time(w).
        if (times_[i] > std::numeric_limits<CycleCount>::max() / w) {
            throw ValidationError("restored time table overflows the cycle range");
        }
        if (used_widths_[i] < 1 || used_widths_[i] > w ||
            (i > 0 && used_widths_[i] < used_widths_[i - 1])) {
            throw ValidationError("restored time table has invalid used widths");
        }
    }
    finalize_derived();
}

void ModuleTimeTable::finalize_derived()
{
    // Pareto points are the widths where the effective time strictly
    // dropped — exactly the entries whose used width is the width
    // itself (the build loop records a new best at those and only
    // those widths).
    pareto_.clear();
    const auto limit = static_cast<WireCount>(times_.size());
    for (WireCount w = 1; w <= limit; ++w) {
        const auto index = static_cast<std::size_t>(w) - 1;
        if (used_widths_[index] == w && (w == 1 || times_[index] < times_[index - 1])) {
            pareto_.push_back({w, times_[index]});
        }
    }

    // Suffix minima of w * effective_time(w): the area floor of placing
    // this module on a group of width >= w. Beyond max_width the time
    // saturates, so wider groups only cost more area and the suffix over
    // the table already covers them.
    suffix_min_area_.resize(times_.size());
    CycleCount best_area = 0;
    for (WireCount w = limit; w >= 1; --w) {
        const auto index = static_cast<std::size_t>(w) - 1;
        const CycleCount area = static_cast<CycleCount>(w) * times_[index];
        if (w == limit || area < best_area) {
            best_area = area;
        }
        suffix_min_area_[index] = best_area;
    }

    // min over w of w * raw(w) equals min over w of w * effective(w):
    // effective(w) = raw(used(w)) with used(w) <= w, so each effective
    // area w * raw(used(w)) >= used(w) * raw(used(w)) — no effective
    // area undercuts the raw minimum — while effective <= raw bounds it
    // from the other side. The suffix head is therefore the same value
    // the build loop used to accumulate from raw times directly.
    min_area_ = suffix_min_area_.front();
}

CycleCount ModuleTimeTable::min_area_from(WireCount width) const
{
    if (width < 1) {
        throw ValidationError("width must be >= 1 in ModuleTimeTable::min_area_from");
    }
    const auto index = static_cast<std::size_t>(std::min(width, max_width())) - 1;
    return suffix_min_area_[index];
}

CycleCount ModuleTimeTable::time(WireCount width) const
{
    if (width < 1) {
        throw ValidationError("width must be >= 1 in ModuleTimeTable::time");
    }
    const auto index = static_cast<std::size_t>(std::min(width, max_width())) - 1;
    return times_[index];
}

WireCount ModuleTimeTable::used_width(WireCount width) const
{
    if (width < 1) {
        throw ValidationError("width must be >= 1 in ModuleTimeTable::used_width");
    }
    const auto index = static_cast<std::size_t>(std::min(width, max_width())) - 1;
    return used_widths_[index];
}

std::optional<WireCount> ModuleTimeTable::min_width_for(CycleCount depth) const
{
    if (times_.back() > depth) {
        return std::nullopt;
    }
    // times_ is non-increasing: find the first width that fits.
    const auto it = std::lower_bound(times_.begin(), times_.end(), depth,
                                     [](CycleCount time, CycleCount limit) { return time > limit; });
    return static_cast<WireCount>(std::distance(times_.begin(), it)) + 1;
}

} // namespace mst
