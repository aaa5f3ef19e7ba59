#include "wrapper/pareto.hpp"

#include "common/error.hpp"
#include "wrapper/time_calculator.hpp"
#include "wrapper/wrapper_design.hpp"

namespace mst {

WireCount table_extent(const Module& module)
{
    const WireCount limit = std::clamp(module.max_useful_width(), 1, width_cap);
    if (module.scan_chain_count() == 0) {
        return limit;
    }
    // Early saturation: once w covers every scan chain (LPT then puts
    // each chain alone, so the scan bottleneck is the longest chain) and
    // both water-fill ceilings have sunk to that longest chain, the
    // wrapped time is the same constant at every wider width. Ending the
    // table there changes no observable value — time(), used_width(),
    // min_width_for(), and min_area_from() all clamp into the flat tail,
    // and the area at the cut is below every area of the removed widths
    // (w * t grows with w on a constant t). The saturation width depends
    // only on the module, never on the build mode, so fast and reference
    // tables stay identical.
    const FlipFlopCount longest = *std::max_element(module.scan_chain_lengths().begin(),
                                                    module.scan_chain_lengths().end());
    const FlipFlopCount total = module.total_scan_flip_flops();
    const auto ceil_div = [](FlipFlopCount bits, FlipFlopCount chain) {
        return static_cast<WireCount>((bits + chain - 1) / chain);
    };
    const WireCount saturated =
        std::max({module.scan_chain_count(), ceil_div(total + module.scan_in_cells(), longest),
                  ceil_div(total + module.scan_out_cells(), longest)});
    return std::clamp(saturated, 1, limit);
}

void build_staircase(const Module& module, TableBuild build, CycleCount* times,
                     std::size_t count)
{
    if (build == TableBuild::fast) {
        WrapperTimeCalculator(module).staircase(times, count);
        return;
    }
    CycleCount best = 0;
    for (std::size_t i = 0; i < count; ++i) {
        const CycleCount raw = wrapped_test_time(module, static_cast<WireCount>(i) + 1);
        if (i == 0 || raw < best) {
            best = raw;
        }
        times[i] = best;
    }
}

CycleCount finalize_staircase(const CycleCount* times, std::size_t count)
{
    // One backward pass: validate each entry against its wider
    // neighbour, then fold its area into the minimum. Beyond the last
    // entry the time saturates, so wider groups only cost more area and
    // the minimum over the slice already covers them.
    CycleCount best = 0;
    for (std::size_t i = count; i-- > 0;) {
        if (times[i] <= 0 || (i + 1 < count && times[i] < times[i + 1])) {
            throw ValidationError("time table is not a positive non-increasing staircase");
        }
        CycleCount area = 0;
        if (__builtin_mul_overflow(static_cast<CycleCount>(i + 1), times[i], &area)) {
            throw ValidationError("time table area overflows the cycle range");
        }
        if (i + 1 == count || area < best) {
            best = area;
        }
    }
    // The minimum of w * effective(w) equals the minimum of w * raw(w):
    // effective(w) = raw(used(w)) with used(w) <= w, so no effective
    // area undercuts the raw minimum, while effective <= raw bounds it
    // from the other side.
    return best;
}

std::size_t ModuleTimeTable::index(WireCount width) const
{
    if (width < 1) {
        throw ValidationError("time table widths start at 1");
    }
    return staircase_index(width, count_);
}

WireCount ModuleTimeTable::used_width(WireCount width) const
{
    std::size_t i = index(width);
    while (!staircase_drops(times_, i)) {
        --i;
    }
    return static_cast<WireCount>(i) + 1;
}

std::vector<ParetoPoint> ModuleTimeTable::pareto() const
{
    std::vector<ParetoPoint> points;
    for (std::size_t i = 0; i < count_; ++i) {
        if (staircase_drops(times_, i)) {
            points.push_back({static_cast<WireCount>(i) + 1, times_[i]});
        }
    }
    return points;
}

} // namespace mst
