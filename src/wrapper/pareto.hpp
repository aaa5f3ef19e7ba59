// Pareto-optimal wrapper widths and minimal-width queries.
//
// The wrapped test time t(w) produced by a list-scheduling wrapper design
// is a staircase in the TAM width w. SocTimeTables (arch/channel_group.hpp)
// holds every module's staircase in one flat block; this header has the
// kernels that fill and finalize one module's slice of it, the queries
// over a slice, and ModuleTimeTable, a non-owning view of one slice.
//
// Because list scheduling gives no hard guarantee that t is monotone in
// w, a slice stores the *effective* time: a module placed on a group of
// width w may always leave wires idle and use its best width <= w. This
// makes time(w) non-increasing by construction, which the architecture
// layer and the paper's reasoning both rely on.
#pragma once

#include <algorithm>
#include <cstddef>
#include <optional>
#include <vector>

#include "soc/module.hpp"
#include "wrapper/wrapper_chain.hpp"

namespace mst {

/// One Pareto point of a module's width/time trade-off.
struct ParetoPoint {
    WireCount width = 0;
    CycleCount test_time = 0;
};

/// How the staircase entries are computed. Both modes yield identical
/// tables; `reference` exists so benchmarks can measure the seed's
/// full-design path and tests can cross-check the fast calculator.
enum class TableBuild {
    fast,      ///< WrapperTimeCalculator::staircase: bound-pruned, run-batched LPT
    reference, ///< full design_wrapper materialization per width (seed path)
};

/// Hard upper limit on considered wrapper widths; protects table size for
/// modules with very many terminals.
inline constexpr WireCount width_cap = 512;

/// Widths a module's staircase records: its max_useful_width() clamped
/// to [1, width_cap], cut further at the width where the wrapped time
/// saturates (see the definition). Every wider width reads as the last
/// entry.
[[nodiscard]] WireCount table_extent(const Module& module);

// --- Slice kernels and queries. A slice holds `count` entries, entry i
// the value at width i + 1; widths past `count` saturate at the last.

/// Entry index of `width` (>= 1) in a slice of `count` entries.
[[nodiscard]] inline std::size_t staircase_index(WireCount width, std::size_t count) noexcept
{
    const auto w = static_cast<std::size_t>(width);
    return (w < count ? w : count) - 1;
}

/// Minimal width whose time in the non-increasing `times` slice fits in
/// `depth`, or nullopt if even the last entry does not fit.
///
/// Gallops from width 1 (entries 1, 3, 7, 15, ...) before bisecting the
/// last bracket: the answer is almost always a narrow width, so this
/// touches the slice's first cache line or two instead of its last entry
/// plus a full-row binary search. Same answer as std::lower_bound.
[[nodiscard]] inline std::optional<WireCount>
staircase_min_width(const CycleCount* times, std::size_t count, CycleCount depth) noexcept
{
    if (times[0] <= depth) {
        return 1;
    }
    // Invariant: times[low] > depth. Probe high = low + step, doubling
    // the step, until an entry fits or the slice ends.
    std::size_t low = 0;
    std::size_t step = 1;
    std::size_t high = 1;
    while (high < count - 1 && times[high] > depth) {
        low = high;
        step *= 2;
        high = low + step;
    }
    if (high >= count - 1) {
        high = count - 1;
        if (times[high] > depth) {
            return std::nullopt;
        }
    }
    // The first fitting entry lies in (low, high].
    const CycleCount* it = std::lower_bound(times + low + 1, times + high, depth,
                                            [](CycleCount time, CycleCount limit) {
                                                return time > limit;
                                            });
    return static_cast<WireCount>(it - times) + 1;
}

/// True where the effective time strictly drops: at entry 0 and at every
/// entry below its narrower neighbour. These are the Pareto widths; the
/// width a module actually uses at any width is the last of them at or
/// below it.
[[nodiscard]] inline bool staircase_drops(const CycleCount* times, std::size_t index) noexcept
{
    return index == 0 || times[index] < times[index - 1];
}

/// Fill `times[0, count)` with `module`'s effective times: the running
/// minimum of the wrapped time at widths 1..count.
void build_staircase(const Module& module, TableBuild build, CycleCount* times,
                     std::size_t count);

/// Check that `times[0, count)` is a positive non-increasing staircase
/// whose every area w * time(w) fits the cycle range, and return its
/// minimum area. Shared by the build and the restore paths; throws
/// ValidationError on a slice a build could never produce.
[[nodiscard]] CycleCount finalize_staircase(const CycleCount* times, std::size_t count);

/// Minimum area w * time(w) over the widths from entry `index` on of a
/// finalized slice whose overall minimum area is `min_area`. Entry 0
/// answers from `min_area`; a later entry scans the rest of the slice.
[[nodiscard]] inline CycleCount staircase_min_area_from(const CycleCount* times, std::size_t count,
                                                        CycleCount min_area,
                                                        std::size_t index) noexcept
{
    if (index == 0) {
        return min_area;
    }
    // Finalize checked every area against the cycle range.
    CycleCount best = static_cast<CycleCount>(index + 1) * times[index];
    for (std::size_t i = index + 1; i < count; ++i) {
        best = std::min(best, static_cast<CycleCount>(i + 1) * times[i]);
    }
    return best;
}

/// Read-only view of one module's width -> test-time staircase: a slice
/// of SocTimeTables' flat block, returned by value from
/// SocTimeTables::table(m) and valid while those tables live.
class ModuleTimeTable {
public:
    ModuleTimeTable(const Module& module, const CycleCount* times, CycleCount min_area,
                    std::size_t count) noexcept
        : module_(&module), times_(times), min_area_(min_area), count_(count)
    {
    }

    [[nodiscard]] const Module& module() const noexcept { return *module_; }
    [[nodiscard]] WireCount max_width() const noexcept { return static_cast<WireCount>(count_); }

    /// Effective (monotone non-increasing) test time at width w.
    /// Widths beyond max_width() saturate at the final value.
    [[nodiscard]] CycleCount time(WireCount width) const { return times_[index(width)]; }

    /// Width actually used when width `w` wires are offered (<= w).
    [[nodiscard]] WireCount used_width(WireCount width) const;

    /// Minimal width whose effective time fits in `depth`, or nullopt if
    /// even the maximal width does not fit.
    [[nodiscard]] std::optional<WireCount> min_width_for(CycleCount depth) const noexcept
    {
        return staircase_min_width(times_, count_, depth);
    }

    /// Pareto points: widths where the effective time strictly drops.
    [[nodiscard]] std::vector<ParetoPoint> pareto() const;

    /// Minimum width*time rectangle area over all widths (the baseline's
    /// per-module packing area).
    [[nodiscard]] CycleCount min_area() const noexcept { return min_area_; }

    /// Minimum width*time rectangle area over widths >= `width`. In any
    /// packing whose every group fill stays within a depth D, this module
    /// sits on a group at least min_width_for(D) wide, so
    /// min_area_from(min_width_for(D)) lower-bounds the wire-cycles the
    /// module occupies — the per-depth packing floor PackEngine uses to
    /// prune provably-infeasible (depth, budget) queries without running
    /// a single greedy pass.
    [[nodiscard]] CycleCount min_area_from(WireCount width) const
    {
        return staircase_min_area_from(times_, count_, min_area_, index(width));
    }

private:
    /// Slice index of `width`; throws ValidationError if width < 1.
    [[nodiscard]] std::size_t index(WireCount width) const;

    const Module* module_;
    const CycleCount* times_; ///< effective time at width i+1
    CycleCount min_area_;     ///< min area over all widths
    std::size_t count_;
};

} // namespace mst
