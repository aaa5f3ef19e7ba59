// Pareto-optimal wrapper widths and minimal-width queries.
//
// The wrapped test time t(w) produced by a list-scheduling wrapper design
// is a staircase in the TAM width w. ModuleTimeTable precomputes the
// staircase once per module and answers the two queries the optimizers
// need: "time at width w" and "minimal width fitting a memory depth D".
//
// Because list scheduling gives no hard guarantee that t is monotone in
// w, the table exposes the *effective* time: a module placed on a group
// of width w may always leave wires idle and use its best width <= w.
// This makes time(w) non-increasing by construction, which the
// architecture layer and the paper's reasoning both rely on.
#pragma once

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
    fast,      ///< WrapperTimeCalculator: chains sorted once, loads-only LPT
    reference, ///< full design_wrapper materialization per width (seed path)
};

/// Precomputed width -> test-time staircase for one module.
class ModuleTimeTable {
public:
    /// Build the table for widths 1..max_width. If max_width is 0 the
    /// module's own max_useful_width() is used (clamped to width_cap).
    explicit ModuleTimeTable(const Module& module, WireCount max_width = 0,
                             TableBuild build = TableBuild::fast);

    /// Restore a table from its serialized staircase arrays (the shared-
    /// memory cache tier, src/shm/store.hpp). The derived fields (pareto
    /// points, suffix-min areas, min area) are recomputed from the
    /// arrays through the same finalize path a fresh build uses, so a
    /// restored table is byte-identical to the original. Throws
    /// ValidationError when the arrays are inconsistent (wrong sizes,
    /// non-monotone times, a width x time area past the cycle range,
    /// out-of-range used widths).
    ModuleTimeTable(const Module& module, std::vector<CycleCount> times,
                    std::vector<WireCount> used_widths);

    [[nodiscard]] const Module& module() const noexcept { return *module_; }
    [[nodiscard]] WireCount max_width() const noexcept
    {
        return static_cast<WireCount>(times_.size());
    }

    /// Effective (monotone non-increasing) test time at width w.
    /// Widths beyond max_width() saturate at the final value.
    [[nodiscard]] CycleCount time(WireCount width) const;

    /// Width actually used when width `w` wires are offered (<= w).
    [[nodiscard]] WireCount used_width(WireCount width) const;

    /// Minimal width whose effective time fits in `depth`, or nullopt if
    /// even the maximal width does not fit.
    [[nodiscard]] std::optional<WireCount> min_width_for(CycleCount depth) const;

    /// Pareto points: widths where the effective time strictly drops.
    [[nodiscard]] const std::vector<ParetoPoint>& pareto() const noexcept { return pareto_; }

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
    [[nodiscard]] CycleCount min_area_from(WireCount width) const;

    /// Raw staircase arrays (entry i = value at width i + 1), exposed so
    /// SocTimeTables can flatten them with range copies instead of one
    /// checked call per width.
    [[nodiscard]] const std::vector<CycleCount>& effective_times() const noexcept
    {
        return times_;
    }
    [[nodiscard]] const std::vector<CycleCount>& suffix_min_areas() const noexcept
    {
        return suffix_min_area_;
    }
    /// Width actually used at every table width (entry i = width i + 1):
    /// together with effective_times() this is the table's complete
    /// serialized state — everything else is derived (see the restore
    /// constructor).
    [[nodiscard]] const std::vector<WireCount>& used_width_table() const noexcept
    {
        return used_widths_;
    }

private:
    /// Recompute pareto_, suffix_min_area_, and min_area_ from times_
    /// and used_widths_ (shared by the build and restore constructors).
    void finalize_derived();

    const Module* module_;
    std::vector<CycleCount> times_;      ///< effective time at width i+1
    std::vector<WireCount> used_widths_; ///< width achieving times_[i]
    std::vector<CycleCount> suffix_min_area_; ///< min area over widths >= i+1
    std::vector<ParetoPoint> pareto_;
    CycleCount min_area_ = 0;
};

/// Hard upper limit on considered wrapper widths; protects table size for
/// modules with very many terminals.
inline constexpr WireCount width_cap = 512;

} // namespace mst
