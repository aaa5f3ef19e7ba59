// Memoized, parallel driver of the Step-1 greedy packing.
//
// Step 1's criterion-1 budget search and Step 2's re-pack fallback both
// query the greedy many times with repeating (virtual depth, wire
// budget) pairs. PackEngine answers those queries through four layers:
//
//   * memoization — per depth: minimal widths, module orders, and the
//     per-depth area floor; per (depth, budget): the packed architecture
//     (or infeasibility). Pure caching, byte-identical results
//     (tests/golden_fingerprint_test.cpp), off via OptimizeOptions::memoize.
//   * pruning — a (depth, budget) query whose per-depth area floor
//     (sum of each module's minimum width*time rectangle at its minimal
//     width, see ModuleTimeTable::min_area_from) exceeds budget * depth
//     provably has no packing, so it is answered infeasible without
//     running a single greedy pass.
//   * a sub-linear greedy — each pass keeps its open groups in a
//     GroupWidthIndex, so placing a module on an existing group costs
//     O(distinct widths x log groups) instead of a scan over every group
//     (same pick as the scan, by construction and by test).
//   * parallelism — pack_batch() evaluates many queries at once: distinct
//     misses fan out across the global executor, and inside one miss the
//     (module order x expansion policy) passes run in adaptive waves
//     (1,1,2,4,8,...) with a lowest-index winner, so a pass that would
//     have won the sequential scan always wins here too.
//
// Determinism: the task schedule depends only on the queries and the
// options — never on thread count or timing. The memo and the work
// counters are updated by the coordinating thread in query order, so
// solutions AND stats are identical at any OptimizeOptions::threads.
// pack_within()/pack_batch() must be called from one coordinating thread
// per engine; internal fan-out is managed by the engine itself.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "arch/architecture.hpp"
#include "core/pack_stats.hpp"
#include "core/problem.hpp"

namespace mst {

/// One greedy-packing query: fit every module within `depth` using at
/// most `budget` wires.
struct PackQuery {
    CycleCount depth = 0;
    WireCount budget = 0;
};

/// Adaptive wave extent shared by every candidate scan of the search
/// (Step-1 fraction sweeps, Step-2 re-pack depth scans, the engine's
/// order x policy passes): 1, 1, 2, 4, then 8 per wave. The first waves
/// mirror the sequential scan exactly (no wasted work when the winner
/// sits early, the overwhelmingly common case); later waves open enough
/// parallelism to cover deep scans while over-evaluating at most one
/// wave beyond the sequential stop. One definition on purpose: the
/// schedule is determinism- and stats-sensitive, so every scan must
/// grow the same way.
[[nodiscard]] constexpr std::size_t pack_wave_extent(int wave) noexcept
{
    switch (wave) {
    case 0: return 1;
    case 1: return 1;
    case 2: return 2;
    case 3: return 4;
    default: return 8;
    }
}

/// One greedy pass's open groups, indexed by width, answering the Fig. 4
/// question "which existing group takes this module without widening?"
/// in time sub-linear in the group count.
///
/// Groups of equal width give a module the same time t(w), so the index
/// keeps one class per distinct width (there are few: usually one or
/// two), each a min-(fill, group index) tournament tree over group
/// index. For a module and a depth D:
///   * best fit reads each class's root: its lowest-index minimal fill,
///     which fits when fill <= D - t(w);
///   * first fit descends each class to its leftmost leaf whose fill is
///     at most D - t(w);
/// and the winner across classes is the smallest (fill + t(w), index)
/// for best fit, the smallest index for first fit. That is exactly the
/// group a linear scan in index order keeps (strict `<` on fill, first
/// fitting index), so packings are unchanged
/// (tests/incremental_pack_test.cpp pins it against that scan).
///
/// Buffers survive reset(): after warm-up a pass allocates nothing.
class GroupWidthIndex {
public:
    /// Forget every group, keeping the buffers.
    void reset() noexcept;

    /// Record group `group` at `width` with `fill`: `group == size()`
    /// opens a new group; otherwise the group's fill and (after a
    /// widening) its width class change.
    void place(std::size_t group, WireCount width, CycleCount fill);

    /// The group `row`'s module joins at its current width without any
    /// fill passing `depth`, chosen by `policy`; nullopt if none fits.
    [[nodiscard]] std::optional<std::size_t> pick(SocTimeTables::TimeRow row, CycleCount depth,
                                                  GroupSelectPolicy policy) const noexcept;

    [[nodiscard]] std::size_t size() const noexcept { return class_of_.size(); }

private:
    /// A tree node: the minimal (fill, group) over its leaf range. Empty
    /// leaves (groups of another width, or none) hold the maximal fill.
    struct Node {
        CycleCount fill;
        std::uint32_t group;
    };
    static constexpr Node empty_node{std::numeric_limits<CycleCount>::max(),
                                     std::numeric_limits<std::uint32_t>::max()};
    struct WidthClass {
        WireCount width;
        std::uint32_t members; ///< 0: free for reuse by any width
    };

    [[nodiscard]] Node* tree(std::size_t width_class) noexcept
    {
        return nodes_.data() + width_class * 2 * leaves_;
    }
    [[nodiscard]] const Node* tree(std::size_t width_class) const noexcept
    {
        return nodes_.data() + width_class * 2 * leaves_;
    }
    /// Class holding `width` (joining it), reusing an emptied class or
    /// opening one when no group has that width yet.
    std::size_t join_class(WireCount width);
    void set_leaf(std::size_t width_class, std::size_t group, Node value) noexcept;
    /// Double the leaves per tree and re-lay every class from `fills_`.
    void grow();

    /// Leaves per tree, a power of two: each pass starts small and
    /// doubles as its groups outgrow the trees, so small passes keep
    /// shallow trees and cheap class openings.
    static constexpr std::size_t min_leaves = 4;
    std::size_t leaves_ = min_leaves;
    /// Class c's tree is the 1-based heap nodes_[c * 2 * leaves_ + 1,
    /// (c + 1) * 2 * leaves_); leaf g sits at offset leaves_ + g.
    std::vector<Node> nodes_;
    std::vector<WidthClass> classes_;
    std::vector<std::uint32_t> class_of_; ///< per group
    std::vector<CycleCount> fills_;       ///< per group, for grow()
};

/// Reusable per-pass buffers (architecture with pooled groups, width
/// index, expansion alternatives). One greedy pass checks a scratch out
/// of the engine's pool, builds into it, and returns it — repeated
/// passes and wave probes stop churning the allocator. Defined in
/// pack_engine.cpp.
struct PackScratch;

/// One optimization run's packing context: time tables + options + caches.
class PackEngine {
public:
    PackEngine(const SocTimeTables& tables, const OptimizeOptions& options);
    ~PackEngine();

    [[nodiscard]] const SocTimeTables& tables() const noexcept { return *tables_; }
    [[nodiscard]] const OptimizeOptions& options() const noexcept { return options_; }

    /// Snapshot of the work counters (atomics internally, so parallel
    /// passes can count; the totals are deterministic because the task
    /// schedule is).
    [[nodiscard]] PackStats stats() const noexcept;

    /// Concurrency cap for this run: OptimizeOptions::threads, where
    /// <= 0 means "whatever the global executor offers".
    [[nodiscard]] int parallel_cap() const noexcept { return options_.threads; }

    /// Try to pack every module into at most `wire_budget` wires with
    /// every group fill within `depth`. Returns nullopt when no pass
    /// fits. Single-query form of pack_batch().
    [[nodiscard]] std::optional<Architecture> pack_within(CycleCount depth,
                                                          WireCount wire_budget);

    /// Evaluate every query; results[i] always matches queries[i].
    /// Distinct uncached queries are computed concurrently on the global
    /// executor (duplicates within one batch count as cache hits, like
    /// the equivalent sequence of pack_within calls would).
    [[nodiscard]] std::vector<std::optional<Architecture>> pack_batch(
        const std::vector<PackQuery>& queries);

private:
    /// Everything about one virtual depth that is budget-independent.
    struct DepthProfile {
        /// Per-module minimal widths, or nullopt when some module fits no
        /// width within the depth (the whole depth is then infeasible).
        std::optional<std::vector<WireCount>> min_widths;
        WireCount widest = 0;
        /// Sum of per-module minimum areas at their minimal widths: no
        /// packing within this depth can occupy fewer wire-cycles.
        CycleCount area_floor = 0;
        /// Lazily built by-min-width module order (the only depth-
        /// dependent kind); guarded by orders_mutex_ (parallel passes
        /// share profiles). Depth-independent orders live engine-wide in
        /// shared_orders_.
        std::map<ModuleOrder, std::vector<int>> orders;
    };

    [[nodiscard]] DepthProfile make_profile(CycleCount depth);
    [[nodiscard]] const std::vector<int>& order_for(DepthProfile& profile, ModuleOrder order);
    [[nodiscard]] const std::vector<int>& shared_order_locked(ModuleOrder order);
    [[nodiscard]] std::optional<Architecture> pack_uncached(CycleCount depth,
                                                            WireCount wire_budget,
                                                            DepthProfile& profile);

    /// Check a scratch out of the pool (or make a fresh one) / hand it
    /// back. Scratches carry no logical state across passes, so which
    /// pass gets which scratch never affects results.
    [[nodiscard]] std::unique_ptr<PackScratch> acquire_scratch();
    void release_scratch(std::unique_ptr<PackScratch> scratch);

    const SocTimeTables* tables_;
    OptimizeOptions options_;

    std::atomic<std::int64_t> pack_calls_{0};
    std::atomic<std::int64_t> pack_cache_hits_{0};
    std::atomic<std::int64_t> greedy_passes_{0};
    std::atomic<std::int64_t> depth_profiles_{0};
    std::atomic<std::int64_t> pruned_packs_{0};

    std::mutex orders_mutex_;
    /// Depth-independent module orders (by_volume, by_time, input_order),
    /// built once per engine; by_min_width depends on the per-depth
    /// minimal widths and lives in each DepthProfile. Guarded by
    /// orders_mutex_; map nodes are stable, so references handed to
    /// parallel passes stay valid.
    std::map<ModuleOrder, std::vector<int>> shared_orders_;

    std::mutex scratch_mutex_;
    std::vector<std::unique_ptr<PackScratch>> scratch_pool_;

    /// Coordinator-mutated only; parallel tasks receive stable node
    /// pointers resolved before each fan-out.
    std::map<CycleCount, DepthProfile> profiles_;
    std::map<std::pair<CycleCount, WireCount>, std::optional<Architecture>> packs_;
};

} // namespace mst
