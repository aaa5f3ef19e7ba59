// Channel groups: the unit of the paper's Step-1 architecture.
//
// A channel group is a fixed-width TAM; the modules assigned to it are
// tested one after another over the same wires, so the group's vector
// memory "fill" is the sum of its members' wrapped test times and must
// stay within the ATE's per-channel depth.
//
// Both classes here sit on the innermost greedy-packing loop, so they
// are built around incremental state instead of recomputation:
// SocTimeTables holds every module staircase in one contiguous block,
// built straight into place (a time lookup is a single indexed load;
// table(m) is a view over module m's slice), and ChannelGroup
// maintains a lazily-extended *fill staircase* — cached member-time
// sums at widths beyond the current one — so fill-at-width queries and
// widenings are O(1) amortized instead of O(members). Step 2's "would
// spare wires help?" check skips the staircase altogether: it compares
// member times at two widths and stops at the first drop. All of it is
// pure caching or an exact reformulation: results are byte-identical to
// the recomputing code (tests/incremental_pack_test.cpp pins each
// against it).
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/types.hpp"
#include "soc/soc.hpp"
#include "wrapper/pareto.hpp"

namespace mst {

/// Precomputed width/time staircases for every module of an SOC.
/// The SOC must outlive the tables. Immutable after construction, so one
/// instance can be shared freely across threads (BatchRunner builds one
/// per distinct SOC and hands it to every scenario of that SOC).
///
/// All staircases live in one contiguous block of times, one 8-byte
/// entry per width, sized once and filled slice by slice, validated once
/// at build time; per-module arrays beside it hold the slice offsets,
/// minimum areas and test-data volumes. A block of 2 MiB or more gets
/// its own huge-page-advised mapping, so where the host allows huge
/// pages its first touch faults once per 2 MiB, not once per 4 KiB
/// page. table(m) is a view
/// over module m's slice; the flat accessors below are the packing hot
/// path: no bounds-checked `.at()`, no object hop — a debug assert
/// guards the contract in debug builds. Both answer each query through
/// the same slice functions (wrapper/pareto.hpp).
class SocTimeTables {
public:
    /// `threads` caps the parallel per-module build (<= 0: whole shared
    /// executor). The tables are identical at any value.
    explicit SocTimeTables(const Soc& soc, TableBuild build = TableBuild::fast,
                           int threads = 0);

    /// Restore serialized staircases (the shared-memory cache tier,
    /// src/shm/store.hpp). Module m gets `extents[m]` >= 1 widths;
    /// `read(m, times)` stores its effective times at
    /// times[0, extents[m]), called once per module, in order, on this
    /// thread. Every slice then goes through the finalize a build uses,
    /// so a restored instance equals a fresh build. Throws
    /// ValidationError on a module-count mismatch, a slice that is not a
    /// positive non-increasing staircase, or an area or cross-module sum
    /// past the cycle range; exceptions from `read` propagate.
    SocTimeTables(const Soc& soc, const std::vector<WireCount>& extents,
                  const std::function<void(int, CycleCount*)>& read);

    [[nodiscard]] const Soc& soc() const noexcept { return *soc_; }
    [[nodiscard]] ModuleTimeTable table(int module_index) const
    {
        assert(module_index >= 0 && module_index < module_count());
        const auto m = static_cast<std::size_t>(module_index);
        return {soc_->module(module_index), times_flat_.get() + offsets_[m], min_areas_[m],
                offsets_[m + 1] - offsets_[m]};
    }
    [[nodiscard]] int module_count() const noexcept { return static_cast<int>(volumes_.size()); }

    /// Sum over modules of the minimum width*time rectangle area: the
    /// theoretical packing floor both search loops start from.
    [[nodiscard]] CycleCount total_min_area() const noexcept { return total_min_area_; }

    // --- Flat hot-path accessors (all O(1), unchecked in release) ---

    /// Widths recorded for `module_index` (== its table's max_width()).
    [[nodiscard]] WireCount flat_max_width(int module_index) const noexcept
    {
        assert(module_index >= 0 && module_index < module_count());
        const auto m = static_cast<std::size_t>(module_index);
        return static_cast<WireCount>(offsets_[m + 1] - offsets_[m]);
    }

    /// Effective (monotone non-increasing) test time of `module_index`
    /// at `width`; widths beyond the module's table saturate. Identical
    /// to table(module_index).time(width) minus the checks.
    [[nodiscard]] CycleCount time(int module_index, WireCount width) const noexcept
    {
        return time_row(module_index).at_width(width);
    }

    /// One module's staircase slice, for loops that probe the same
    /// module at many widths (the greedy's per-module group scans):
    /// resolving the offsets once hoists the indirections out of the
    /// inner loop.
    struct TimeRow {
        const CycleCount* times; ///< entry i = time at width i + 1
        std::size_t count;       ///< widths recorded; wider saturates

        [[nodiscard]] CycleCount at_width(WireCount width) const noexcept
        {
            assert(width >= 1);
            return times[staircase_index(width, count)];
        }
    };
    [[nodiscard]] TimeRow time_row(int module_index) const noexcept
    {
        assert(module_index >= 0 && module_index < module_count());
        const auto m = static_cast<std::size_t>(module_index);
        return {times_flat_.get() + offsets_[m], offsets_[m + 1] - offsets_[m]};
    }

    /// Minimum width*time rectangle area of `module_index` over widths
    /// >= `width` (the per-depth packing floor; see ModuleTimeTable).
    [[nodiscard]] CycleCount min_area_from(int module_index, WireCount width) const noexcept
    {
        assert(width >= 1);
        const TimeRow row = time_row(module_index);
        return staircase_min_area_from(row.times, row.count,
                                       min_areas_[static_cast<std::size_t>(module_index)],
                                       staircase_index(width, row.count));
    }

    /// Minimal width of `module_index` whose effective time fits in
    /// `depth`, or nullopt if even the maximal width does not fit.
    /// Identical to table(module_index).min_width_for(depth).
    [[nodiscard]] std::optional<WireCount> min_width_for(int module_index,
                                                         CycleCount depth) const noexcept
    {
        const TimeRow row = time_row(module_index);
        return staircase_min_width(row.times, row.count, depth);
    }

    /// Test-data volume of `module_index` in bits (sort key of the
    /// by-volume module orders, precomputed once per SOC).
    [[nodiscard]] std::int64_t volume_bits(int module_index) const noexcept
    {
        assert(module_index >= 0 && module_index < module_count());
        return volumes_[static_cast<std::size_t>(module_index)];
    }

    /// Whether the times block is a dedicated mapping (blocks of 2 MiB
    /// or more) rather than an operator new allocation. No value read
    /// through the tables depends on it.
    [[nodiscard]] bool times_mapped() const noexcept
    {
        return times_flat_.get_deleter().mapped_bytes != 0;
    }

private:
    /// Frees the times block: unmaps a dedicated mapping of
    /// `mapped_bytes`, or delete[]s an operator new block when it is 0
    /// (a value-initialized deleter).
    struct BlockDeleter {
        std::size_t mapped_bytes;
        void operator()(CycleCount* block) const noexcept;
    };
    using TimesBlock = std::unique_ptr<CycleCount[], BlockDeleter>;

    /// `count` uninitialized entries: operator new below 2 MiB, else an
    /// anonymous mapping aligned to 2 MiB whose whole 2 MiB chunks are
    /// advised as huge pages.
    [[nodiscard]] static TimesBlock allocate_times(std::size_t count);

    /// Size the block for `extents`, let `fill(m, times)` write module
    /// m's effective times into its slice (in module order on this
    /// thread when `threads` is 1), finalize every slice, then take the
    /// cross-module sums.
    void assemble(const std::vector<WireCount>& extents, int threads,
                  const std::function<void(int, CycleCount*)>& fill);

    const Soc* soc_;
    CycleCount total_min_area_ = 0;

    /// Module m owns entries [offsets_[m], offsets_[m + 1]) of the times
    /// block, entry i holding the time at width i + 1.
    std::vector<std::size_t> offsets_;
    /// Allocated uninitialized: `fill` writes every entry of a slice
    /// before its finalize reads it.
    TimesBlock times_flat_;
    /// Per module: the minimum area over all its widths.
    std::vector<CycleCount> min_areas_;
    std::vector<std::int64_t> volumes_;
};

/// One TAM / channel group.
///
/// The group keeps its fill incrementally and caches a *fill staircase*:
/// member-time sums at widths beyond the current one, extended lazily as
/// queries reach further. Each entry remembers how many members it has
/// folded in, so adding a module is O(1) (no cache touch at all) and a
/// later query catches the entry up with just the members that joined
/// since — every (entry, member) pair is folded at most once, and only
/// if that width is actually probed again. The staircase makes
/// fill_at_width / widen O(1) amortized, and — because every member
/// time is non-increasing in width — lets min_widening_for replace its
/// linear delta scan with a gallop + binary search that returns the
/// exact same delta.
///
/// The staircase is a cache with no observable effect on results; it is
/// dropped on copy (copies are long-lived snapshots: Step-2 incumbents,
/// PackEngine memo entries) and rebuilt lazily on demand. Lazy extension
/// mutates `const` objects under the hood, so a single ChannelGroup must
/// not be queried from two threads at once; the packing engine gives
/// every greedy pass its own architecture, which guarantees that.
class ChannelGroup {
public:
    ChannelGroup(WireCount width, const SocTimeTables& tables);

    /// Copies keep the logical state (width, members, fill) and drop the
    /// staircase cache; see the class comment.
    ChannelGroup(const ChannelGroup& other);
    ChannelGroup& operator=(const ChannelGroup& other);
    ChannelGroup(ChannelGroup&&) noexcept = default;
    ChannelGroup& operator=(ChannelGroup&&) noexcept = default;

    [[nodiscard]] WireCount width() const noexcept { return width_; }
    [[nodiscard]] const std::vector<int>& module_indices() const noexcept { return modules_; }
    [[nodiscard]] CycleCount fill() const noexcept { return fill_; }

    /// Fill if `module_index` were added at the current width.
    [[nodiscard]] CycleCount fill_with(int module_index) const noexcept
    {
        return fill_ + tables_->time(module_index, width_);
    }

    /// Fill of the current members if the group were `width` wide.
    [[nodiscard]] CycleCount fill_at_width(WireCount width) const;

    /// Whether `extra_wires` more wires would lower the fill: exactly
    /// fill_at_width(width() + extra_wires) < fill(). A sum of
    /// non-increasing staircases drops if and only if one of its terms
    /// does, so this compares member times at the two widths and stops
    /// at the first drop, without building staircase entries.
    [[nodiscard]] bool fill_drops_within(WireCount extra_wires) const noexcept;

    /// Smallest width increase delta >= 1 such that the re-wrapped members
    /// plus `module_index` fit in `depth`, capped at `max_extra`.
    /// Returns 0 if no delta in [1, max_extra] works.
    [[nodiscard]] WireCount min_widening_for(int module_index, CycleCount depth,
                                             WireCount max_extra) const;

    /// Add a module at the current width. O(1): the staircase entries
    /// catch up lazily when their widths are next queried.
    void add_module(int module_index)
    {
        fill_ += tables_->time(module_index, width_);
        modules_.push_back(module_index);
        const WireCount table_width = tables_->flat_max_width(module_index);
        if (table_width > members_max_width_) {
            members_max_width_ = table_width;
        }
    }

    /// Grow the group; members are re-wrapped at the new width.
    void widen(WireCount extra_wires);

    /// Re-arm a pooled group as if freshly constructed at `width`,
    /// keeping the heap buffers (PackScratch reuse).
    void reset(WireCount width);

private:
    /// Sum of member times at `width`, computed from scratch.
    [[nodiscard]] CycleCount recompute_fill(WireCount width) const noexcept;
    /// Extend the staircase so it covers `width` (<= saturation width).
    void cover_width(WireCount width) const;
    /// Width beyond which no member time can drop any further.
    [[nodiscard]] WireCount saturation_width() const noexcept { return members_max_width_; }

    const SocTimeTables* tables_;
    WireCount width_ = 0;
    std::vector<int> modules_;
    CycleCount fill_ = 0;
    /// Max over members of their table width: beyond it the fill is flat.
    WireCount members_max_width_ = 0;
    /// stair_[i] is the fill of the first stair_synced_[i] members at
    /// width stair_root_ + i. Rooted at construction width + 1; widening
    /// never invalidates entries (they are width-indexed sums independent
    /// of the current width), and an entry whose synced count lags the
    /// member list is caught up on its next query. `mutable`: extended
    /// lazily by const queries (see class comment).
    mutable std::vector<CycleCount> stair_;
    mutable std::vector<std::uint32_t> stair_synced_;
    WireCount stair_root_ = 0;
};

} // namespace mst
