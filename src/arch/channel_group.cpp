#include "arch/channel_group.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <new>

#include "common/error.hpp"
#include "common/executor.hpp"

namespace mst {

namespace {

/// The transparent huge page size of x86-64 and of 4 KiB-granule arm64.
constexpr std::size_t huge_page_bytes = std::size_t{2} << 20;

} // namespace

SocTimeTables::SocTimeTables(const Soc& soc, TableBuild build, int threads) : soc_(&soc)
{
    std::vector<WireCount> extents;
    extents.reserve(soc.modules().size());
    for (const Module& module : soc.modules()) {
        extents.push_back(table_extent(module));
    }
    // Per-module staircases are independent, so the build — the dominant
    // cost of a cold optimize call — fans out across the executor. Small
    // fast builds run inline (ITC'02-sized ones finish in well under the
    // fan-out's wake-up cost); reference builds always fan out — each
    // module's exhaustive schedule is expensive at any SOC size, and
    // they are exactly what `bench --compare` times.
    constexpr std::size_t parallel_build_threshold = 64;
    const bool inline_build = extents.size() < parallel_build_threshold && build == TableBuild::fast;
    assemble(extents, inline_build ? 1 : threads, [&](int m, CycleCount* times) {
        build_staircase(soc.module(m), build, times, static_cast<std::size_t>(extents[m]));
    });
}

SocTimeTables::SocTimeTables(const Soc& soc, const std::vector<WireCount>& extents,
                             const std::function<void(int, CycleCount*)>& read)
    : soc_(&soc)
{
    assemble(extents, 1, read);
}

void SocTimeTables::BlockDeleter::operator()(CycleCount* block) const noexcept
{
    if (mapped_bytes == 0) {
        delete[] block;
    } else {
        (void)::munmap(block, mapped_bytes);
    }
}

SocTimeTables::TimesBlock SocTimeTables::allocate_times(std::size_t count)
{
    const std::size_t bytes = count * sizeof(CycleCount);
    if (bytes < huge_page_bytes) {
        return TimesBlock(new CycleCount[count]);
    }
    // A dedicated mapping rather than aligned_alloc: glibc serves later
    // allocations from the heap once a large block is freed, and
    // advising heap ranges would leave huge-page-eligible heap behind in
    // a long-lived server. Over-map by one huge page, then trim the
    // head and tail so the block starts on a 2 MiB boundary.
    const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
    const std::size_t length = (bytes + page - 1) / page * page;
    const std::size_t span = length + huge_page_bytes;
    void* const raw =
        ::mmap(nullptr, span, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (raw == MAP_FAILED) {
        throw std::bad_alloc();
    }
    const auto start = reinterpret_cast<std::uintptr_t>(raw);
    const std::uintptr_t aligned = (start + huge_page_bytes - 1) & ~(huge_page_bytes - 1);
    if (aligned != start) {
        (void)::munmap(raw, aligned - start);
    }
    if (const std::size_t tail = start + span - (aligned + length); tail != 0) {
        (void)::munmap(reinterpret_cast<void*>(aligned + length), tail);
    }
    // Only the whole 2 MiB chunks, so the resident size stays what
    // ordinary pages give. Where the advice fails (huge pages off or
    // unsupported) the block keeps ordinary pages and the same bytes.
    (void)::madvise(reinterpret_cast<void*>(aligned), bytes / huge_page_bytes * huge_page_bytes,
                    MADV_HUGEPAGE);
    return TimesBlock(reinterpret_cast<CycleCount*>(aligned), BlockDeleter{length});
}

void SocTimeTables::assemble(const std::vector<WireCount>& extents, int threads,
                             const std::function<void(int, CycleCount*)>& fill)
{
    if (extents.size() != static_cast<std::size_t>(soc_->module_count())) {
        throw ValidationError("time tables do not match the SOC's module count");
    }
    offsets_.reserve(extents.size() + 1);
    offsets_.push_back(0);
    for (const WireCount extent : extents) {
        if (extent < 1) {
            throw ValidationError("time table has no widths");
        }
        offsets_.push_back(offsets_.back() + static_cast<std::size_t>(extent));
    }
    // Not zero-filled: every entry is written below before it is read,
    // so a zero fill would only cost a pass over the block.
    times_flat_ = allocate_times(offsets_.back());
    min_areas_.resize(extents.size());
    // Each task writes only its own module's slice and minimum, so the
    // tables are byte-identical at any thread count.
    const auto fill_slice = [&](std::size_t m) {
        fill(static_cast<int>(m), times_flat_.get() + offsets_[m]);
        min_areas_[m] =
            finalize_staircase(times_flat_.get() + offsets_[m], offsets_[m + 1] - offsets_[m]);
    };
    if (threads == 1) {
        // A plain loop stops at the first throw; a sequential reader
        // must not run on past a slice it rejected.
        for (std::size_t m = 0; m < extents.size(); ++m) {
            fill_slice(m);
        }
    } else {
        parallel_for_index(extents.size(), threads, fill_slice);
    }

    // Every index the flat accessors can produce now exists, which is
    // what licenses their unchecked loads. A group's fill sums distinct
    // members' times, each at most its width-1 time, so a width-1 sum
    // inside the cycle range bounds every fill the packing loops can
    // form; the min-area sum is the packing floor itself. Built tables
    // never come near the limit, but restored ones are only as sound as
    // their bytes.
    CycleCount width_one_sum = 0;
    volumes_.reserve(extents.size());
    for (std::size_t m = 0; m < extents.size(); ++m) {
        if (__builtin_add_overflow(total_min_area_, min_areas_[m], &total_min_area_) ||
            __builtin_add_overflow(width_one_sum, times_flat_[offsets_[m]], &width_one_sum)) {
            throw ValidationError("time tables sum past the cycle range");
        }
        volumes_.push_back(soc_->module(static_cast<int>(m)).test_data_volume_bits());
    }
}

ChannelGroup::ChannelGroup(WireCount width, const SocTimeTables& tables)
    : tables_(&tables)
{
    reset(width);
}

ChannelGroup::ChannelGroup(const ChannelGroup& other)
    : tables_(other.tables_),
      width_(other.width_),
      modules_(other.modules_),
      fill_(other.fill_),
      members_max_width_(other.members_max_width_),
      stair_root_(other.width_ + 1)
{
    // The staircase cache stays behind: copies are long-lived snapshots
    // (Step-2 incumbents, memo entries) that rarely get queried beyond
    // their width, and a dropped cache only costs a lazy rebuild.
}

ChannelGroup& ChannelGroup::operator=(const ChannelGroup& other)
{
    tables_ = other.tables_;
    width_ = other.width_;
    modules_ = other.modules_;
    fill_ = other.fill_;
    members_max_width_ = other.members_max_width_;
    stair_.clear();
    stair_synced_.clear();
    stair_root_ = other.width_ + 1;
    return *this;
}

void ChannelGroup::reset(WireCount width)
{
    if (width < 1) {
        throw ValidationError("channel group width must be at least one wire");
    }
    width_ = width;
    modules_.clear();
    fill_ = 0;
    members_max_width_ = 0;
    stair_.clear();
    stair_synced_.clear();
    stair_root_ = width + 1;
}

CycleCount ChannelGroup::recompute_fill(WireCount width) const noexcept
{
    CycleCount total = 0;
    for (const int module_index : modules_) {
        total += tables_->time(module_index, width);
    }
    return total;
}

void ChannelGroup::cover_width(WireCount width) const
{
    // Append one entry per uncovered width, each a from-scratch member
    // sum (and therefore synced with the whole member list). Every
    // entry is computed at most once per (group, width); later members
    // are folded in lazily by fill_at_width's catch-up.
    auto next = stair_root_ + static_cast<WireCount>(stair_.size());
    for (; next <= width; ++next) {
        stair_.push_back(recompute_fill(next));
        stair_synced_.push_back(static_cast<std::uint32_t>(modules_.size()));
    }
}

CycleCount ChannelGroup::fill_at_width(WireCount width) const
{
    if (width == width_) {
        return fill_;
    }
    if (width < stair_root_) {
        // Narrower than the staircase root (only tests and validation
        // ask): recompute from scratch, the cold path.
        return recompute_fill(width);
    }
    // Member times are flat beyond the members' max table width, so the
    // staircase never needs entries past the saturation width.
    const WireCount capped = std::min(width, std::max(saturation_width(), stair_root_));
    cover_width(capped);
    const auto index = static_cast<std::size_t>(capped - stair_root_);
    // Catch the entry up with the members that joined since it was last
    // touched: each (entry, member) pair is folded at most once, and
    // only when the width is actually probed again.
    const auto member_count = static_cast<std::uint32_t>(modules_.size());
    if (stair_synced_[index] != member_count) {
        CycleCount value = stair_[index];
        for (std::uint32_t j = stair_synced_[index]; j < member_count; ++j) {
            value += tables_->time(modules_[j], capped);
        }
        stair_[index] = value;
        stair_synced_[index] = member_count;
    }
    return stair_[index];
}

bool ChannelGroup::fill_drops_within(WireCount extra_wires) const noexcept
{
    if (width_ >= members_max_width_) {
        return false; // every member sits on its flat tail already
    }
    const WireCount wider = width_ + extra_wires;
    for (const int module_index : modules_) {
        const SocTimeTables::TimeRow row = tables_->time_row(module_index);
        if (row.at_width(wider) < row.at_width(width_)) {
            return true;
        }
    }
    return false;
}

WireCount ChannelGroup::min_widening_for(int module_index, CycleCount depth,
                                         WireCount max_extra) const
{
    if (max_extra < 1) {
        return 0;
    }
    // fits(delta) is monotone in delta: every member time and the
    // candidate's time are non-increasing in width (ModuleTimeTable
    // serves *effective* times), so member-sum + candidate is too. The
    // linear scan this replaces returned the first fitting delta, which
    // monotonicity makes the unique boundary — a gallop + binary search
    // over the fill staircase lands on exactly the same delta
    // (tests/incremental_pack_test.cpp pins it against a linear
    // reference, including saturation past the widest table).
    const auto fits = [&](WireCount delta) {
        const WireCount candidate = width_ + delta;
        return fill_at_width(candidate) + tables_->time(module_index, candidate) <= depth;
    };
    if (!fits(max_extra)) {
        return 0;
    }
    if (fits(1)) {
        return 1;
    }
    // Gallop to the first fitting power-of-two-ish bound, then bisect
    // the bracket (low fails, high fits).
    WireCount low = 1;
    WireCount high = 2;
    while (high < max_extra && !fits(high)) {
        low = high;
        high = std::min(high * 2, max_extra);
    }
    while (high - low > 1) {
        const WireCount mid = low + (high - low) / 2;
        if (fits(mid)) {
            high = mid;
        } else {
            low = mid;
        }
    }
    return high;
}

void ChannelGroup::widen(WireCount extra_wires)
{
    if (extra_wires < 1) {
        throw ValidationError("widening must add at least one wire");
    }
    // fill_at_width reads (or lazily extends) the staircase; entries are
    // member sums at fixed widths, so widening invalidates nothing.
    const WireCount new_width = width_ + extra_wires;
    fill_ = fill_at_width(new_width);
    width_ = new_width;
}

} // namespace mst
