// Property tests for the incremental packing core.
//
// The staircase-cached ChannelGroup and the gallop + binary-search
// min_widening_for are pure accelerations: every answer must equal what
// the recomputing seed code produced. Two properties pin that:
//
//   1. After any randomized add/widen sequence, a group's incremental
//      state (fill, fill_at_width over a width sweep) equals a
//      from-scratch recompute over its member list — including widths
//      past every member's table, where the staircase saturates.
//   2. min_widening_for equals an in-test linear reference scan on
//      random SOCs, for random (depth, max_extra) queries — including
//      saturated groups where both must report "no delta works".
//
// The Architecture running aggregates (total wires/fill, dense group
// mirrors) ride along: validate() cross-checks them against the group
// list, and the sweep below asserts them directly after every mutation.
//
// The greedy's other shortcuts are pinned the same way, each against
// the linear code it replaced:
//
//   3. GroupWidthIndex::pick equals the linear best-fit / first-fit scan
//      over randomized add/fill/widen sequences;
//   4. staircase_min_width's gallop equals std::lower_bound;
//   5. ChannelGroup::fill_drops_within equals
//      fill_at_width(width + spare) < fill().
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "arch/architecture.hpp"
#include "common/rng.hpp"
#include "core/pack_engine.hpp"
#include "soc/generator.hpp"
#include "soc/profiles.hpp"

namespace mst {
namespace {

/// From-scratch fill of `modules` at `width`: the seed semantics.
CycleCount reference_fill(const SocTimeTables& tables, const std::vector<int>& modules,
                          WireCount width)
{
    CycleCount total = 0;
    for (const int module_index : modules) {
        total += tables.table(module_index).time(width);
    }
    return total;
}

/// The seed's linear min_widening_for scan, kept verbatim as the
/// reference the gallop + binary search must reproduce.
WireCount reference_min_widening(const SocTimeTables& tables, const std::vector<int>& modules,
                                 WireCount width, int module_index, CycleCount depth,
                                 WireCount max_extra)
{
    for (WireCount delta = 1; delta <= max_extra; ++delta) {
        const WireCount candidate = width + delta;
        const CycleCount members = reference_fill(tables, modules, candidate);
        const CycleCount added = tables.table(module_index).time(candidate);
        if (members + added <= depth) {
            return delta;
        }
    }
    return 0;
}

TEST(IncrementalPack, StaircaseMatchesRecomputeAfterRandomizedMutations)
{
    for (const std::uint64_t seed : {11u, 23u, 47u}) {
        const Soc soc = random_soc(test_seeds::incremental_pack + seed, 24);
        const SocTimeTables tables(soc);
        Rng rng(seed);

        Architecture arch(tables);
        const std::size_t group_index =
            arch.add_group(static_cast<WireCount>(rng.uniform_int(1, 4)));
        std::vector<int> members;

        for (int step = 0; step < 60; ++step) {
            const ChannelGroup& group = arch.groups()[group_index];
            if (rng.chance(0.6) && static_cast<int>(members.size()) < soc.module_count()) {
                const int module_index = static_cast<int>(members.size());
                arch.add_module(group_index, module_index);
                members.push_back(module_index);
            } else if (rng.chance(0.5)) {
                arch.widen_group(group_index,
                                 static_cast<WireCount>(rng.uniform_int(1, 3)));
            } else {
                // Interleave queries so the staircase extends mid-sequence
                // and later mutations must keep the cached entries current.
                const auto probe = static_cast<WireCount>(rng.uniform_int(
                    1, static_cast<std::int64_t>(group.width()) + 40));
                ASSERT_EQ(group.fill_at_width(probe), reference_fill(tables, members, probe))
                    << "seed " << seed << " step " << step << " probe width " << probe;
            }

            // Incremental state == from-scratch recompute, every step.
            ASSERT_EQ(group.fill(), reference_fill(tables, members, group.width()))
                << "seed " << seed << " step " << step;
            ASSERT_EQ(arch.total_wires(), group.width());
            ASSERT_EQ(arch.total_fill(), group.fill());
            ASSERT_EQ(arch.group_fills()[group_index], group.fill());
            ASSERT_EQ(arch.group_widths()[group_index], group.width());
        }

        // Full sweep at the end, far past saturation of every member.
        const ChannelGroup& group = arch.groups()[group_index];
        WireCount widest_member = 1;
        for (const int module_index : members) {
            widest_member = std::max(widest_member, tables.table(module_index).max_width());
        }
        for (WireCount w = 1; w <= widest_member + 8; ++w) {
            ASSERT_EQ(group.fill_at_width(w), reference_fill(tables, members, w))
                << "seed " << seed << " width " << w;
        }
    }
}

TEST(IncrementalPack, GallopMinWideningMatchesLinearReference)
{
    int widenings_exercised = 0;
    for (const std::uint64_t seed : {3u, 5u, 9u, 17u}) {
        const Soc soc = random_soc(test_seeds::incremental_pack + 100 + seed, 20);
        const SocTimeTables tables(soc);
        Rng rng(seed);

        Architecture arch(tables);
        const std::size_t group_index =
            arch.add_group(static_cast<WireCount>(rng.uniform_int(1, 3)));
        std::vector<int> members;
        for (int m = 0; m < soc.module_count() / 2; ++m) {
            arch.add_module(group_index, m);
            members.push_back(m);
        }
        const ChannelGroup& group = arch.groups()[group_index];

        for (int query = 0; query < 80; ++query) {
            const int candidate =
                static_cast<int>(rng.uniform_int(soc.module_count() / 2,
                                                 soc.module_count() - 1));
            // Depths spread from hopeless to trivial; max_extra spread
            // past every member's table so saturation is exercised.
            const CycleCount base = group.fill_with(candidate);
            const auto depth = static_cast<CycleCount>(
                rng.uniform_int(base / 4, base + base / 4 + 1));
            const auto max_extra = static_cast<WireCount>(rng.uniform_int(0, 600));

            const WireCount gallop = group.min_widening_for(candidate, depth, max_extra);
            const WireCount linear = reference_min_widening(tables, members, group.width(),
                                                            candidate, depth, max_extra);
            ASSERT_EQ(gallop, linear)
                << "seed " << seed << " query " << query << " depth " << depth
                << " max_extra " << max_extra;
            if (gallop > 0) {
                ++widenings_exercised;
            }
        }
    }
    // The query mix must actually exercise feasible widenings, not just
    // the zero path.
    EXPECT_GT(widenings_exercised, 20);
}

TEST(IncrementalPack, CopiesDropTheCacheButKeepTheAnswers)
{
    const Soc soc = random_soc(test_seeds::incremental_pack + 7, 12);
    const SocTimeTables tables(soc);

    Architecture arch(tables);
    const std::size_t group_index = arch.add_group(2);
    std::vector<int> members;
    for (int m = 0; m < soc.module_count(); ++m) {
        arch.add_module(group_index, m);
        members.push_back(m);
    }
    // Warm the staircase, then copy: the copy must answer identically
    // from a cold cache.
    const ChannelGroup& original = arch.groups()[group_index];
    (void)original.fill_at_width(original.width() + 24);
    const Architecture copy = arch;
    const ChannelGroup& copied = copy.groups()[group_index];
    for (WireCount w = 1; w <= original.width() + 30; ++w) {
        ASSERT_EQ(copied.fill_at_width(w), original.fill_at_width(w)) << "width " << w;
        ASSERT_EQ(copied.fill_at_width(w), reference_fill(tables, members, w)) << "width " << w;
    }
    ASSERT_EQ(copy.total_fill(), arch.total_fill());
    ASSERT_EQ(copy.total_wires(), arch.total_wires());
}

/// The linear group scan GroupWidthIndex replaced, kept verbatim as the
/// reference: walk the groups in index order; first fit keeps the first
/// one with room, best fit the first minimal resulting fill.
std::optional<std::size_t> reference_pick(const std::vector<WireCount>& widths,
                                          const std::vector<CycleCount>& fills,
                                          SocTimeTables::TimeRow row, CycleCount depth,
                                          GroupSelectPolicy policy)
{
    std::optional<std::size_t> best;
    CycleCount best_fill = std::numeric_limits<CycleCount>::max();
    for (std::size_t g = 0; g < fills.size(); ++g) {
        const CycleCount fill = fills[g] + row.at_width(widths[g]);
        if (fill > depth) {
            continue;
        }
        if (policy == GroupSelectPolicy::first_fit) {
            return g;
        }
        if (fill < best_fill) {
            best_fill = fill;
            best = g;
        }
    }
    return best;
}

TEST(IncrementalPack, WidthIndexPicksWhatTheLinearScanPicks)
{
    // Synthetic staircases on an even lattice, so equal resulting fills
    // within and across widths are common; widths run past every
    // staircase's extent, where times saturate.
    const std::vector<std::vector<CycleCount>> staircases = {
        {12}, {10, 8, 8, 6}, {16, 10, 6, 6, 6, 4}, {8, 8, 8}, {14, 12, 10, 8, 6, 4, 2}};
    int picks = 0;
    int moves = 0;
    int emptied = 0;
    int ties_within = 0;
    int ties_across = 0;
    for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u}) {
        Rng rng(test_seeds::incremental_pack + 200 + seed);
        GroupWidthIndex index;
        // Several passes over one index: reset() must forget everything.
        for (int pass = 0; pass < 4; ++pass) {
            index.reset();
            std::vector<WireCount> widths;
            std::vector<CycleCount> fills;
            const int steps = static_cast<int>(rng.uniform_int(10, 120));
            for (int step = 0; step < steps; ++step) {
                const double action = rng.uniform_real(0.0, 1.0);
                if (widths.empty() || action < 0.2) {
                    widths.push_back(static_cast<WireCount>(rng.uniform_int(1, 9)));
                    fills.push_back(0);
                    index.place(widths.size() - 1, widths.back(), 0);
                } else if (action < 0.6) {
                    const auto g = static_cast<std::size_t>(
                        rng.uniform_int(0, static_cast<std::int64_t>(widths.size()) - 1));
                    fills[g] += 2 * rng.uniform_int(0, 4);
                    index.place(g, widths[g], fills[g]);
                } else if (action < 0.75) {
                    const auto g = static_cast<std::size_t>(
                        rng.uniform_int(0, static_cast<std::int64_t>(widths.size()) - 1));
                    if (std::count(widths.begin(), widths.end(), widths[g]) == 1) {
                        ++emptied; // its width class empties, free for reuse
                    }
                    widths[g] += static_cast<WireCount>(rng.uniform_int(1, 3));
                    fills[g] += 2 * rng.uniform_int(-1, 2);
                    fills[g] = std::max<CycleCount>(fills[g], 0);
                    index.place(g, widths[g], fills[g]);
                    ++moves;
                }
                ASSERT_EQ(index.size(), widths.size());
                for (const std::vector<CycleCount>& times : staircases) {
                    const SocTimeTables::TimeRow row{times.data(), times.size()};
                    const auto depth = static_cast<CycleCount>(rng.uniform_int(0, 40));
                    for (const GroupSelectPolicy policy :
                         {GroupSelectPolicy::best_fit_min_depth, GroupSelectPolicy::first_fit}) {
                        const std::optional<std::size_t> want =
                            reference_pick(widths, fills, row, depth, policy);
                        ASSERT_EQ(index.pick(row, depth, policy), want)
                            << "seed " << seed << " pass " << pass << " step " << step
                            << " depth " << depth;
                        if (want) {
                            ++picks;
                        }
                    }
                    // Ties the best-fit tie-break had to settle: equal
                    // minimal resulting fills within one width, or across
                    // two.
                    CycleCount least = std::numeric_limits<CycleCount>::max();
                    for (std::size_t g = 0; g < widths.size(); ++g) {
                        least = std::min(least, fills[g] + row.at_width(widths[g]));
                    }
                    std::vector<WireCount> tied;
                    for (std::size_t g = 0; g < widths.size(); ++g) {
                        if (least <= depth && fills[g] + row.at_width(widths[g]) == least) {
                            tied.push_back(widths[g]);
                        }
                    }
                    std::sort(tied.begin(), tied.end());
                    if (std::adjacent_find(tied.begin(), tied.end()) != tied.end()) {
                        ++ties_within;
                    }
                    if (!tied.empty() && tied.front() != tied.back()) {
                        ++ties_across;
                    }
                }
            }
        }
    }
    // The mix must reach the interesting paths, not just "no group fits".
    EXPECT_GT(picks, 1000);
    EXPECT_GT(moves, 100);
    EXPECT_GT(emptied, 10);
    EXPECT_GT(ties_within, 100);
    EXPECT_GT(ties_across, 100);
}

/// The search staircase_min_width replaced: last-entry check, then a
/// binary search over the whole slice.
std::optional<WireCount> reference_min_width(const std::vector<CycleCount>& times,
                                             CycleCount depth)
{
    if (times.back() > depth) {
        return std::nullopt;
    }
    const auto it = std::lower_bound(times.begin(), times.end(), depth,
                                     [](CycleCount time, CycleCount limit) { return time > limit; });
    return static_cast<WireCount>(it - times.begin()) + 1;
}

TEST(IncrementalPack, GallopMinWidthMatchesLowerBound)
{
    Rng rng(test_seeds::incremental_pack + 300);
    int found = 0;
    for (int trial = 0; trial < 400; ++trial) {
        // Non-increasing staircases of 1 to 70 entries with plateaus.
        const auto count = static_cast<std::size_t>(rng.uniform_int(1, 70));
        std::vector<CycleCount> times(count);
        CycleCount time = rng.uniform_int(50, 5000);
        for (CycleCount& entry : times) {
            entry = time;
            if (rng.chance(0.6)) {
                time = std::max<CycleCount>(1, time - rng.uniform_int(1, 90));
            }
        }
        // Every entry and its neighbours, below the last entry (nullopt)
        // and at or above the first (width 1).
        std::vector<CycleCount> depths = {times.back() - 1, times.front(), times.front() + 7, 0};
        for (const CycleCount entry : times) {
            depths.insert(depths.end(), {entry - 1, entry, entry + 1});
        }
        for (const CycleCount depth : depths) {
            const std::optional<WireCount> want = reference_min_width(times, depth);
            ASSERT_EQ(staircase_min_width(times.data(), count, depth), want)
                << "trial " << trial << " count " << count << " depth " << depth;
            if (want) {
                ++found;
            }
        }
    }
    EXPECT_GT(found, 1000);
    const std::vector<CycleCount> single = {9};
    EXPECT_EQ(staircase_min_width(single.data(), 1, 9), 1);
    EXPECT_EQ(staircase_min_width(single.data(), 1, 8), std::nullopt);
}

TEST(IncrementalPack, DropCheckMatchesFillAtWidth)
{
    int drops = 0;
    int plateaus = 0;  // no drop although some member is not saturated yet
    int saturated = 0; // every member on its flat tail
    // d695's staircases have long plateaus (random SOCs' drop at almost
    // every width), so spare wires often buy nothing before saturation.
    const Soc soc = make_benchmark_soc("d695");
    const SocTimeTables tables(soc);
    for (const std::uint64_t seed : {2u, 4u, 8u, 16u, 32u, 64u, 128u, 256u}) {
        Rng rng(test_seeds::incremental_pack + 400 + seed);
        Architecture arch(tables);
        const std::size_t group_index =
            arch.add_group(static_cast<WireCount>(rng.uniform_int(1, 4)));
        const auto first = static_cast<int>(seed % static_cast<std::uint64_t>(soc.module_count()));
        WireCount widest_member = 0;
        for (int m = 0; m < soc.module_count(); ++m) {
            if (rng.chance(0.3) || m == first) {
                arch.add_module(group_index, m);
                widest_member = std::max(widest_member, tables.flat_max_width(m));
            }
        }
        // Widen step by step until every member saturates, asking about
        // spares from one wire to far past every table at each width.
        for (int step = 0; step < 80; ++step) {
            const ChannelGroup& group = arch.groups()[group_index];
            for (const WireCount spare : {1, 2, 3, 7, 30, 600}) {
                const bool want = group.fill_at_width(group.width() + spare) < group.fill();
                ASSERT_EQ(group.fill_drops_within(spare), want)
                    << "seed " << seed << " width " << group.width() << " spare " << spare;
                if (want) {
                    ++drops;
                } else if (group.width() < widest_member) {
                    ++plateaus;
                } else {
                    ++saturated;
                }
            }
            arch.widen_group(group_index, static_cast<WireCount>(rng.uniform_int(1, 2)));
        }
    }
    EXPECT_GT(drops, 100);
    EXPECT_GT(plateaus, 100);
    EXPECT_GT(saturated, 100);
}

} // namespace
} // namespace mst
