// Unit tests for SocTimeTables and ChannelGroup: fills, widening, the
// minimal-widening query, and where the times block is allocated.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "arch/channel_group.hpp"
#include "common/error.hpp"
#include "soc/generator.hpp"
#include "soc/profiles.hpp"
#include "soc/soc.hpp"

namespace mst {
namespace {

Soc two_module_soc()
{
    return Soc("duo", {Module("a", 2, 2, 0, 10, {12, 8}),
                       Module("b", 4, 4, 0, 20, {30, 10, 10})});
}

TEST(SocTimeTables, OneTablePerModule)
{
    const Soc soc = two_module_soc();
    const SocTimeTables tables(soc);
    EXPECT_EQ(tables.module_count(), 2);
    EXPECT_EQ(&tables.soc(), &soc);
    EXPECT_EQ(&tables.table(0).module(), &soc.module(0));
    EXPECT_EQ(&tables.table(1).module(), &soc.module(1));
}

TEST(ChannelGroup, RejectsNonPositiveWidth)
{
    const Soc soc = two_module_soc();
    const SocTimeTables tables(soc);
    EXPECT_THROW((void)ChannelGroup(0, tables), ValidationError);
}

TEST(ChannelGroup, FillAccumulatesMemberTimes)
{
    const Soc soc = two_module_soc();
    const SocTimeTables tables(soc);
    ChannelGroup group(2, tables);
    EXPECT_EQ(group.fill(), 0);
    group.add_module(0);
    const CycleCount first = tables.table(0).time(2);
    EXPECT_EQ(group.fill(), first);
    group.add_module(1);
    EXPECT_EQ(group.fill(), first + tables.table(1).time(2));
    EXPECT_EQ(group.fill(), group.fill_at_width(2));
}

TEST(ChannelGroup, FillWithPreviewsWithoutMutating)
{
    const Soc soc = two_module_soc();
    const SocTimeTables tables(soc);
    ChannelGroup group(2, tables);
    group.add_module(0);
    const CycleCount before = group.fill();
    const CycleCount preview = group.fill_with(1);
    EXPECT_EQ(group.fill(), before);
    EXPECT_EQ(preview, before + tables.table(1).time(2));
}

TEST(ChannelGroup, WideningReWrapsMembers)
{
    const Soc soc = two_module_soc();
    const SocTimeTables tables(soc);
    ChannelGroup group(1, tables);
    group.add_module(1);
    const CycleCount narrow_fill = group.fill();
    group.widen(2);
    EXPECT_EQ(group.width(), 3);
    EXPECT_EQ(group.fill(), tables.table(1).time(3));
    EXPECT_LT(group.fill(), narrow_fill);
}

TEST(ChannelGroup, WidenRejectsNonPositiveDelta)
{
    const Soc soc = two_module_soc();
    const SocTimeTables tables(soc);
    ChannelGroup group(1, tables);
    EXPECT_THROW(group.widen(0), ValidationError);
}

TEST(ChannelGroup, MinWideningFindsSmallestDelta)
{
    const Soc soc = two_module_soc();
    const SocTimeTables tables(soc);
    ChannelGroup group(1, tables);
    group.add_module(0);

    // Pick a depth that the 1-wire group cannot host module 1 in, but a
    // wider group can.
    const CycleCount depth = tables.table(0).time(2) + tables.table(1).time(2);
    if (group.fill_with(1) <= depth) {
        GTEST_SKIP() << "depth choice does not exercise widening on this data";
    }
    const WireCount delta = group.min_widening_for(1, depth, 8);
    ASSERT_GT(delta, 0);
    // Check minimality by construction.
    const WireCount width = group.width() + delta;
    EXPECT_LE(group.fill_at_width(width) + tables.table(1).time(width), depth);
    if (delta > 1) {
        const WireCount narrower = width - 1;
        EXPECT_GT(group.fill_at_width(narrower) + tables.table(1).time(narrower), depth);
    }
}

TEST(ChannelGroup, ResetReArmsAPooledGroup)
{
    const Soc soc = two_module_soc();
    const SocTimeTables tables(soc);
    ChannelGroup group(2, tables);
    group.add_module(0);
    group.widen(1); // leave staircase state behind
    ASSERT_GT(group.fill(), 0);

    group.reset(4);
    EXPECT_EQ(group.width(), 4);
    EXPECT_EQ(group.fill(), 0);
    EXPECT_TRUE(group.module_indices().empty());
    // A reset group behaves exactly like a freshly constructed one.
    group.add_module(1);
    EXPECT_EQ(group.fill(), tables.table(1).time(4));
    EXPECT_EQ(group.fill_at_width(6), tables.table(1).time(6));
    EXPECT_THROW(group.reset(0), ValidationError);
}

TEST(SocTimeTables, FlatAccessorsMirrorTheTables)
{
    const Soc soc = two_module_soc();
    const SocTimeTables tables(soc);
    for (int m = 0; m < tables.module_count(); ++m) {
        const ModuleTimeTable table = tables.table(m);
        EXPECT_EQ(tables.flat_max_width(m), table.max_width());
        EXPECT_EQ(tables.volume_bits(m), table.module().test_data_volume_bits());
        for (WireCount w = 1; w <= table.max_width() + 4; ++w) {
            EXPECT_EQ(tables.time(m, w), table.time(w)) << "m=" << m << " w=" << w;
            EXPECT_EQ(tables.min_area_from(m, w), table.min_area_from(w))
                << "m=" << m << " w=" << w;
        }
        for (const CycleCount depth : {CycleCount{1}, table.time(1), table.time(2),
                                       CycleCount{100'000'000}}) {
            EXPECT_EQ(tables.min_width_for(m, depth), table.min_width_for(depth))
                << "m=" << m << " depth=" << depth;
        }
    }
}

/// True when both tables hold the same bytes: every slice, every
/// minimum area and the total.
bool same_table_bytes(const SocTimeTables& a, const SocTimeTables& b)
{
    if (a.module_count() != b.module_count() || a.total_min_area() != b.total_min_area()) {
        return false;
    }
    for (int m = 0; m < a.module_count(); ++m) {
        const SocTimeTables::TimeRow x = a.time_row(m);
        const SocTimeTables::TimeRow y = b.time_row(m);
        if (x.count != y.count || std::memcmp(x.times, y.times, x.count * sizeof(CycleCount)) != 0 ||
            a.table(m).min_area() != b.table(m).min_area()) {
            return false;
        }
    }
    return true;
}

/// Entries of the whole times block.
std::size_t block_entries(const SocTimeTables& tables)
{
    std::size_t entries = 0;
    for (int m = 0; m < tables.module_count(); ++m) {
        entries += tables.time_row(m).count;
    }
    return entries;
}

TEST(SocTimeTables, BlocksOfTwoMebibytesOrMoreGetTheirOwnAlignedMapping)
{
    const Soc soc = generate_soc(scaled_benchmark_config("wide", 2500, ScaledShape::wide_shallow));
    const SocTimeTables one_thread(soc, TableBuild::fast, 1);
    ASSERT_GE(block_entries(one_thread) * sizeof(CycleCount), std::size_t{2} << 20);
    const SocTimeTables four_threads(soc, TableBuild::fast, 4);
    std::vector<WireCount> extents;
    for (int m = 0; m < one_thread.module_count(); ++m) {
        extents.push_back(one_thread.flat_max_width(m));
    }
    const SocTimeTables restored(soc, extents, [&](int m, CycleCount* times) {
        const SocTimeTables::TimeRow row = one_thread.time_row(m);
        std::copy(row.times, row.times + row.count, times);
    });
    for (const SocTimeTables* tables : {&one_thread, &four_threads, &restored}) {
        EXPECT_TRUE(tables->times_mapped());
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(tables->time_row(0).times) % (2 << 20), 0U);
    }
    EXPECT_TRUE(same_table_bytes(one_thread, four_threads));
    EXPECT_TRUE(same_table_bytes(one_thread, restored));
}

TEST(SocTimeTables, SmallBlocksStayOnTheHeap)
{
    const Soc soc = make_benchmark_soc("p93791");
    const SocTimeTables tables(soc);
    ASSERT_LT(block_entries(tables) * sizeof(CycleCount), std::size_t{2} << 20);
    EXPECT_FALSE(tables.times_mapped());
}

TEST(ChannelGroup, MinWideningReturnsZeroWhenHopeless)
{
    const Soc soc = two_module_soc();
    const SocTimeTables tables(soc);
    ChannelGroup group(1, tables);
    group.add_module(0);
    EXPECT_EQ(group.min_widening_for(1, 1, 4), 0); // depth of 1 cycle: impossible
    EXPECT_EQ(group.min_widening_for(1, 1'000'000, 0), 0); // no headroom allowed
}

} // namespace
} // namespace mst
