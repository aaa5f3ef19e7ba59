// Unit and property tests for ModuleTimeTable: monotone effective times,
// minimal-width queries, Pareto points, the min-area rectangle, and the
// table extent. Each table is the one slice of a one-module SocTimeTables.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/error.hpp"
#include "one_module_tables.hpp"
#include "soc/generator.hpp"
#include "wrapper/pareto.hpp"
#include "wrapper/wrapper_design.hpp"

namespace mst {
namespace {

TEST(ModuleTimeTable, EffectiveTimeIsMonotone)
{
    const Module m("m", 10, 8, 2, 30, {25, 17, 9, 5});
    const OneModuleTables one(m);
    const ModuleTimeTable table = one.table();
    for (WireCount w = 2; w <= table.max_width(); ++w) {
        EXPECT_LE(table.time(w), table.time(w - 1)) << "w=" << w;
    }
}

TEST(ModuleTimeTable, EffectiveTimeNeverExceedsRawDesign)
{
    const Module m("m", 10, 8, 2, 30, {25, 17, 9, 5});
    const OneModuleTables one(m);
    const ModuleTimeTable table = one.table();
    for (WireCount w = 1; w <= table.max_width(); ++w) {
        EXPECT_LE(table.time(w), wrapped_test_time(m, w)) << "w=" << w;
    }
}

TEST(ModuleTimeTable, UsedWidthAchievesTheTime)
{
    const Module m("m", 6, 6, 0, 11, {14, 3});
    const OneModuleTables one(m);
    const ModuleTimeTable table = one.table();
    for (WireCount w = 1; w <= table.max_width(); ++w) {
        const WireCount used = table.used_width(w);
        EXPECT_LE(used, w);
        EXPECT_EQ(wrapped_test_time(m, used), table.time(w)) << "w=" << w;
    }
}

TEST(ModuleTimeTable, SaturatesBeyondMaxWidth)
{
    const Module m("m", 2, 2, 0, 5, {8});
    const OneModuleTables one(m);
    const ModuleTimeTable table = one.table();
    EXPECT_EQ(table.time(table.max_width() + 50), table.time(table.max_width()));
}

TEST(ModuleTimeTable, MinWidthIsMinimal)
{
    const Module m("m", 10, 8, 2, 30, {25, 17, 9, 5});
    const OneModuleTables one(m);
    const ModuleTimeTable table = one.table();
    for (const CycleCount depth : {CycleCount{200}, CycleCount{400}, CycleCount{900},
                                   CycleCount{1'500}, CycleCount{100'000}}) {
        const auto width = table.min_width_for(depth);
        if (!width) {
            EXPECT_GT(table.time(table.max_width()), depth);
            continue;
        }
        EXPECT_LE(table.time(*width), depth);
        if (*width > 1) {
            EXPECT_GT(table.time(*width - 1), depth) << "depth=" << depth;
        }
    }
}

TEST(ModuleTimeTable, ImpossibleDepthReturnsNullopt)
{
    const Module m("m", 1, 1, 0, 100, {50});
    const OneModuleTables one(m);
    const ModuleTimeTable table = one.table();
    EXPECT_FALSE(table.min_width_for(10).has_value());
}

TEST(ModuleTimeTable, ParetoPointsStrictlyImprove)
{
    const Module m("m", 20, 20, 0, 40, {33, 21, 13, 8, 8, 5});
    const OneModuleTables one(m);
    const ModuleTimeTable table = one.table();
    const std::vector<ParetoPoint> pareto = table.pareto();
    ASSERT_FALSE(pareto.empty());
    EXPECT_EQ(pareto.front().width, 1);
    for (std::size_t i = 1; i < pareto.size(); ++i) {
        EXPECT_GT(pareto[i].width, pareto[i - 1].width);
        EXPECT_LT(pareto[i].test_time, pareto[i - 1].test_time);
    }
}

TEST(ModuleTimeTable, MinAreaIsALowerEnvelope)
{
    const Module m("m", 20, 20, 0, 40, {33, 21, 13, 8, 8, 5});
    const OneModuleTables one(m);
    const ModuleTimeTable table = one.table();
    for (WireCount w = 1; w <= table.max_width(); ++w) {
        EXPECT_LE(table.min_area(), static_cast<CycleCount>(w) * wrapped_test_time(m, w));
    }
}

TEST(ModuleTimeTable, RejectsNonPositiveWidthQueries)
{
    const Module m("m", 1, 1, 0, 1, {});
    const OneModuleTables one(m);
    const ModuleTimeTable table = one.table();
    EXPECT_THROW((void)table.time(0), ValidationError);
    EXPECT_THROW((void)table.used_width(0), ValidationError);
}

TEST(ModuleTimeTable, ExtentStopsAtSaturation)
{
    // No scan chains: the extent is the module's useful width, capped.
    const Module comb("m", 64, 64, 0, 10, {});
    EXPECT_EQ(table_extent(comb), std::min(comb.max_useful_width(), width_cap));
    EXPECT_EQ(OneModuleTables(comb).table().max_width(), table_extent(comb));
    EXPECT_EQ(table_extent(Module("fat", 2000, 2000, 0, 3, {})), width_cap);

    // Scan chains: the table ends once every chain has its own wire and
    // both cell water-fills have sunk to the longest chain,
    // max(4, ceil((56 + 12) / 25), ceil((56 + 10) / 25)) = 4. Every wider
    // width wraps to the same time.
    const Module scan("m", 10, 8, 2, 30, {25, 17, 9, 5});
    ASSERT_EQ(table_extent(scan), 4);
    const OneModuleTables one(scan);
    const ModuleTimeTable table = one.table();
    ASSERT_EQ(table.max_width(), 4);
    for (WireCount w = 4; w <= scan.max_useful_width(); ++w) {
        EXPECT_EQ(wrapped_test_time(scan, w), table.time(w)) << "w=" << w;
    }
}

TEST(ModuleTimeTable, CapsExtremeWidths)
{
    const Module m("m", 2000, 2000, 0, 3, {});
    const OneModuleTables one(m);
    const ModuleTimeTable table = one.table();
    EXPECT_LE(table.max_width(), width_cap);
}

/// Property sweep: monotonicity and minimal-width consistency over the
/// random module population.
class ParetoPropertyTest : public testing::TestWithParam<std::uint64_t> {};

TEST_P(ParetoPropertyTest, StaircaseInvariants)
{
    const Soc soc = random_soc(GetParam(), 6);
    for (const Module& m : soc.modules()) {
        const OneModuleTables one(m);
        const ModuleTimeTable table = one.table();
        for (WireCount w = 2; w <= table.max_width(); ++w) {
            ASSERT_LE(table.time(w), table.time(w - 1)) << m.name() << " w=" << w;
        }
        // Brute-force check of min_width_for on a mid-range depth.
        const CycleCount depth = (table.time(1) + table.time(table.max_width())) / 2;
        const auto width = table.min_width_for(depth);
        ASSERT_TRUE(width.has_value());
        WireCount brute = 1;
        while (table.time(brute) > depth) {
            ++brute;
        }
        EXPECT_EQ(*width, brute) << m.name();
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParetoPropertyTest,
                         testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u, 55u, 89u));

} // namespace
} // namespace mst
