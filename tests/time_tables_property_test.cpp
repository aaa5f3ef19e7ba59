// Property test of the flat time-table block: every way of producing a
// SocTimeTables — the fast build at 1 and at 4 threads, the reference
// build, and a decode of an encoded blob — must agree on every accessor,
// the derived used widths and Pareto points included, and every path's
// min_area_from must equal a brute-force suffix minimum. Also pins the
// decoder's rejection of used widths the times do not imply.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "arch/channel_group.hpp"
#include "common/bytes.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "shm/store.hpp"
#include "soc/generator.hpp"
#include "soc/profiles.hpp"

namespace mst {
namespace {

/// Depths probing `table`'s staircase: each Pareto time, one cycle
/// either side of it, and the extremes.
std::vector<CycleCount> sampled_depths(const ModuleTimeTable& table)
{
    std::vector<CycleCount> depths = {0, 1, std::numeric_limits<CycleCount>::max()};
    for (const ParetoPoint& point : table.pareto()) {
        depths.insert(depths.end(), {point.test_time - 1, point.test_time, point.test_time + 1});
    }
    return depths;
}

void expect_same_tables(const SocTimeTables& expected, const SocTimeTables& actual)
{
    ASSERT_EQ(actual.module_count(), expected.module_count());
    EXPECT_EQ(actual.total_min_area(), expected.total_min_area());
    for (int m = 0; m < expected.module_count(); ++m) {
        const ModuleTimeTable want = expected.table(m);
        const ModuleTimeTable got = actual.table(m);
        ASSERT_EQ(actual.flat_max_width(m), expected.flat_max_width(m)) << "module " << m;
        ASSERT_EQ(got.max_width(), want.max_width()) << "module " << m;
        EXPECT_EQ(got.min_area(), want.min_area()) << "module " << m;
        EXPECT_EQ(actual.volume_bits(m), expected.volume_bits(m)) << "module " << m;
        // Two widths past the extent exercise the saturated tail.
        for (WireCount w = 1; w <= want.max_width() + 2; ++w) {
            ASSERT_EQ(actual.time(m, w), expected.time(m, w)) << "module " << m << " w " << w;
            ASSERT_EQ(got.time(w), want.time(w)) << "module " << m << " w " << w;
            ASSERT_EQ(actual.min_area_from(m, w), expected.min_area_from(m, w))
                << "module " << m << " w " << w;
            ASSERT_EQ(got.used_width(w), want.used_width(w)) << "module " << m << " w " << w;
        }
        for (const CycleCount depth : sampled_depths(want)) {
            ASSERT_EQ(actual.min_width_for(m, depth), expected.min_width_for(m, depth))
                << "module " << m << " depth " << depth;
            ASSERT_EQ(got.min_width_for(depth), want.min_width_for(depth))
                << "module " << m << " depth " << depth;
        }
        const std::vector<ParetoPoint> want_pareto = want.pareto();
        const std::vector<ParetoPoint> got_pareto = got.pareto();
        ASSERT_EQ(got_pareto.size(), want_pareto.size()) << "module " << m;
        for (std::size_t i = 0; i < want_pareto.size(); ++i) {
            EXPECT_EQ(got_pareto[i].width, want_pareto[i].width) << "module " << m;
            EXPECT_EQ(got_pareto[i].test_time, want_pareto[i].test_time) << "module " << m;
        }
    }
}

/// The view's own invariants: the used width achieves the time and is
/// the narrowest width that does; Pareto points are exactly the drops.
void expect_derived_fields_consistent(const SocTimeTables& tables)
{
    for (int m = 0; m < tables.module_count(); ++m) {
        const ModuleTimeTable table = tables.table(m);
        std::size_t next_point = 0;
        const std::vector<ParetoPoint> pareto = table.pareto();
        for (WireCount w = 1; w <= table.max_width(); ++w) {
            const WireCount used = table.used_width(w);
            ASSERT_LE(used, w);
            ASSERT_EQ(table.time(used), table.time(w)) << "module " << m << " w " << w;
            if (used > 1) {
                ASSERT_GT(table.time(used - 1), table.time(w)) << "module " << m << " w " << w;
            }
            if (used == w) {
                ASSERT_LT(next_point, pareto.size());
                EXPECT_EQ(pareto[next_point].width, w);
                EXPECT_EQ(pareto[next_point].test_time, table.time(w));
                ++next_point;
            }
        }
        EXPECT_EQ(next_point, pareto.size()) << "module " << m;
    }
}

/// Brute-force min_area_from: the minimum of v * time(v) over the
/// entries from width `width` on. Widths past the slice read as its last
/// entry, as every accessor does.
CycleCount brute_min_area_from(const ModuleTimeTable& table, WireCount width)
{
    CycleCount best = std::numeric_limits<CycleCount>::max();
    for (WireCount v = std::min(width, table.max_width()); v <= table.max_width(); ++v) {
        best = std::min(best, static_cast<CycleCount>(v) * table.time(v));
    }
    return best;
}

/// Both min_area_from accessors against the brute force at every width
/// from 1 to two past the slice, and total_min_area against the sum.
void expect_min_area_from_matches_brute_force(const SocTimeTables& tables)
{
    CycleCount total = 0;
    for (int m = 0; m < tables.module_count(); ++m) {
        const ModuleTimeTable table = tables.table(m);
        EXPECT_EQ(table.min_area(), brute_min_area_from(table, 1)) << "module " << m;
        for (WireCount w = 1; w <= table.max_width() + 2; ++w) {
            const CycleCount want = brute_min_area_from(table, w);
            ASSERT_EQ(tables.min_area_from(m, w), want) << "module " << m << " w " << w;
            ASSERT_EQ(table.min_area_from(w), want) << "module " << m << " w " << w;
        }
        total += brute_min_area_from(table, 1);
    }
    EXPECT_EQ(tables.total_min_area(), total);
}

void expect_all_paths_agree(const Soc& soc)
{
    const SocTimeTables one_thread(soc, TableBuild::fast, 1);
    const SocTimeTables four_threads(soc, TableBuild::fast, 4);
    const SocTimeTables reference(soc, TableBuild::reference, 4);
    expect_derived_fields_consistent(one_thread);
    expect_same_tables(one_thread, four_threads);
    expect_same_tables(one_thread, reference);

    const std::string blob = shm::ShmStore::encode_tables(one_thread);
    const std::unique_ptr<SocTimeTables> decoded = shm::ShmStore::decode_tables(blob, soc);
    ASSERT_NE(decoded, nullptr);
    expect_same_tables(one_thread, *decoded);
    EXPECT_EQ(shm::ShmStore::encode_tables(*decoded), blob);
    expect_min_area_from_matches_brute_force(one_thread);
    expect_min_area_from_matches_brute_force(reference);
    expect_min_area_from_matches_brute_force(*decoded);
}

TEST(TimeTablesProperty, BuildPathsAndRoundTripAgreeOnPaperSocs)
{
    for (const std::string& name : benchmark_soc_names()) {
        SCOPED_TRACE(name);
        expect_all_paths_agree(make_benchmark_soc(name));
    }
}

TEST(TimeTablesProperty, BuildPathsAndRoundTripAgreeOnRandomSocs)
{
    for (const std::uint64_t seed : test_seeds::suffix_min_area) {
        SCOPED_TRACE(seed);
        expect_all_paths_agree(random_soc(seed, 24));
    }
}

TEST(TimeTablesProperty, BuildPathsAndRoundTripAgreeOnWideShallow)
{
    expect_all_paths_agree(
        generate_soc(scaled_benchmark_config("wide", 300, ScaledShape::wide_shallow)));
}

TEST(TimeTablesProperty, MinAreaFromScansPastAMinimumAboveWidthOne)
{
    // Areas 100, 20, 30: the minimum sits at width 2, so a query from
    // width 3 must scan instead of answering from the stored minimum.
    const Soc soc("one", {Module("m", 1, 1, 0, 5, {6, 6})});
    const SocTimeTables tables(soc, {3}, [](int, CycleCount* times) {
        times[0] = 100;
        times[1] = 10;
        times[2] = 10;
    });
    EXPECT_EQ(tables.total_min_area(), 20);
    EXPECT_EQ(tables.table(0).min_area(), 20);
    const CycleCount expected[] = {20, 20, 30, 30, 30};
    for (WireCount w = 1; w <= 5; ++w) {
        EXPECT_EQ(tables.min_area_from(0, w), expected[w - 1]) << "w " << w;
        EXPECT_EQ(tables.table(0).min_area_from(w), expected[w - 1]) << "w " << w;
    }
    expect_min_area_from_matches_brute_force(tables);
}

/// A one-module blob with times 100, 50 and the given used widths.
std::string two_width_blob(std::uint32_t used_at_one, std::uint32_t used_at_two)
{
    ByteWriter blob;
    blob.u32(1);
    blob.u32(2);
    blob.u64(100);
    blob.u64(50);
    blob.u32(used_at_one);
    blob.u32(used_at_two);
    return blob.take();
}

TEST(TimeTablesProperty, DecoderRejectsUsedWidthsTheTimesDoNotImply)
{
    const Soc soc("one", {Module("m", 1, 1, 0, 5, {6, 6})});
    // The time drops at width 2, so width 2 uses itself.
    EXPECT_NO_THROW((void)shm::ShmStore::decode_tables(two_width_blob(1, 2), soc));
    EXPECT_THROW((void)shm::ShmStore::decode_tables(two_width_blob(1, 1), soc),
                 ValidationError);
}

} // namespace
} // namespace mst
