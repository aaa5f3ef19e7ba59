// Exhaustive cross-check of the fast wrapper-time path: the loads-only
// WrapperTimeCalculator and the TableBuild::fast staircases must be
// byte-identical to the full design_wrapper reference at every width.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <functional>
#include <string>
#include <vector>

#include "arch/channel_group.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "one_module_tables.hpp"
#include "soc/generator.hpp"
#include "soc/profiles.hpp"
#include "wrapper/pareto.hpp"
#include "wrapper/test_time.hpp"
#include "wrapper/time_calculator.hpp"
#include "wrapper/wrapper_design.hpp"

namespace mst {
namespace {

/// Which waterlines reach the calculator's upper bound on the LPT scan
/// maximum at `width` (recomputed here from the module, independently of
/// the calculator): LPT is skipped exactly when both do.
struct SkipRegime {
    bool in_covers = false;
    bool out_covers = false;
};

SkipRegime skip_regime(const Module& module, WireCount width)
{
    std::vector<FlipFlopCount> lengths = module.scan_chain_lengths();
    std::sort(lengths.begin(), lengths.end(), std::greater<FlipFlopCount>());
    const FlipFlopCount total = module.total_scan_flip_flops();
    FlipFlopCount bound = lengths.empty() ? 0 : lengths.front();
    if (static_cast<std::size_t>(width) < lengths.size()) {
        bound = std::max(bound, (total - lengths.back()) / width +
                                    lengths[static_cast<std::size_t>(width)]);
    }
    const auto waterline = [&](int cells) { return (total + cells + width - 1) / width; };
    return {waterline(module.scan_in_cells()) >= bound,
            waterline(module.scan_out_cells()) >= bound};
}

/// Widths in 1..max useful width at which `module` is in the given regime.
std::vector<WireCount> widths_in_regime(const Module& module, bool in_covers, bool out_covers)
{
    std::vector<WireCount> widths;
    for (WireCount w = 1; w <= std::min(module.max_useful_width(), width_cap); ++w) {
        const SkipRegime regime = skip_regime(module, w);
        if (regime.in_covers == in_covers && regime.out_covers == out_covers) {
            widths.push_back(w);
        }
    }
    return widths;
}

void expect_tables_equal(const Module& module)
{
    const OneModuleTables fast_tables(module, TableBuild::fast);
    const OneModuleTables reference_tables(module, TableBuild::reference);
    const ModuleTimeTable fast = fast_tables.table();
    const ModuleTimeTable reference = reference_tables.table();
    ASSERT_EQ(fast.max_width(), reference.max_width()) << module.name();
    for (WireCount w = 1; w <= fast.max_width(); ++w) {
        ASSERT_EQ(fast.time(w), reference.time(w)) << module.name() << " width " << w;
        ASSERT_EQ(fast.used_width(w), reference.used_width(w)) << module.name() << " width " << w;
    }
    EXPECT_EQ(fast.min_area(), reference.min_area()) << module.name();
    const std::vector<ParetoPoint> fast_pareto = fast.pareto();
    const std::vector<ParetoPoint> reference_pareto = reference.pareto();
    ASSERT_EQ(fast_pareto.size(), reference_pareto.size()) << module.name();
    for (std::size_t i = 0; i < fast_pareto.size(); ++i) {
        EXPECT_EQ(fast_pareto[i].width, reference_pareto[i].width);
        EXPECT_EQ(fast_pareto[i].test_time, reference_pareto[i].test_time);
    }
}

void expect_calculator_matches_reference(const Module& module)
{
    const WrapperTimeCalculator calculator(module);
    const WireCount limit = std::min(module.max_useful_width(), width_cap);
    for (WireCount w = 1; w <= limit; ++w) {
        ASSERT_EQ(calculator.time(w), wrapped_test_time(module, w))
            << "module '" << module.name() << "' at width " << w;
    }
    // Beyond the useful width the time must saturate, not change.
    EXPECT_EQ(calculator.time(limit + 7), wrapped_test_time(module, limit + 7))
        << "module '" << module.name() << "' beyond max useful width";
}

TEST(WrapperTimeCalculator, MatchesDesignWrapperOnBenchmarkSocs)
{
    for (const std::string& name : {"d695", "p22810", "p34392"}) {
        const Soc soc = make_benchmark_soc(name);
        for (const Module& module : soc.modules()) {
            expect_calculator_matches_reference(module);
        }
    }
}

TEST(WrapperTimeCalculator, MatchesDesignWrapperOnRandomSocs)
{
    for (const std::uint64_t seed : test_seeds::property_cases) {
        const Soc soc = random_soc(seed, 10);
        for (const Module& module : soc.modules()) {
            expect_calculator_matches_reference(module);
        }
    }
}

TEST(WrapperTimeCalculator, HandlesDegenerateModules)
{
    // No scan chains at all (memory-interface style module).
    const Module combinational("comb", 17, 9, 3, 250, {});
    expect_calculator_matches_reference(combinational);

    // Scan chains but no functional terminals on one side.
    const Module no_outputs("no_out", 12, 0, 0, 50, {100, 80, 3});
    expect_calculator_matches_reference(no_outputs);

    // One long chain dominating many short ones.
    const Module skewed("skewed", 4, 4, 0, 10, {5000, 1, 1, 1, 1, 1, 1, 1});
    expect_calculator_matches_reference(skewed);

    EXPECT_THROW((void)WrapperTimeCalculator(combinational).time(0), ValidationError);
}

TEST(WrapperTimeCalculator, MatchesDesignWrapperOnWideShallowSoc)
{
    // The shape of the gen*-wide scale scenarios: many modules with wide
    // functional interfaces over short chains, where the waterlines
    // usually cover the LPT bound and the scan maximum is never computed.
    const Soc soc = generate_soc(scaled_benchmark_config("wide", 200, ScaledShape::wide_shallow));
    int skipped = 0;
    int scheduled = 0;
    for (const Module& module : soc.modules()) {
        expect_calculator_matches_reference(module);
        skipped += static_cast<int>(widths_in_regime(module, true, true).size());
        scheduled += static_cast<int>(widths_in_regime(module, true, false).size() +
                                      widths_in_regime(module, false, true).size() +
                                      widths_in_regime(module, false, false).size());
    }
    EXPECT_GT(skipped, 0);
    EXPECT_GT(scheduled, 0);
}

TEST(WrapperTimeCalculator, MatchesDesignWrapperInEveryBoundRegime)
{
    // Wide inputs, no outputs: only the scan-in waterline covers the bound.
    const Module in_only("in_only", 100, 0, 0, 9, {10, 10, 10, 10});
    EXPECT_FALSE(widths_in_regime(in_only, true, false).empty());
    expect_calculator_matches_reference(in_only);

    // The mirror image: only the scan-out waterline covers the bound.
    const Module out_only("out_only", 0, 100, 0, 9, {10, 10, 10, 10});
    EXPECT_FALSE(widths_in_regime(out_only, false, true).empty());
    expect_calculator_matches_reference(out_only);

    // Both cover (LPT skipped) at narrow widths, neither at wide ones.
    const Module both("both", 40, 40, 8, 3, {3, 3, 2, 2, 1});
    EXPECT_FALSE(widths_in_regime(both, true, true).empty());
    EXPECT_FALSE(widths_in_regime(both, false, false).empty());
    expect_calculator_matches_reference(both);

    // All chains equal: the bound is tight at every multiple of width.
    const Module equal("equal", 5, 5, 0, 4, {7, 7, 7, 7, 7, 7, 7});
    expect_calculator_matches_reference(equal);

    // Width n - 1: a single chain is left over after the seeded heap.
    const Module leftover("leftover", 1, 1, 0, 6, {50, 40, 30, 20, 10});
    EXPECT_FALSE(skip_regime(leftover, 4).in_covers);
    EXPECT_EQ(WrapperTimeCalculator(leftover).time(4), wrapped_test_time(leftover, 4));
    expect_calculator_matches_reference(leftover);

    // Zero cells on one side: that waterline is the bare average load.
    const Module no_inputs("no_inputs", 0, 30, 0, 5, {20, 15, 5});
    const Module no_outputs("no_outputs", 30, 0, 0, 5, {20, 15, 5});
    expect_calculator_matches_reference(no_inputs);
    expect_calculator_matches_reference(no_outputs);
}

/// The loads-only heap LPT the run-batched one replaced, kept as the
/// oracle: longest chain first onto the currently least-loaded wrapper
/// chain, one chain at a time.
FlipFlopCount heap_lpt_max_load(std::vector<FlipFlopCount> lengths, WireCount width)
{
    std::sort(lengths.begin(), lengths.end(), std::greater<FlipFlopCount>());
    std::vector<FlipFlopCount> loads(static_cast<std::size_t>(width), 0);
    const auto min_heap = std::greater<FlipFlopCount>();
    for (const FlipFlopCount length : lengths) {
        std::pop_heap(loads.begin(), loads.end(), min_heap);
        loads.back() += length;
        std::push_heap(loads.begin(), loads.end(), min_heap);
    }
    return *std::max_element(loads.begin(), loads.end());
}

/// Up to 600 chains drawn from 1-4 distinct lengths of at most
/// `longest`; more chains than width_cap if `past_width_cap`.
std::vector<FlipFlopCount> random_chain_multiset(std::uint64_t seed, bool past_width_cap,
                                                 FlipFlopCount longest)
{
    Rng rng(seed);
    std::vector<FlipFlopCount> distinct(static_cast<std::size_t>(rng.uniform_int(1, 4)));
    for (FlipFlopCount& length : distinct) {
        length = rng.uniform_int(1, longest);
    }
    const auto count = past_width_cap ? rng.uniform_int(width_cap + 1, 600)
                                      : rng.uniform_int(2, width_cap);
    std::vector<FlipFlopCount> lengths;
    const auto last = static_cast<std::int64_t>(distinct.size()) - 1;
    for (std::int64_t c = 0; c < count; ++c) {
        lengths.push_back(distinct[static_cast<std::size_t>(rng.uniform_int(0, last))]);
    }
    return lengths;
}

TEST(WrapperTimeCalculator, RunBatchedLptMatchesHeapLptAtEveryWidth)
{
    bool covered_past_width_cap = false;
    for (std::size_t i = 0; i < std::size(test_seeds::lpt_runs); ++i) {
        const std::uint64_t seed = test_seeds::lpt_runs[i];
        // Short lengths make wrapper chains meet at equal loads often.
        const std::vector<FlipFlopCount> lengths =
            random_chain_multiset(seed, i % 2 == 0, i % 4 < 2 ? 2000 : 8);
        const auto n = static_cast<WireCount>(lengths.size());
        covered_past_width_cap |= n > width_cap;
        // Without functional cells and with one pattern the time is
        // 2 * scan_max + 1, so it pins the LPT maximum itself.
        const Module bare("bare", 0, 0, 0, 1, lengths);
        // With cells the maximum enters through both waterlines.
        Rng rng(seed + 1);
        const Module celled("celled", static_cast<int>(rng.uniform_int(0, 400)),
                            static_cast<int>(rng.uniform_int(0, 400)), 0, 7, lengths);
        const WrapperTimeCalculator bare_time(bare);
        const WrapperTimeCalculator celled_time(celled);
        int scheduled = 0;
        for (WireCount w = 1; w < n; ++w) {
            const FlipFlopCount scan_max = heap_lpt_max_load(lengths, w);
            ASSERT_EQ(bare_time.time(w), 2 * scan_max + 1) << "seed " << seed << " width " << w;
            const FlipFlopCount total = celled.total_scan_flip_flops();
            const auto side = [&](int cells) {
                return std::max(scan_max, (total + cells + w - 1) / w);
            };
            ASSERT_EQ(celled_time.time(w),
                      scan_test_time(celled.patterns(), side(celled.scan_in_cells()),
                                     side(celled.scan_out_cells())))
                << "seed " << seed << " width " << w;
            scheduled += skip_regime(bare, w).in_covers ? 0 : 1;
        }
        EXPECT_GT(scheduled, 0) << "seed " << seed << ": LPT never ran";
    }
    EXPECT_TRUE(covered_past_width_cap);
}

TEST(ModuleTimeTable, StaircaseKernelEdgeCasesEqualReferenceBuild)
{
    // No scan chains: every width lies past the chain count.
    expect_tables_equal(Module("comb", 17, 9, 3, 250, {}));

    // Zero cells on one side: that side is the bare average load.
    expect_tables_equal(Module("no_outputs", 12, 0, 0, 50, {100, 80, 3}));
    expect_tables_equal(Module("no_inputs", 0, 12, 0, 50, {100, 80, 3}));

    // Scan-in waterline ceil(30/w) steps 15 -> 10 at width 3 and meets
    // the longest chain there exactly: the interval boundary where that
    // side goes flat, while the scan-out side keeps stepping to width 7.
    const Module meets("meets", 10, 50, 0, 4, {10, 10});
    const auto in_waterline = [](WireCount w) { return (20 + 10 + w - 1) / w; };
    EXPECT_EQ(in_waterline(2), 15);
    EXPECT_EQ(in_waterline(3), 10);
    EXPECT_EQ(table_extent(meets), 7);
    expect_tables_equal(meets);

    // Saturation lies past width_cap (ceil(1102/2) = 551), so the
    // extent is cut at the cap and the last interval with it.
    const Module wide("wide", 1100, 3, 0, 2, {2});
    EXPECT_EQ(table_extent(wide), width_cap);
    expect_tables_equal(wide);

    // A single chain.
    expect_tables_equal(Module("single", 7, 3, 0, 11, {40}));
}

TEST(ModuleTimeTable, FastBuildEqualsReferenceBuild)
{
    const Soc d695 = make_benchmark_soc("d695");
    for (const Module& module : d695.modules()) {
        expect_tables_equal(module);
    }
    const Soc wide = generate_soc(scaled_benchmark_config("wide", 200, ScaledShape::wide_shallow));
    for (const Module& module : wide.modules()) {
        expect_tables_equal(module);
    }
}

TEST(SocTimeTables, TotalMinAreaSumsModuleMinima)
{
    const Soc soc = make_benchmark_soc("d695");
    const SocTimeTables tables(soc);
    CycleCount expected = 0;
    for (int m = 0; m < tables.module_count(); ++m) {
        expected += tables.table(m).min_area();
    }
    EXPECT_EQ(tables.total_min_area(), expected);
    EXPECT_GT(tables.total_min_area(), 0);
}

} // namespace
} // namespace mst
