// Golden fingerprint tests for the memoized Step-1/Step-2 pipeline: on
// every ITC'02 benchmark SOC and every ExpansionPolicy ablation, the
// fast path (WrapperTimeCalculator tables + PackEngine memo) must
// produce a Solution byte-identical to the from-scratch seed pipeline
// (reference table build, no memoization). Solutions are compared via
// their full deterministic JSON rendering, so sites, channels, cycles,
// throughput, TAM plan, E-RPCT wrapper, and the whole site curve all
// participate in the equality.
//
// The first-fit group-selection ablation has no from-scratch twin to
// compare against, so its grid is pinned to literal FNV-1a hashes of the
// same JSON rendering instead: any change to which group first-fit picks
// shows up as a changed hash.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>

#include "arch/channel_group.hpp"
#include "common/error.hpp"
#include "common/hash.hpp"
#include "core/optimizer.hpp"
#include "report/solution_json.hpp"
#include "soc/profiles.hpp"

namespace mst {
namespace {

const char* policy_name(ExpansionPolicy policy)
{
    switch (policy) {
    case ExpansionPolicy::widen_by_kmin:
        return "widen_by_kmin";
    case ExpansionPolicy::min_widening:
        return "min_widening";
    case ExpansionPolicy::always_new_group:
        return "always_new_group";
    }
    return "?";
}

class GoldenFingerprint : public ::testing::TestWithParam<const char*> {};

TEST_P(GoldenFingerprint, MemoizedPipelineMatchesFromScratchRun)
{
    const Soc soc = make_benchmark_soc(GetParam());
    const SocTimeTables fast_tables(soc, TableBuild::fast);
    const SocTimeTables reference_tables(soc, TableBuild::reference);

    TestCell cell; // 512 channels x 7M vectors, the paper's cell

    for (const ExpansionPolicy policy :
         {ExpansionPolicy::widen_by_kmin, ExpansionPolicy::min_widening,
          ExpansionPolicy::always_new_group}) {
        OptimizeOptions memoized;
        memoized.expansion = policy;
        memoized.memoize = true;

        OptimizeOptions from_scratch = memoized;
        from_scratch.memoize = false;

        const Solution fast = optimize_multi_site(fast_tables, cell, memoized);
        const Solution seed = optimize_multi_site(reference_tables, cell, from_scratch);

        EXPECT_EQ(solution_to_json(fast), solution_to_json(seed))
            << GetParam() << " under " << policy_name(policy);

        // The memoized run must not do more greedy work than the
        // from-scratch run; the cache only ever removes passes.
        EXPECT_EQ(fast.stats.packing.pack_calls, seed.stats.packing.pack_calls)
            << GetParam() << " under " << policy_name(policy);
        EXPECT_LE(fast.stats.packing.greedy_passes, seed.stats.packing.greedy_passes)
            << GetParam() << " under " << policy_name(policy);
        EXPECT_EQ(seed.stats.packing.pack_cache_hits, 0)
            << GetParam() << " under " << policy_name(policy);
    }
}

const char* order_name(ModuleOrder order)
{
    return order == ModuleOrder::by_min_width ? "by_min_width" : "by_volume";
}

/// One cell of the first-fit grid and the hash of its solution JSON
/// (0: the optimizer reports the cell infeasible).
struct FirstFitGolden {
    const char* soc;
    ExpansionPolicy expansion;
    ModuleOrder order;
    CycleCount depth;
    std::uint64_t json_hash;
};

constexpr ExpansionPolicy widen_by_kmin = ExpansionPolicy::widen_by_kmin;
constexpr ExpansionPolicy min_widening = ExpansionPolicy::min_widening;
constexpr ExpansionPolicy always_new_group = ExpansionPolicy::always_new_group;
constexpr ModuleOrder by_min_width = ModuleOrder::by_min_width;
constexpr ModuleOrder by_volume = ModuleOrder::by_volume;

/// Captured before the width-indexed group selection replaced the linear
/// first-fit scan; the index must reproduce every pick.
const FirstFitGolden first_fit_goldens[] = {
    {"d695", widen_by_kmin, by_min_width, 1 * mebi, 0x0da8d24a8bec765eULL},
    {"d695", widen_by_kmin, by_min_width, 7 * mebi, 0xa0eb1cf3cd607b0aULL},
    {"d695", widen_by_kmin, by_min_width, 24 * mebi, 0xa0eb1cf3cd607b0aULL},
    {"d695", widen_by_kmin, by_volume, 1 * mebi, 0x0da8d24a8bec765eULL},
    {"d695", widen_by_kmin, by_volume, 7 * mebi, 0xa0eb1cf3cd607b0aULL},
    {"d695", widen_by_kmin, by_volume, 24 * mebi, 0xa0eb1cf3cd607b0aULL},
    {"d695", min_widening, by_min_width, 1 * mebi, 0x0da8d24a8bec765eULL},
    {"d695", min_widening, by_min_width, 7 * mebi, 0xa0eb1cf3cd607b0aULL},
    {"d695", min_widening, by_min_width, 24 * mebi, 0xa0eb1cf3cd607b0aULL},
    {"d695", min_widening, by_volume, 1 * mebi, 0x0da8d24a8bec765eULL},
    {"d695", min_widening, by_volume, 7 * mebi, 0xa0eb1cf3cd607b0aULL},
    {"d695", min_widening, by_volume, 24 * mebi, 0xa0eb1cf3cd607b0aULL},
    {"d695", always_new_group, by_min_width, 1 * mebi, 0x9764c559f28622e0ULL},
    {"d695", always_new_group, by_min_width, 7 * mebi, 0xa0eb1cf3cd607b0aULL},
    {"d695", always_new_group, by_min_width, 24 * mebi, 0xa0eb1cf3cd607b0aULL},
    {"d695", always_new_group, by_volume, 1 * mebi, 0x9764c559f28622e0ULL},
    {"d695", always_new_group, by_volume, 7 * mebi, 0xa0eb1cf3cd607b0aULL},
    {"d695", always_new_group, by_volume, 24 * mebi, 0xa0eb1cf3cd607b0aULL},
    {"p22810", widen_by_kmin, by_min_width, 1 * mebi, 0x1791577efc4d98a5ULL},
    {"p22810", widen_by_kmin, by_min_width, 7 * mebi, 0xa671a08330d4a573ULL},
    {"p22810", widen_by_kmin, by_min_width, 24 * mebi, 0xa9e5fd22a7da8827ULL},
    {"p22810", widen_by_kmin, by_volume, 1 * mebi, 0x1791577efc4d98a5ULL},
    {"p22810", widen_by_kmin, by_volume, 7 * mebi, 0xa671a08330d4a573ULL},
    {"p22810", widen_by_kmin, by_volume, 24 * mebi, 0xa9e5fd22a7da8827ULL},
    {"p22810", min_widening, by_min_width, 1 * mebi, 0x1791577efc4d98a5ULL},
    {"p22810", min_widening, by_min_width, 7 * mebi, 0xa671a08330d4a573ULL},
    {"p22810", min_widening, by_min_width, 24 * mebi, 0xa9e5fd22a7da8827ULL},
    {"p22810", min_widening, by_volume, 1 * mebi, 0x1791577efc4d98a5ULL},
    {"p22810", min_widening, by_volume, 7 * mebi, 0xa671a08330d4a573ULL},
    {"p22810", min_widening, by_volume, 24 * mebi, 0xa9e5fd22a7da8827ULL},
    {"p22810", always_new_group, by_min_width, 1 * mebi, 0x1791577efc4d98a5ULL},
    {"p22810", always_new_group, by_min_width, 7 * mebi, 0xa671a08330d4a573ULL},
    {"p22810", always_new_group, by_min_width, 24 * mebi, 0xa9e5fd22a7da8827ULL},
    {"p22810", always_new_group, by_volume, 1 * mebi, 0x1791577efc4d98a5ULL},
    {"p22810", always_new_group, by_volume, 7 * mebi, 0xa671a08330d4a573ULL},
    {"p22810", always_new_group, by_volume, 24 * mebi, 0xa9e5fd22a7da8827ULL},
    {"p34392", widen_by_kmin, by_min_width, 1 * mebi, 0x7156b81c7010104aULL},
    {"p34392", widen_by_kmin, by_min_width, 7 * mebi, 0x8050ee1a526e3c40ULL},
    {"p34392", widen_by_kmin, by_min_width, 24 * mebi, 0x138bea9fc9184c96ULL},
    {"p34392", widen_by_kmin, by_volume, 1 * mebi, 0x7156b81c7010104aULL},
    {"p34392", widen_by_kmin, by_volume, 7 * mebi, 0x8050ee1a526e3c40ULL},
    {"p34392", widen_by_kmin, by_volume, 24 * mebi, 0x138bea9fc9184c96ULL},
    {"p34392", min_widening, by_min_width, 1 * mebi, 0x7156b81c7010104aULL},
    {"p34392", min_widening, by_min_width, 7 * mebi, 0x8050ee1a526e3c40ULL},
    {"p34392", min_widening, by_min_width, 24 * mebi, 0x138bea9fc9184c96ULL},
    {"p34392", min_widening, by_volume, 1 * mebi, 0x7156b81c7010104aULL},
    {"p34392", min_widening, by_volume, 7 * mebi, 0x8050ee1a526e3c40ULL},
    {"p34392", min_widening, by_volume, 24 * mebi, 0x138bea9fc9184c96ULL},
    {"p34392", always_new_group, by_min_width, 1 * mebi, 0x8af5c4161ca4ad42ULL},
    {"p34392", always_new_group, by_min_width, 7 * mebi, 0x8050ee1a526e3c40ULL},
    {"p34392", always_new_group, by_min_width, 24 * mebi, 0x74aea717c39171eaULL},
    {"p34392", always_new_group, by_volume, 1 * mebi, 0x8af5c4161ca4ad42ULL},
    {"p34392", always_new_group, by_volume, 7 * mebi, 0x8050ee1a526e3c40ULL},
    {"p34392", always_new_group, by_volume, 24 * mebi, 0x74aea717c39171eaULL},
    {"p93791", widen_by_kmin, by_min_width, 1 * mebi, 0xb418b3c25544e916ULL},
    {"p93791", widen_by_kmin, by_min_width, 7 * mebi, 0x33340ab23c406483ULL},
    {"p93791", widen_by_kmin, by_min_width, 24 * mebi, 0x9d3009e7897c046cULL},
    {"p93791", widen_by_kmin, by_volume, 1 * mebi, 0xb418b3c25544e916ULL},
    {"p93791", widen_by_kmin, by_volume, 7 * mebi, 0x33340ab23c406483ULL},
    {"p93791", widen_by_kmin, by_volume, 24 * mebi, 0x9d3009e7897c046cULL},
    {"p93791", min_widening, by_min_width, 1 * mebi, 0x73b47dbeda95ea8dULL},
    {"p93791", min_widening, by_min_width, 7 * mebi, 0x9e2630145a391913ULL},
    {"p93791", min_widening, by_min_width, 24 * mebi, 0x9d3009e7897c046cULL},
    {"p93791", min_widening, by_volume, 1 * mebi, 0x73b47dbeda95ea8dULL},
    {"p93791", min_widening, by_volume, 7 * mebi, 0x9e2630145a391913ULL},
    {"p93791", min_widening, by_volume, 24 * mebi, 0x9d3009e7897c046cULL},
    {"p93791", always_new_group, by_min_width, 1 * mebi, 0xa1d0c524243077abULL},
    {"p93791", always_new_group, by_min_width, 7 * mebi, 0x35c02bd563ef52ddULL},
    {"p93791", always_new_group, by_min_width, 24 * mebi, 0x82b2742234a6dc86ULL},
    {"p93791", always_new_group, by_volume, 1 * mebi, 0xa1d0c524243077abULL},
    {"p93791", always_new_group, by_volume, 7 * mebi, 0x35c02bd563ef52ddULL},
    {"p93791", always_new_group, by_volume, 24 * mebi, 0x82b2742234a6dc86ULL},
};

TEST(GoldenFingerprint, FirstFitAblationMatchesPinnedHashes)
{
    std::optional<Soc> soc;
    std::optional<SocTimeTables> tables; // over *soc, rebuilt when the SOC changes
    for (const FirstFitGolden& golden : first_fit_goldens) {
        if (!soc || soc->name() != golden.soc) {
            tables.reset();
            soc.emplace(make_benchmark_soc(golden.soc));
            tables.emplace(*soc);
        }
        OptimizeOptions options;
        options.group_select = GroupSelectPolicy::first_fit;
        options.expansion = golden.expansion;
        options.module_order = golden.order;
        TestCell cell;
        cell.ate.vector_memory_depth = golden.depth;
        std::uint64_t hash = 0;
        try {
            const std::string json = solution_to_json(optimize_multi_site(*tables, cell, options));
            hash = fnv1a64(json.data(), json.size());
        } catch (const InfeasibleError&) {
        }
        EXPECT_EQ(hash, golden.json_hash)
            << golden.soc << " under " << policy_name(golden.expansion) << ", "
            << order_name(golden.order) << ", depth " << golden.depth;
    }
}

INSTANTIATE_TEST_SUITE_P(Itc02Socs, GoldenFingerprint,
                         ::testing::Values("d695", "p22810", "p34392", "p93791"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                             return std::string(info.param);
                         });

} // namespace
} // namespace mst
