#include "wrapper/time_calculator.hpp"

#include <algorithm>
#include <functional>
#include <limits>
#include <vector>

#include "common/error.hpp"
#include "wrapper/test_time.hpp"

namespace mst {

namespace {

/// Ceiling of the average load after water-filling `cells` unit items
/// onto `width` wrapper chains whose scan loads sum to `total`. The
/// greedy fill (each cell onto the currently shortest chain) realizes
/// the optimal maximum, which is max(scan maximum, waterline): the peak
/// while the valleys absorb the cells, the waterline once they overflow.
FlipFlopCount waterline(FlipFlopCount total, int cells, WireCount width) noexcept
{
    return (total + cells + width - 1) / width;
}

/// `count` scan chains of one length.
struct ChainRun {
    FlipFlopCount length = 0;
    std::size_t count = 0;
};

/// `count` wrapper chains carrying the same scan load.
struct LoadLevel {
    FlipFlopCount load = 0;
    std::size_t count = 0;
};

/// One module's scan chains, sorted once, plus the LPT load buffers.
/// One instance per thread, reused across modules: the table build
/// sorts into it instead of copying a vector per module.
struct ChainScratch {
    std::vector<FlipFlopCount> lengths; ///< descending
    std::vector<ChainRun> runs;         ///< `lengths` grouped, descending
    std::vector<LoadLevel> levels;      ///< LPT loads, run-length encoded
    std::vector<LoadLevel> raised;      ///< levels that just took a chain each
    FlipFlopCount total = 0;            ///< sum of `lengths`

    [[nodiscard]] FlipFlopCount longest() const noexcept
    {
        return lengths.empty() ? 0 : lengths.front();
    }
};

ChainScratch& sorted_chains(const Module& module)
{
    thread_local ChainScratch chains;
    chains.lengths.assign(module.scan_chain_lengths().begin(), module.scan_chain_lengths().end());
    std::sort(chains.lengths.begin(), chains.lengths.end(), std::greater<FlipFlopCount>());
    chains.runs.clear();
    chains.total = 0;
    for (const FlipFlopCount length : chains.lengths) {
        chains.total += length;
        if (chains.runs.empty() || chains.runs.back().length != length) {
            chains.runs.push_back({length, 0});
        }
        ++chains.runs.back().count;
    }
    return chains;
}

/// LPT maximum aggregate scan length over `width` < n wrapper chains:
/// longest chain first onto the currently shortest wrapper chain.
/// Which equal-load chain receives a chain does not affect the evolving
/// load multiset, so tracking loads alone yields the same maximum as the
/// index-tie-broken heap in design_wrapper.
///
/// The loads are kept ascending as levels of equal load. The first
/// `width` chains each land on an empty wrapper chain, so they seed the
/// levels directly. After that each run of k equal chains of length L
/// is placed in batches. Let u0 be the minimum load. Every load
/// u <= u0 + L receives a chain before any raised load does (u <= u0 + L
/// <= any raised load), so the lowest min(k, #loads <= u0 + L) loads
/// each take one chain in a single step and are sorted back in: every
/// placement lands on a current minimum, so the load multiset equals
/// the heap's. When max - min <= L every load qualifies, and a round
/// adds L to all of them without changing the spread, so floor(k/w)
/// whole rounds go in at once.
FlipFlopCount lpt_max_load(ChainScratch& chains, WireCount width)
{
    const std::vector<ChainRun>& runs = chains.runs;
    std::vector<LoadLevel>& levels = chains.levels;
    const auto w = static_cast<std::size_t>(width);
    std::size_t r = 0;      // current run
    std::size_t placed = 0; // chains of runs[r] already placed
    levels.clear();
    for (std::size_t empty = w; empty > 0;) {
        const std::size_t take = std::min(runs[r].count, empty);
        levels.push_back({runs[r].length, take});
        empty -= take;
        if (take < runs[r].count) {
            placed = take;
        } else {
            ++r;
        }
    }
    std::reverse(levels.begin(), levels.end());

    std::size_t low = 0; // levels[low, end) hold the loads
    // Sort a raised level back in, scanning down from the top: a load
    // that just took a chain tends to land among the highest.
    const auto insert_level = [&](LoadLevel raised) {
        std::size_t i = levels.size();
        while (i > low && levels[i - 1].load > raised.load) {
            --i;
        }
        if (i > low && levels[i - 1].load == raised.load) {
            levels[i - 1].count += raised.count;
        } else {
            levels.insert(levels.begin() + static_cast<std::ptrdiff_t>(i), raised);
        }
    };
    for (; r < runs.size(); ++r, placed = 0) {
        const FlipFlopCount length = runs[r].length;
        std::size_t left = runs[r].count - placed;
        while (left > 0) {
            const FlipFlopCount ceiling = levels[low].load + length;
            if (left == 1) {
                if (--levels[low].count == 0) {
                    ++low;
                }
                insert_level({ceiling, 1});
                break;
            }
            if (left >= w && levels.back().load <= ceiling) {
                const std::size_t rounds = left / w;
                for (auto level = levels.begin() + static_cast<std::ptrdiff_t>(low);
                     level != levels.end(); ++level) {
                    level->load += static_cast<FlipFlopCount>(rounds) * length;
                }
                left -= rounds * w;
                continue;
            }
            // Raise the lowest loads up to the ceiling by one chain each.
            chains.raised.clear();
            while (left > 0 && low < levels.size() && levels[low].load <= ceiling) {
                LoadLevel& level = levels[low];
                const std::size_t take = std::min(left, level.count);
                chains.raised.push_back({level.load + length, take});
                left -= take;
                level.count -= take;
                if (level.count > 0) {
                    break;
                }
                ++low;
            }
            for (const LoadLevel& raised : chains.raised) {
                insert_level(raised);
            }
        }
    }
    return levels.back().load;
}

/// Wrapped test time at 1 <= `width` < n, the chain count.
CycleCount time_below_chain_count(const Module& module, ChainScratch& chains, WireCount width)
{
    const FlipFlopCount waterline_in = waterline(chains.total, module.scan_in_cells(), width);
    const FlipFlopCount waterline_out = waterline(chains.total, module.scan_out_cells(), width);
    // The scan maximum enters the time only through max(scan_max,
    // waterline) on each side, so LPT is skipped whenever an upper bound
    // UB >= scan_max lies at or under both waterlines: then both maxima
    // are the waterlines whatever LPT would return. Let p1 >= ... >= pn
    // be the sorted chain lengths, S_j their prefix sums and T = S_n.
    // At width < n the first `width` chains sit alone (loads <= p1), and
    // chain j > width (p_j <= p_{width+1}) joins the least-loaded wrapper
    // chain, whose load is at most the average S_{j-1}/width and, being
    // an integer, at most floor(S_{j-1}/width) <= floor((T - pn)/width).
    // So every final load is at most
    //   UB = max(p1, floor((T - pn)/width) + p_{width+1}).
    const FlipFlopCount scan_bound =
        std::max(chains.longest(), (chains.total - chains.lengths.back()) / width +
                                       chains.lengths[static_cast<std::size_t>(width)]);
    if (std::min(waterline_in, waterline_out) >= scan_bound) {
        return scan_test_time(module.patterns(), waterline_in, waterline_out);
    }
    const FlipFlopCount scan_max = lpt_max_load(chains, width);
    return scan_test_time(module.patterns(), std::max(scan_max, waterline_in),
                          std::max(scan_max, waterline_out));
}

/// One side's scan length at a width w >= the chain count, where every
/// chain sits alone: max(p1, ceil(A/w)) with A = T + cells.
struct SideLength {
    FlipFlopCount length = 0;
    std::size_t flat_through = 0; ///< last width keeping `length`
};

/// The side at `width`, and the last width where it keeps that length.
/// ceil(A/w) = q holds through floor((A - 1)/(q - 1)) for q >= 2; a side
/// at or under max(p1, 1) stays there at every wider width.
SideLength side_from_chain_count(const ChainScratch& chains, int cells, WireCount width) noexcept
{
    const FlipFlopCount q = waterline(chains.total, cells, width);
    if (q <= std::max<FlipFlopCount>(chains.longest(), 1)) {
        return {std::max(chains.longest(), q), std::numeric_limits<std::size_t>::max()};
    }
    return {q, static_cast<std::size_t>((chains.total + cells - 1) / (q - 1))};
}

} // namespace

CycleCount WrapperTimeCalculator::time(WireCount width) const
{
    if (width < 1) {
        throw ValidationError("wrapper width must be at least 1 wire (module '" +
                              module_->name() + "')");
    }
    ChainScratch& chains = sorted_chains(*module_);
    if (static_cast<std::size_t>(width) < chains.lengths.size()) {
        return time_below_chain_count(*module_, chains, width);
    }
    return scan_test_time(module_->patterns(),
                          side_from_chain_count(chains, module_->scan_in_cells(), width).length,
                          side_from_chain_count(chains, module_->scan_out_cells(), width).length);
}

void WrapperTimeCalculator::staircase(CycleCount* times, std::size_t count) const
{
    ChainScratch& chains = sorted_chains(*module_);
    CycleCount best = 0;
    std::size_t i = 0;
    for (; i < count && i + 1 < chains.lengths.size(); ++i) {
        const CycleCount raw =
            time_below_chain_count(*module_, chains, static_cast<WireCount>(i) + 1);
        if (i == 0 || raw < best) {
            best = raw;
        }
        times[i] = best;
    }
    // From the chain count on, the time is constant between the widths
    // where either clamped waterline steps: one evaluation and one fill
    // per interval.
    while (i < count) {
        const auto width = static_cast<WireCount>(i) + 1;
        const SideLength in = side_from_chain_count(chains, module_->scan_in_cells(), width);
        const SideLength out = side_from_chain_count(chains, module_->scan_out_cells(), width);
        const CycleCount raw = scan_test_time(module_->patterns(), in.length, out.length);
        if (i == 0 || raw < best) {
            best = raw;
        }
        const std::size_t end = std::min({in.flat_through, out.flat_through, count});
        std::fill(times + i, times + end, best);
        i = end;
    }
}

} // namespace mst
