#include "core/solution.hpp"

#include <algorithm>
#include <string_view>
#include <vector>

#include "common/error.hpp"

namespace mst {

namespace {

/// SOC index of `group`'s j-th module name, or -1 if the SOC has no
/// module of that name. The recorded index is taken when it names the
/// module; a summary without one falls back to a search by name.
int module_index_of(const Soc& soc, const GroupSummary& group, std::size_t j)
{
    const std::string& name = group.module_names[j];
    if (j < group.module_indices.size()) {
        const int index = group.module_indices[j];
        if (index >= 0 && index < soc.module_count() && soc.module(index).name() == name) {
            return index;
        }
    }
    for (int m = 0; m < soc.module_count(); ++m) {
        if (soc.module(m).name() == name) {
            return m;
        }
    }
    return -1;
}

} // namespace

void validate_solution(const Solution& solution, const Soc& soc, const AteSpec& ate,
                       BroadcastMode broadcast)
{
    if (solution.sites < 1) {
        throw ValidationError("solution has no test sites");
    }
    if (solution.channels_per_site <= 0 || solution.channels_per_site % 2 != 0) {
        throw ValidationError("per-site channel count must be positive and even");
    }

    // Channel budget: n*k <= K, or (n+1)*k/2 <= K with stimuli broadcast.
    const ChannelCount half = solution.channels_per_site / 2;
    const ChannelCount used = (broadcast == BroadcastMode::stimuli)
                                  ? (solution.sites + 1) * half
                                  : solution.sites * solution.channels_per_site;
    if (used > ate.channels) {
        throw ValidationError("solution exceeds the ATE channel budget");
    }

    if (solution.test_cycles > ate.vector_memory_depth) {
        throw ValidationError("solution exceeds the ATE vector memory depth");
    }

    // Architecture consistency. Each name resolves to its SOC module
    // index, so assignment is tracked in a flag per module; names not in
    // the SOC are kept apart.
    WireCount wires = 0;
    std::vector<char> assigned(static_cast<std::size_t>(soc.module_count()), 0);
    std::vector<std::string_view> foreign;
    for (const GroupSummary& group : solution.groups) {
        if (group.channels != channels_from_wires(group.wires)) {
            throw ValidationError("group channel count is not twice its wire count");
        }
        if (group.fill > ate.vector_memory_depth) {
            throw ValidationError("group fill exceeds the vector memory depth");
        }
        wires += group.wires;
        for (std::size_t j = 0; j < group.module_names.size(); ++j) {
            const std::string& name = group.module_names[j];
            const int index = module_index_of(soc, group, j);
            bool repeated = false;
            if (index >= 0) {
                repeated = assigned[static_cast<std::size_t>(index)] != 0;
                assigned[static_cast<std::size_t>(index)] = 1;
            } else {
                repeated = std::find(foreign.begin(), foreign.end(), name) != foreign.end();
                foreign.push_back(name);
            }
            if (repeated) {
                throw ValidationError("module '" + name + "' assigned to two groups");
            }
        }
    }
    if (channels_from_wires(wires) != solution.channels_per_site) {
        throw ValidationError("group widths do not add up to the per-site channel count");
    }
    for (int m = 0; m < soc.module_count(); ++m) {
        if (assigned[static_cast<std::size_t>(m)] == 0) {
            throw ValidationError("module '" + soc.module(m).name() +
                                  "' is not assigned to any group");
        }
    }
    if (!foreign.empty()) {
        throw ValidationError("solution wraps modules that are not in the SOC");
    }

    // E-RPCT interface consistency.
    if (solution.erpct.external_channels != solution.channels_per_site) {
        throw ValidationError("E-RPCT wrapper width does not match the per-site channel count");
    }
}

} // namespace mst
