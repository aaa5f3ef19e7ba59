// Test helper: one module's time table, built the way the library builds
// every table — as the single slice of a one-module SocTimeTables.
#pragma once

#include <utility>

#include "arch/channel_group.hpp"
#include "soc/soc.hpp"

namespace mst {

/// A one-module SOC and its tables. Not copyable: the tables point into
/// the SOC.
struct OneModuleTables {
    explicit OneModuleTables(Module module, TableBuild build = TableBuild::fast)
        : soc("one", {std::move(module)}), tables(soc, build)
    {
    }
    OneModuleTables(const OneModuleTables&) = delete;
    OneModuleTables& operator=(const OneModuleTables&) = delete;

    [[nodiscard]] ModuleTimeTable table() const { return tables.table(0); }

    Soc soc;
    SocTimeTables tables;
};

} // namespace mst
