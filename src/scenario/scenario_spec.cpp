#include "scenario/scenario_spec.hpp"

#include <algorithm>
#include <fstream>
#include <istream>
#include <sstream>
#include <utility>

#include "cli/flags.hpp"
#include "common/error.hpp"
#include "common/format.hpp"
#include "common/hash.hpp"
#include "service/protocol.hpp"
#include "soc/profiles.hpp"

namespace mst {

namespace {

/// Default scenario-name component of a cell: "512x7M", the historical
/// bench naming scheme.
std::string default_cell_label(const TestCell& cell)
{
    return std::to_string(cell.ate.channels) + "x" + format_depth(cell.ate.vector_memory_depth);
}

// --- Sectioned text config parsing -------------------------------------

/// One raw `key = value` line, kept with its line number so every
/// interpretation error is line-accurate.
struct RawEntry {
    int line = 0;
    std::string key;
    std::string value;
};

/// One raw `[kind arg]` section with its body.
struct RawSection {
    int line = 0;
    std::string kind;
    std::string arg;
    std::vector<RawEntry> entries;
};

[[noreturn]] void fail_at(int line, const std::string& message)
{
    throw ValidationError("scenario spec line " + std::to_string(line) + ": " + message);
}

std::string trim(const std::string& text)
{
    const std::size_t first = text.find_first_not_of(" \t\r");
    if (first == std::string::npos) {
        return "";
    }
    const std::size_t last = text.find_last_not_of(" \t\r");
    return text.substr(first, last - first + 1);
}

/// Split a list value on commas and/or whitespace: "256, 512" == "256 512".
std::vector<std::string> split_list(const std::string& text)
{
    std::vector<std::string> items;
    std::string item;
    for (const char c : text) {
        if (c == ',' || c == ' ' || c == '\t') {
            if (!item.empty()) {
                items.push_back(std::move(item));
                item.clear();
            }
        } else {
            item += c;
        }
    }
    if (!item.empty()) {
        items.push_back(std::move(item));
    }
    return items;
}

std::vector<RawSection> read_sections(std::istream& in)
{
    std::vector<RawSection> sections;
    std::string line;
    int number = 0;
    while (std::getline(in, line)) {
        ++number;
        const std::string text = trim(line);
        if (text.empty() || text.front() == '#' || text.front() == ';') {
            continue;
        }
        if (text.front() == '[') {
            if (text.back() != ']') {
                fail_at(number, "unterminated section header '" + text + "'");
            }
            const std::string inside = trim(text.substr(1, text.size() - 2));
            if (inside.empty()) {
                fail_at(number, "empty section header");
            }
            RawSection section;
            section.line = number;
            const std::size_t space = inside.find_first_of(" \t");
            section.kind = inside.substr(0, space);
            section.arg = space == std::string::npos ? "" : trim(inside.substr(space + 1));
            sections.push_back(std::move(section));
            continue;
        }
        const std::size_t eq = text.find('=');
        if (eq == std::string::npos) {
            fail_at(number, "expected 'key = value', got '" + text + "'");
        }
        if (sections.empty()) {
            fail_at(number, "'" + trim(text.substr(0, eq)) +
                                "' appears before any [section] header");
        }
        RawEntry entry;
        entry.line = number;
        entry.key = trim(text.substr(0, eq));
        entry.value = trim(text.substr(eq + 1));
        if (entry.key.empty()) {
            fail_at(number, "empty key");
        }
        sections.back().entries.push_back(std::move(entry));
    }
    return sections;
}

/// Reject `key` with a nearest-match suggestion drawn from `known`.
[[noreturn]] void fail_unknown_key(const RawEntry& entry, const std::string& where,
                                   const std::vector<cli::FlagSpec>& known)
{
    const std::string suggestion = cli::nearest_flag_name(entry.key, known);
    fail_at(entry.line, "unknown " + where + " key '" + entry.key + "'" +
                            (suggestion.empty() ? "" : "; did you mean '" + suggestion + "'?"));
}

bool parse_bool(const RawEntry& entry)
{
    if (entry.value == "true" || entry.value == "1" || entry.value == "yes") {
        return true;
    }
    if (entry.value == "false" || entry.value == "0" || entry.value == "no") {
        return false;
    }
    fail_at(entry.line, "'" + entry.key + "' expects true or false, got '" + entry.value + "'");
}

int parse_int_entry(const RawEntry& entry)
{
    try {
        return cli::parse_int_flag(entry.key, entry.value);
    } catch (const ValidationError& e) {
        fail_at(entry.line, e.what());
    }
}

double parse_double_entry(const RawEntry& entry)
{
    try {
        return cli::parse_double_flag(entry.key, entry.value);
    } catch (const ValidationError& e) {
        fail_at(entry.line, e.what());
    }
}

CycleCount parse_depth_entry(const RawEntry& entry)
{
    try {
        return parse_depth(entry.value);
    } catch (const ValidationError& e) {
        fail_at(entry.line, e.what());
    }
}

SocSource interpret_soc(const RawSection& section)
{
    static const std::vector<cli::FlagSpec> known = {
        {"name", true},  {"generate", true}, {"random", true}, {"label", true},
        {"modules", true}, {"shape", true},  {"seed", true},   {"subset", true},
    };
    SocSource source;
    bool has_kind = false;
    for (const RawEntry& entry : section.entries) {
        if (entry.key == "name") {
            if (has_kind) {
                fail_at(entry.line, "a [soc] section declares exactly one of name/generate/random");
            }
            has_kind = true;
            source.kind = SocSource::Kind::spec;
            source.spec = entry.value;
        } else if (entry.key == "generate") {
            if (has_kind) {
                fail_at(entry.line, "a [soc] section declares exactly one of name/generate/random");
            }
            has_kind = true;
            source.kind = SocSource::Kind::generator;
            source.label = entry.value;
        } else if (entry.key == "random") {
            if (has_kind) {
                fail_at(entry.line, "a [soc] section declares exactly one of name/generate/random");
            }
            has_kind = true;
            source.kind = SocSource::Kind::random;
            source.label = entry.value;
        } else if (entry.key == "label") {
            source.label = entry.value;
        } else if (entry.key == "modules") {
            source.modules = parse_int_entry(entry);
        } else if (entry.key == "seed") {
            const int seed = parse_int_entry(entry);
            if (seed < 0) {
                fail_at(entry.line, "'seed' must be non-negative");
            }
            source.seed = static_cast<std::uint64_t>(seed);
        } else if (entry.key == "subset") {
            source.subset_modules = parse_int_entry(entry);
            if (source.subset_modules < 1) {
                fail_at(entry.line, "'subset' expects a positive module count");
            }
        } else if (entry.key == "shape") {
            if (entry.value == "classic") {
                source.shape = ScaledShape::classic;
            } else if (entry.value == "wide_shallow") {
                source.shape = ScaledShape::wide_shallow;
            } else if (entry.value == "narrow_deep") {
                source.shape = ScaledShape::narrow_deep;
            } else {
                fail_at(entry.line, "'shape' expects classic, wide_shallow, or narrow_deep; "
                                    "got '" + entry.value + "'");
            }
        } else {
            fail_unknown_key(entry, "[soc]", known);
        }
    }
    if (!has_kind) {
        fail_at(section.line, "[soc] section needs one of name/generate/random");
    }
    if (source.kind != SocSource::Kind::spec && source.modules < 1) {
        fail_at(section.line, "[soc] generate/random sections need 'modules = N'");
    }
    if (source.label.empty()) {
        source.label = source.spec;
    }
    return source;
}

/// Apply a scalar cell field through the protocol's cell bindings, so
/// the spec speaks exactly the request-API field names.
void apply_cell_entry(TestCell& cell, const RawEntry& entry)
{
    for (const protocol::CellBinding& binding : protocol::cell_bindings()) {
        if (entry.key != binding.field) {
            continue;
        }
        switch (binding.kind) {
        case protocol::CellBinding::Kind::integer:
            binding.apply_int(cell, parse_int_entry(entry));
            return;
        case protocol::CellBinding::Kind::depth:
            binding.apply_depth(cell, parse_depth_entry(entry));
            return;
        case protocol::CellBinding::Kind::number:
            binding.apply_number(cell, parse_double_entry(entry));
            return;
        }
    }
    fail_unknown_key(entry, "[cell]", protocol::cell_flag_specs());
}

std::vector<CellPoint> interpret_cell_grid(const RawSection& section)
{
    static const std::vector<cli::FlagSpec> known = {
        {"channels", true}, {"depths", true}, {"clock", true},
        {"index", true},    {"contact", true},
    };
    std::vector<std::string> channels = {"512"};
    std::vector<std::string> depths = {"7M"};
    TestCell base;
    for (const RawEntry& entry : section.entries) {
        if (entry.key == "channels") {
            channels = split_list(entry.value);
            if (channels.empty()) {
                fail_at(entry.line, "'channels' expects a non-empty list");
            }
        } else if (entry.key == "depths") {
            depths = split_list(entry.value);
            if (depths.empty()) {
                fail_at(entry.line, "'depths' expects a non-empty list");
            }
        } else if (entry.key == "clock" || entry.key == "index" || entry.key == "contact") {
            apply_cell_entry(base, entry);
        } else {
            fail_unknown_key(entry, "[cells]", known);
        }
    }
    // Channels-major order, matching the historical `mst batch` grid.
    std::vector<CellPoint> points;
    for (const std::string& channel_text : channels) {
        for (const std::string& depth_text : depths) {
            CellPoint point;
            point.cell = base;
            RawEntry channel_entry{section.line, "channels", channel_text};
            point.cell.ate.channels = parse_int_entry(channel_entry);
            RawEntry depth_entry{section.line, "depths", depth_text};
            point.cell.ate.vector_memory_depth = parse_depth_entry(depth_entry);
            points.push_back(std::move(point));
        }
    }
    return points;
}

CellPoint interpret_cell(const RawSection& section)
{
    CellPoint point;
    point.label = section.arg;
    for (const RawEntry& entry : section.entries) {
        apply_cell_entry(point.cell, entry);
    }
    return point;
}

OptionVariant interpret_variant(const RawSection& section)
{
    if (section.arg.empty()) {
        fail_at(section.line, "[variant] needs a name: [variant plain]");
    }
    OptionVariant variant;
    variant.label = section.arg;
    for (const RawEntry& entry : section.entries) {
        bool applied = false;
        for (const protocol::OptionBinding& binding : protocol::option_bindings()) {
            if (entry.key != binding.json_field) {
                continue;
            }
            switch (binding.kind) {
            case protocol::OptionBinding::Kind::toggle:
                if (parse_bool(entry)) {
                    binding.apply_toggle(variant.options);
                }
                break;
            case protocol::OptionBinding::Kind::integer:
                binding.apply_int(variant.options, parse_int_entry(entry));
                break;
            case protocol::OptionBinding::Kind::number:
                binding.apply_number(variant.options, parse_double_entry(entry));
                break;
            }
            applied = true;
            break;
        }
        if (!applied) {
            std::vector<cli::FlagSpec> known;
            for (const protocol::OptionBinding& binding : protocol::option_bindings()) {
                known.push_back({binding.json_field, true});
            }
            fail_unknown_key(entry, "[variant]", known);
        }
    }
    return variant;
}

} // namespace

SocSource SocSource::by_spec(std::string spec, std::string label)
{
    SocSource source;
    source.kind = Kind::spec;
    source.label = label.empty() ? spec : std::move(label);
    source.spec = std::move(spec);
    return source;
}

SocSource SocSource::generated(std::string label, int modules, ScaledShape shape)
{
    SocSource source;
    source.kind = Kind::generator;
    source.label = std::move(label);
    source.modules = modules;
    source.shape = shape;
    return source;
}

SocSource SocSource::random(std::string label, std::uint64_t seed, int modules)
{
    SocSource source;
    source.kind = Kind::random;
    source.label = std::move(label);
    source.seed = seed;
    source.modules = modules;
    return source;
}

Soc SocSource::resolve() const
{
    Soc soc = [this] {
        switch (kind) {
        case Kind::generator:
            return generate_soc(scaled_benchmark_config(label, modules, shape));
        case Kind::random:
            return random_soc(seed, modules);
        case Kind::spec:
            break;
        }
        return load_soc_spec(spec);
    }();
    if (subset_modules <= 0) {
        return soc;
    }
    if (subset_modules > soc.module_count()) {
        throw ValidationError("SOC source '" + label + "': subset of " +
                              std::to_string(subset_modules) + " modules exceeds the SOC's " +
                              std::to_string(soc.module_count()));
    }
    // Prefix subset, renamed to the source label (the certify suite's
    // "p22810x12" idiom): downstream reports name the view, not the chip.
    std::vector<Module> modules_prefix(soc.modules().begin(),
                                       soc.modules().begin() + subset_modules);
    return Soc(label, std::move(modules_prefix));
}

std::vector<Scenario> expand(const ScenarioSpec& spec)
{
    if (spec.socs.empty()) {
        throw ValidationError("scenario spec '" + spec.name + "' has no SOC sources");
    }
    if (spec.cells.empty()) {
        throw ValidationError("scenario spec '" + spec.name + "' has no cells");
    }
    if (spec.variants.empty()) {
        throw ValidationError("scenario spec '" + spec.name + "' has no option variants");
    }
    std::vector<Scenario> scenarios;
    scenarios.reserve(spec.socs.size() * spec.cells.size() * spec.variants.size());
    for (const SocSource& source : spec.socs) {
        // One resolve per source: every scenario of this SOC shares one
        // immutable object, so table builds are shared downstream too.
        const std::shared_ptr<const Soc> soc = std::make_shared<const Soc>(source.resolve());
        const std::string soc_label = source.label.empty() ? soc->name() : source.label;
        for (const CellPoint& point : spec.cells) {
            const std::string cell_label =
                point.label.empty() ? default_cell_label(point.cell) : point.label;
            for (const OptionVariant& variant : spec.variants) {
                Scenario scenario;
                scenario.name = soc_label + "/" + cell_label + "/" + variant.label;
                scenario.soc_name = soc_label;
                scenario.variant = variant.label;
                scenario.soc = soc;
                scenario.cell = point.cell;
                scenario.options = variant.options;
                scenarios.push_back(std::move(scenario));
            }
        }
    }
    std::vector<std::string> names;
    names.reserve(scenarios.size());
    for (const Scenario& scenario : scenarios) {
        names.push_back(scenario.name);
    }
    std::sort(names.begin(), names.end());
    const auto duplicate = std::adjacent_find(names.begin(), names.end());
    if (duplicate != names.end()) {
        throw ValidationError("scenario spec '" + spec.name + "' expands to duplicate name '" +
                              *duplicate + "'");
    }
    return scenarios;
}

std::vector<Scenario> expand_all(const std::vector<ScenarioSpec>& specs)
{
    std::vector<Scenario> all;
    for (const ScenarioSpec& spec : specs) {
        std::vector<Scenario> scenarios = expand(spec);
        all.insert(all.end(), std::make_move_iterator(scenarios.begin()),
                   std::make_move_iterator(scenarios.end()));
    }
    std::vector<std::string> names;
    names.reserve(all.size());
    for (const Scenario& scenario : all) {
        names.push_back(scenario.name);
    }
    std::sort(names.begin(), names.end());
    const auto duplicate = std::adjacent_find(names.begin(), names.end());
    if (duplicate != names.end()) {
        throw ValidationError("scenario specs expand to duplicate name '" + *duplicate + "'");
    }
    return all;
}

ScenarioSpec parse_scenario_spec(std::istream& in)
{
    static const std::vector<cli::FlagSpec> section_kinds = {
        {"sweep", false}, {"soc", false}, {"cells", false},
        {"cell", false},  {"variant", false},
    };
    ScenarioSpec spec;
    for (const RawSection& section : read_sections(in)) {
        if (section.kind == "sweep") {
            for (const RawEntry& entry : section.entries) {
                if (entry.key == "name") {
                    spec.name = entry.value;
                } else {
                    fail_unknown_key(entry, "[sweep]", {{"name", true}});
                }
            }
        } else if (section.kind == "soc") {
            spec.socs.push_back(interpret_soc(section));
        } else if (section.kind == "cells") {
            std::vector<CellPoint> points = interpret_cell_grid(section);
            spec.cells.insert(spec.cells.end(), std::make_move_iterator(points.begin()),
                              std::make_move_iterator(points.end()));
        } else if (section.kind == "cell") {
            spec.cells.push_back(interpret_cell(section));
        } else if (section.kind == "variant") {
            spec.variants.push_back(interpret_variant(section));
        } else {
            const std::string suggestion = cli::nearest_flag_name(section.kind, section_kinds);
            fail_at(section.line,
                    "unknown section '[" + section.kind + "]'" +
                        (suggestion.empty() ? "" : "; did you mean '[" + suggestion + "]'?"));
        }
    }
    if (spec.variants.empty()) {
        // A spec with no [variant] sections sweeps the paper defaults.
        spec.variants.push_back({"plain", {}});
    }
    return spec;
}

ScenarioSpec load_scenario_spec(const std::string& path)
{
    std::ifstream file(path);
    if (!file) {
        throw ValidationError("cannot open scenario spec '" + path + "'");
    }
    ScenarioSpec spec = parse_scenario_spec(file);
    if (spec.name.empty()) {
        const std::size_t slash = path.find_last_of('/');
        spec.name = slash == std::string::npos ? path : path.substr(slash + 1);
    }
    return spec;
}

std::uint64_t scenario_list_fingerprint(const std::vector<Scenario>& scenarios)
{
    std::uint64_t hash = kFnvOffsetBasis;
    for (const Scenario& scenario : scenarios) {
        hash = fnv1a64(scenario.name.data(), scenario.name.size(), hash);
        hash = fnv1a64("\n", 1, hash);
    }
    return hash;
}

} // namespace mst
