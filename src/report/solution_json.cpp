#include "report/solution_json.hpp"

#include <cstdio>
#include <ostream>
#include <sstream>

namespace mst {

/// RFC 8259 string escaping (control characters, quote, backslash).
std::string json_escape(const std::string& text)
{
    std::string out;
    out.reserve(text.size() + 2);
    for (const char ch : text) {
        switch (ch) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\r':
            out += "\\r";
            break;
        case '\t':
            out += "\\t";
            break;
        default:
            if (static_cast<unsigned char>(ch) < 0x20) {
                char buffer[8];
                std::snprintf(buffer, sizeof buffer, "\\u%04x", ch);
                out += buffer;
            } else {
                out += ch;
            }
        }
    }
    return out;
}

std::string json_number(double value)
{
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, "%.6g", value);
    return buffer;
}

void write_solution_json(std::ostream& out, const Solution& solution, JsonStyle style)
{
    // Layout tokens: pretty indents nested objects, compact stays on one
    // line. Key order and value formatting are identical either way.
    const bool pretty = (style == JsonStyle::pretty);
    const char* open = pretty ? "{\n" : "{";
    const char* key = pretty ? "  \"" : "\"";
    const char* sep = pretty ? ",\n" : ",";
    const char* item = pretty ? "    " : "";

    out << open;
    out << key << "soc\": \"" << json_escape(solution.soc_name) << "\"" << sep;
    out << key << "sites\": " << solution.sites << sep;
    out << key << "channels_per_site\": " << solution.channels_per_site << sep;
    out << key << "test_cycles\": " << solution.test_cycles << sep;
    out << key << "manufacturing_time_s\": " << json_number(solution.manufacturing_time) << sep;
    out << key << "devices_per_hour\": " << json_number(solution.throughput.devices_per_hour)
        << sep;
    out << key << "unique_devices_per_hour\": "
        << json_number(solution.throughput.unique_devices_per_hour) << sep;
    out << key << "step1\": { \"channels\": " << solution.channels_step1
        << ", \"max_sites\": " << solution.max_sites_step1 << " }" << sep;
    if (solution.exact) {
        const ExactSummary& exact = *solution.exact;
        out << key << "exact\": { \"wires\": " << exact.wires
            << ", \"greedy_wires\": " << exact.greedy_wires << ", \"gap\": " << exact.gap
            << ", \"bnb_nodes\": " << exact.nodes_explored << ", \"certified\": "
            << (exact.certified ? "true" : "false") << ", \"groups\": [";
        for (std::size_t g = 0; g < exact.groups.size(); ++g) {
            out << (g == 0 ? "" : ", ") << '[';
            for (std::size_t m = 0; m < exact.groups[g].size(); ++m) {
                out << (m == 0 ? "" : ", ") << '"' << json_escape(exact.groups[g][m]) << '"';
            }
            out << ']';
        }
        out << "] }" << sep;
    }
    out << key << "erpct\": { \"external_channels\": " << solution.erpct.external_channels
        << ", \"internal_wires\": " << solution.erpct.internal_wires
        << ", \"control_pads\": " << solution.erpct.control_pads
        << ", \"functional_pins\": " << solution.erpct.functional_pins
        << ", \"contacted_pads\": " << solution.erpct.contacted_pads() << " }" << sep;

    out << key << "tams\": [";
    for (std::size_t g = 0; g < solution.groups.size(); ++g) {
        const GroupSummary& group = solution.groups[g];
        out << (g == 0 ? (pretty ? "\n" : "") : sep) << item;
        out << "{ \"wires\": " << group.wires << ", \"channels\": " << group.channels
            << ", \"fill_cycles\": " << group.fill << ", \"modules\": [";
        for (std::size_t m = 0; m < group.module_names.size(); ++m) {
            out << (m == 0 ? "" : ", ") << '"' << json_escape(group.module_names[m]) << '"';
        }
        out << "] }";
    }
    out << (pretty ? "\n  ]" : "]") << sep;

    out << key << "site_curve\": [";
    for (std::size_t i = 0; i < solution.site_curve.size(); ++i) {
        const SitePoint& point = solution.site_curve[i];
        out << (i == 0 ? (pretty ? "\n" : "") : sep) << item;
        out << "{ \"sites\": " << point.sites << ", \"channels_per_site\": "
            << point.channels_per_site << ", \"test_cycles\": " << point.test_cycles
            << ", \"devices_per_hour\": " << json_number(point.devices_per_hour) << " }";
    }
    out << (pretty ? "\n  ]\n}\n" : "]}");
}

std::string solution_to_json(const Solution& solution, JsonStyle style)
{
    std::ostringstream stream;
    write_solution_json(stream, solution, style);
    return stream.str();
}

} // namespace mst
