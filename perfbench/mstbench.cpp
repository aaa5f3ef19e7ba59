// mstbench: the in-process half of the benchmark (perfbench/run.py).
//
//   mstbench gen <list>                  write generated .soc files
//   mstbench cells <soc> <cells> <dir>   check a cell grid feasible and
//                                        write each cell's `mst optimize
//                                        --json` answer as ref-<i>.json
//   mstbench pipeline <soc> <channels> <depth>
//                                        time `mst optimize`'s work in-process
//   mstbench trace <args...>             time the public call of each src/
//                                        layer on a workload's inputs
//
// Results go to stdout; any failure exits nonzero with the reason on
// stderr. The run.py header explains the workloads.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "arch/channel_group.hpp"
#include "batch/batch_runner.hpp"
#include "common/error.hpp"
#include "core/optimizer.hpp"
#include "core/pack_engine.hpp"
#include "core/step1.hpp"
#include "core/step2.hpp"
#include "report/solution_json.hpp"
#include "scenario/scenario_spec.hpp"
#include "scenario/sweep_records.hpp"
#include "service/protocol.hpp"
#include "service/service.hpp"
#include "service/tables_cache.hpp"
#include "shm/segment.hpp"
#include "shm/store.hpp"
#include "soc/generator.hpp"
#include "soc/parser.hpp"
#include "soc/profiles.hpp"
#include "soc/writer.hpp"

namespace {

using namespace mst;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

std::string read_file(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        throw Error("cannot read '" + path + "'");
    }
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

std::vector<std::string> read_lines(const std::string& path)
{
    std::istringstream in(read_file(path));
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line)) {
        if (!line.empty()) {
            lines.push_back(line);
        }
    }
    return lines;
}

std::vector<std::string> split(const std::string& text, char sep)
{
    std::vector<std::string> parts;
    std::string part;
    std::istringstream in(text);
    while (std::getline(in, part, sep)) {
        parts.push_back(part);
    }
    return parts;
}

double median(std::vector<double> values)
{
    if (values.empty()) {
        return 0;
    }
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2;
}

double mean(const std::vector<double>& values)
{
    double sum = 0;
    for (const double v : values) {
        sum += v;
    }
    return values.empty() ? 0 : sum / static_cast<double>(values.size());
}

/// Median wall time of `reps` calls of `fn`, in seconds.
template <typename Fn>
double time_median(int reps, Fn&& fn)
{
    std::vector<double> samples;
    for (int i = 0; i < reps; ++i) {
        const Clock::time_point start = Clock::now();
        fn();
        samples.push_back(seconds_since(start));
    }
    return median(samples);
}

/// Flat JSON object writer for the metric maps every subcommand prints.
class JsonOut {
public:
    void number(const std::string& key, double value)
    {
        char text[64];
        std::snprintf(text, sizeof text, "%.17g", value);
        body_ += (body_.empty() ? "\"" : ",\"") + key + "\":" + text;
    }
    [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

private:
    std::string body_;
};

ScaledShape parse_shape(const std::string& name)
{
    if (name == "classic") {
        return ScaledShape::classic;
    }
    if (name == "wide_shallow") {
        return ScaledShape::wide_shallow;
    }
    if (name == "narrow_deep") {
        return ScaledShape::narrow_deep;
    }
    throw ValidationError("unknown shape '" + name + "'");
}

/// `gen <list>`: one "<path> <name> <modules> <shape> <seed>" per line.
int cmd_gen(const std::string& list)
{
    for (const std::string& line : read_lines(list)) {
        std::istringstream in(line);
        std::string path;
        std::string name;
        std::string shape;
        int modules = 0;
        std::uint64_t seed = 0;
        if (!(in >> path >> name >> modules >> shape >> seed)) {
            throw ValidationError("bad gen line '" + line + "'");
        }
        GeneratorConfig config = scaled_benchmark_config(name, modules, parse_shape(shape));
        config.seed = seed;
        save_soc_file(path, generate_soc(config));
    }
    return 0;
}

/// A test cell and option set as the CLI builds them from its flags, so
/// an in-process answer is byte-comparable to `mst optimize --json`.
struct CellOptions {
    TestCell cell;
    OptimizeOptions options;
};

CellOptions cli_cell(const std::string& channels, const std::string& depth)
{
    const cli::Flags flags = {{"channels", channels}, {"depth", depth}};
    CellOptions result{protocol::cell_from_flags(flags), protocol::options_from_flags({})};
    result.options.threads = 1;
    return result;
}

/// `cells <soc> <cells> <dir>`: "<channels> <depth>" per line.
int cmd_cells(const std::string& soc_path, const std::string& cells_path,
              const std::string& out_dir)
{
    const Soc soc = load_soc_spec(soc_path);
    const SocTimeTables tables(soc, TableBuild::fast, 1);
    int index = 0;
    for (const std::string& line : read_lines(cells_path)) {
        const std::vector<std::string> parts = split(line, ' ');
        const CellOptions cell = cli_cell(parts.at(0), parts.at(1));
        const Solution solution = optimize_multi_site(tables, cell.cell, cell.options);
        std::ofstream out(out_dir + "/ref-" + std::to_string(index++) + ".json");
        write_solution_json(out, solution);
        if (!out) {
            throw Error("cannot write reference under '" + out_dir + "'");
        }
    }
    return 0;
}

/// `pipeline <soc> <channels> <depth>`: the work of `mst optimize --soc
/// <soc> --threads 1 --json` in-process; prints its wall time in ms.
int cmd_pipeline(const std::string& soc_path, const std::string& channels,
                 const std::string& depth)
{
    const Clock::time_point start = Clock::now();
    const Soc soc = load_soc_spec(soc_path);
    const CellOptions cell = cli_cell(channels, depth);
    const SocTimeTables tables(soc, TableBuild::fast, 1);
    std::ostringstream out;
    write_solution_json(out, optimize_multi_site(tables, cell.cell, cell.options));
    std::printf("%.17g\n", seconds_since(start) * 1e3);
    return 0;
}

// ---------------------------------------------------------------------------
// Request plans (the in-process service replay)

/// A stream of optimize requests, from the file run.py writes:
///   every <n>             every n-th request is fresh, the others hot
///   hot <body>            a body repeated round-robin
///   fresh-soc <members>   the SOC members a fresh body may take
///   fresh-variant [<members>]  the option members it may take
///   seed <n>              seeds the fresh bodies
/// A body is the JSON members of an optimize request without its id.
/// Fresh body i is a pure function of (seed, i): an SOC and variant from
/// the lists and a cell drawn from 256-1024 channels and 8-64 Mi vectors,
/// so no two fresh bodies are expected to repeat.
struct Plan {
    std::vector<std::string> hot;
    std::vector<std::string> fresh_socs;
    std::vector<std::string> fresh_variants;
    std::uint64_t seed = 0;
    std::uint64_t fresh_every = 1;

    static Plan load(const std::string& path)
    {
        Plan plan;
        for (const std::string& line : read_lines(path)) {
            const std::size_t space = line.find(' ');
            const std::string kind = line.substr(0, space);
            const std::string rest = space == std::string::npos ? "" : line.substr(space + 1);
            if (kind == "hot") {
                plan.hot.push_back(rest);
            } else if (kind == "fresh-soc") {
                plan.fresh_socs.push_back(rest);
            } else if (kind == "fresh-variant") {
                plan.fresh_variants.push_back(rest);
            } else if (kind == "seed") {
                plan.seed = std::stoull(rest);
            } else if (kind == "every") {
                plan.fresh_every = std::stoull(rest);
            } else {
                throw ValidationError("bad plan line '" + line + "'");
            }
        }
        if (plan.fresh_every < 2 || plan.hot.empty() || plan.fresh_socs.empty() ||
            plan.fresh_variants.empty()) {
            throw ValidationError("plan needs hot bodies, fresh SOCs and variants, every >= 2");
        }
        return plan;
    }

    /// Body of the i-th request: (is_fresh, index into hot or fresh).
    [[nodiscard]] std::pair<bool, std::size_t> slot(std::uint64_t i) const
    {
        if (i % fresh_every == fresh_every - 1) {
            return {true, static_cast<std::size_t>(i / fresh_every)};
        }
        return {false, static_cast<std::size_t>((i - i / fresh_every) % hot.size())};
    }

    [[nodiscard]] std::string fresh(std::size_t index) const
    {
        std::uint64_t state = seed ^ (0x9e3779b97f4a7c15ULL * (index + 1));
        const auto draw = [&state](std::uint64_t bound) {
            // splitmix64
            std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
            return (z ^ (z >> 31)) % bound;
        };
        const std::uint64_t channels = 256 + draw(769);
        const std::uint64_t depth = (8u << 20) + draw(56u << 20);
        const std::string& soc = fresh_socs[draw(fresh_socs.size())];
        const std::string& variant = fresh_variants[draw(fresh_variants.size())];
        return soc + ",\"channels\":" + std::to_string(channels) +
               ",\"depth\":" + std::to_string(depth) + variant;
    }

    [[nodiscard]] std::string body(std::pair<bool, std::size_t> slot) const
    {
        return slot.first ? fresh(slot.second) : hot[slot.second];
    }

    /// The full request line (no newline) for `body` with id `id`.
    [[nodiscard]] static std::string line(const std::string& body, std::uint64_t id)
    {
        return "{\"id\":" + std::to_string(id) + "," + body + "}";
    }
};

// ---------------------------------------------------------------------------
// Per-layer timing

/// One optimization of the workload, resolved for in-process replay.
struct Job {
    std::shared_ptr<const Soc> soc;
    TestCell cell;
    OptimizeOptions options;
};

/// Arguments of `trace` (all optional; a layer without inputs reports 0):
///   --soc <path>         a .soc file of the workload (repeatable)
///   --cells <file>       "<channels> <depth>" per line, on the first --soc
///   --plan <file>        request plan to replay through RequestService
///   --spec <file>        sweep spec; --shards <dir> its output
///   --shm-prefix <name>  name of the private shm segments (unlinked at exit)
struct TraceArgs {
    std::vector<std::string> socs;
    std::string cells;
    std::string plan;
    std::string spec;
    std::string shards;
    std::string shm_prefix = "mst-bench";
};

struct CoreTotals {
    std::vector<double> step1_ms;
    std::vector<double> step2_ms;
    std::vector<double> json_us;
    double pack_calls = 0;
    double pack_cache_hits = 0;
    double greedy_passes = 0;
    double depth_profiles = 0;
    double pruned_packs = 0;
    double site_points = 0;
};

/// Step 1 and Step 2 on one PackEngine per job, as optimize_multi_site
/// runs them, plus the compact JSON of the job's full solution. Every job
/// of a workload is feasible; an infeasible one throws.
CoreTotals time_core(const std::vector<Job>& jobs)
{
    CoreTotals totals;
    std::map<const Soc*, std::shared_ptr<const SocTimeTables>> tables;
    for (const Job& job : jobs) {
        std::shared_ptr<const SocTimeTables>& entry = tables[job.soc.get()];
        if (entry == nullptr) {
            entry = std::make_shared<const SocTimeTables>(*job.soc, TableBuild::fast, 1);
        }
        PackEngine engine(*entry, job.options);
        Clock::time_point start = Clock::now();
        const Step1Result step1 = run_step1(engine, job.cell.ate);
        totals.step1_ms.push_back(seconds_since(start) * 1e3);
        start = Clock::now();
        const Step2Result step2 = run_step2(engine, step1, job.cell);
        totals.step2_ms.push_back(seconds_since(start) * 1e3);
        const PackStats stats = engine.stats();
        totals.pack_calls += static_cast<double>(stats.pack_calls);
        totals.pack_cache_hits += static_cast<double>(stats.pack_cache_hits);
        totals.greedy_passes += static_cast<double>(stats.greedy_passes);
        totals.depth_profiles += static_cast<double>(stats.depth_profiles);
        totals.pruned_packs += static_cast<double>(stats.pruned_packs);
        totals.site_points += static_cast<double>(step2.curve.size());

        const Solution solution = optimize_multi_site(*entry, job.cell, job.options);
        std::string json;
        totals.json_us.push_back(
            time_median(3, [&]() { json = solution_to_json(solution, JsonStyle::compact); }) *
            1e6);
    }
    return totals;
}

/// A shared-memory store on a private segment, unlinked on destruction.
class PrivateStore {
public:
    PrivateStore(const std::string& name, std::size_t bytes)
        : store_(shm::ShmStore::open("/" + name, bytes))
    {
        if (!store_->attached()) {
            throw Error("cannot open shared-memory segment /" + name);
        }
    }
    ~PrivateStore() { store_->segment()->unlink(); }
    PrivateStore(const PrivateStore&) = delete;
    PrivateStore& operator=(const PrivateStore&) = delete;

    [[nodiscard]] const std::shared_ptr<shm::ShmStore>& get() const noexcept { return store_; }

private:
    std::shared_ptr<shm::ShmStore> store_;
};

int cmd_trace(const TraceArgs& args)
{
    JsonOut json;
    std::vector<std::shared_ptr<const Soc>> socs;
    std::vector<double> parse_ms;
    std::vector<double> input_kb;
    std::vector<double> resolve_us;
    for (const std::string& path : args.socs) {
        const std::string text = read_file(path);
        input_kb.push_back(static_cast<double>(text.size()) / 1024.0);
        parse_ms.push_back(time_median(3, [&]() { (void)parse_soc_string(text, path); }) * 1e3);
        socs.push_back(share_soc(parse_soc_string(text, path)));
    }
    json.number("soc.parse_ms", mean(parse_ms));
    json.number("soc.input_kb", mean(input_kb));

    // The workload's optimizations, for core + report.
    std::vector<Job> jobs;

    // scenario: spec load + expansion, and the sweep's shard records.
    double expand_ms = 0;
    double compute_s = 0;
    if (!args.spec.empty()) {
        std::vector<Scenario> scenarios;
        expand_ms = time_median(3, [&]() {
                        scenarios = expand(load_scenario_spec(args.spec));
                    }) *
                    1e3;
        for (const Scenario& scenario : scenarios) {
            if (std::find(socs.begin(), socs.end(), scenario.soc) == socs.end()) {
                socs.push_back(scenario.soc);
            }
            OptimizeOptions options = scenario.options;
            options.threads = 1;
            jobs.push_back({scenario.soc, scenario.cell, options});
        }
        for (int shard = 0;; ++shard) {
            char name[32];
            std::snprintf(name, sizeof name, "/shard-%04d.msr", shard);
            const std::optional<ShardFile> file = read_shard_file(args.shards + name);
            if (!file) {
                break;
            }
            if (!file->complete) {
                throw Error(std::string("incomplete shard ") + name);
            }
            for (const SweepRecord& record : file->records) {
                compute_s += static_cast<double>(record.wall_ns) / 1e9;
            }
        }
    }
    json.number("scenario.expand_ms", expand_ms);
    json.number("scenario.compute_s", compute_s);

    // wrapper + shm: build, publish and restore each SOC's tables on a
    // private segment that is unlinked before returning.
    std::vector<double> build_ms;
    std::vector<double> widths;
    std::vector<double> publish_ms;
    std::vector<double> load_ms;
    if (!socs.empty()) {
        const PrivateStore private_store(args.shm_prefix, 256u << 20);
        shm::ShmStore& store = *private_store.get();
        for (const std::shared_ptr<const Soc>& shared : socs) {
            const Soc& soc = *shared;
            std::unique_ptr<SocTimeTables> tables;
            build_ms.push_back(time_median(3, [&]() {
                                   tables = std::make_unique<SocTimeTables>(
                                       soc, TableBuild::fast, 1);
                               }) *
                               1e3);
            double sum = 0;
            for (int m = 0; m < tables->module_count(); ++m) {
                sum += tables->flat_max_width(m);
            }
            widths.push_back(sum);
            const std::uint64_t key = soc_fingerprint(soc);
            const Clock::time_point start = Clock::now();
            store.publish_tables(key, *tables);
            publish_ms.push_back(seconds_since(start) * 1e3);
            load_ms.push_back(time_median(3, [&]() {
                                  if (store.load_tables(key, soc) == nullptr) {
                                      throw Error("shm restore missed a fresh publish");
                                  }
                              }) *
                              1e3);
        }
    }
    json.number("wrapper.tables_build_ms", mean(build_ms));
    json.number("wrapper.widths", mean(widths));
    json.number("shm.publish_tables_ms", mean(publish_ms));
    json.number("shm.load_tables_ms", mean(load_ms));
    json.number("shm.restore_over_build", mean(build_ms) > 0 ? mean(load_ms) / mean(build_ms) : 0);

    if (!args.cells.empty() && !socs.empty()) {
        for (const std::string& line : read_lines(args.cells)) {
            const std::vector<std::string> parts = split(line, ' ');
            const CellOptions cell = cli_cell(parts.at(0), parts.at(1));
            jobs.push_back({socs.front(), cell.cell, cell.options});
        }
    }

    // service + shm: protocol parse, fingerprint and run_request per class
    // over the head of the request stream, on a service set up like
    // `mst serve --threads 2 --shm` (default caches), after a warm-up pass
    // over the hot bodies. Requests name their SOC, so resolving it
    // regenerates a profile.
    std::vector<double> protocol_us;
    std::vector<double> fingerprint_us;
    std::vector<double> hit_us;
    std::vector<double> miss_us;
    if (!args.plan.empty()) {
        const Plan plan = Plan::load(args.plan);
        const PrivateStore private_store(args.shm_prefix + "-svc", 64u << 20);
        ServiceConfig config;
        config.threads = 2;
        config.shm = private_store.get();
        RequestService service(config);
        shm::ShmStore& store = *private_store.get();
        for (std::size_t i = 0; i < plan.hot.size(); ++i) {
            (void)service.execute_one(plan.line(plan.hot[i], i));
        }
        const CacheStats memo_before = service.memo_stats();
        const CacheStats tables_before = service.tables_cache_stats();
        const shm::StoreCounters store_before = store.counters();
        for (std::uint64_t i = 0; i < 192; ++i) {
            const std::pair<bool, std::size_t> slot = plan.slot(i);
            const std::string line = plan.line(plan.body(slot), i);
            protocol_us.push_back(
                time_median(3, [&]() { (void)protocol::parse_request(line); }) * 1e6);
            const protocol::Request request = protocol::parse_request(line);
            const Clock::time_point start = Clock::now();
            (void)service.run_request(request);
            (slot.first ? miss_us : hit_us).push_back(seconds_since(start) * 1e6);
            resolve_us.push_back(
                time_median(3, [&]() { (void)load_soc_spec(request.soc_spec); }) * 1e6);
            const Soc soc = load_soc_spec(request.soc_spec);
            fingerprint_us.push_back(time_median(3, [&]() { (void)soc_fingerprint(soc); }) * 1e6);
        }
        // Counters of the replayed stream alone, past the warm-up.
        const CacheStats memo = service.memo_stats();
        const CacheStats tables = service.tables_cache_stats();
        const shm::StoreCounters shared = store.counters();
        const auto delta = [&json](const char* name, std::uint64_t after, std::uint64_t before) {
            json.number(name, static_cast<double>(after - before));
        };
        delta("service.memo_hits", memo.hits, memo_before.hits);
        delta("service.memo_misses", memo.misses, memo_before.misses);
        const double lookups = static_cast<double>(memo.hits + memo.misses -
                                                   memo_before.hits - memo_before.misses);
        json.number("service.memo_hit_ratio",
                    static_cast<double>(memo.hits - memo_before.hits) / lookups);
        delta("service.tables_hits", tables.hits, tables_before.hits);
        delta("service.tables_misses", tables.misses, tables_before.misses);
        delta("shm.hits", shared.hits, store_before.hits);
        delta("shm.misses", shared.misses, store_before.misses);
        delta("shm.publishes", shared.publishes, store_before.publishes);
        delta("shm.fallbacks", shared.fallbacks, store_before.fallbacks);
        delta("shm.checksum_failures", shared.checksum_failures, store_before.checksum_failures);
        json.number("shm.committed_mb",
                    static_cast<double>(store.segment_counters().committed_bytes) / (1u << 20));
    }
    json.number("soc.resolve_us", mean(resolve_us));
    json.number("service.protocol_parse_us", median(protocol_us));
    json.number("service.fingerprint_us", median(fingerprint_us));
    json.number("service.run_request_us.hit", median(hit_us));
    json.number("service.run_request_us.miss", median(miss_us));

    const CoreTotals core = time_core(jobs);
    const double n = jobs.empty() ? 1 : static_cast<double>(jobs.size());
    json.number("core.step1_ms", mean(core.step1_ms));
    json.number("core.step2_ms", mean(core.step2_ms));
    json.number("core.pack_calls", core.pack_calls / n);
    json.number("core.pack_cache_hits", core.pack_cache_hits / n);
    json.number("core.pack_hit_ratio",
                core.pack_calls > 0 ? core.pack_cache_hits / core.pack_calls : 0);
    json.number("core.greedy_passes", core.greedy_passes / n);
    json.number("core.depth_profiles", core.depth_profiles / n);
    json.number("core.pruned_packs", core.pruned_packs / n);
    json.number("core.site_points", core.site_points / n);
    json.number("report.solution_json_us", median(core.json_us));
    std::cout << json.str() << '\n';
    return 0;
}

TraceArgs parse_trace_args(int argc, char** argv)
{
    TraceArgs args;
    for (int i = 2; i < argc; ++i) {
        const std::string flag = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                throw ValidationError(flag + " needs a value");
            }
            return argv[++i];
        };
        if (flag == "--soc") {
            args.socs.push_back(value());
        } else if (flag == "--cells") {
            args.cells = value();
        } else if (flag == "--plan") {
            args.plan = value();
        } else if (flag == "--spec") {
            args.spec = value();
        } else if (flag == "--shm-prefix") {
            args.shm_prefix = value();
        } else if (flag == "--shards") {
            args.shards = value();
        } else {
            throw ValidationError("unknown trace flag '" + flag + "'");
        }
    }
    return args;
}

} // namespace

int main(int argc, char** argv)
{
    try {
        const std::string command = argc > 1 ? argv[1] : "";
        if (command == "gen" && argc == 3) {
            return cmd_gen(argv[2]);
        }
        if (command == "cells" && argc == 5) {
            return cmd_cells(argv[2], argv[3], argv[4]);
        }
        if (command == "pipeline" && argc == 5) {
            return cmd_pipeline(argv[2], argv[3], argv[4]);
        }
        if (command == "trace") {
            return cmd_trace(parse_trace_args(argc, argv));
        }
        std::cerr << "usage: see the header of perfbench/mstbench.cpp\n";
        return 2;
    } catch (const std::exception& e) {
        std::cerr << "mstbench: " << e.what() << '\n';
        return 1;
    }
}
