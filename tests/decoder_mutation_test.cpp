// Seeded mutation test of the decoders: flips, truncations and splices
// of a real `.msr` shard file, an shm tables blob, an shm outcome blob and
// written `.soc` text. The invariant is "typed error or success": the
// shard reader never throws (damage reads as an incomplete shard), the
// shm decoders either decode or throw ValidationError, and the `.soc`
// parser either parses or throws ParseError / ValidationError — no
// crash, no bad_alloc, no out-of-bounds read. A tables blob that decodes
// must re-encode to the exact mutated bytes; a `.soc` text that parses
// must write back to text that parses to the same text again.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>

#include "arch/channel_group.hpp"
#include "common/bytes.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "scenario/sweep_records.hpp"
#include "service/service.hpp"
#include "shm/store.hpp"
#include "soc/generator.hpp"
#include "soc/parser.hpp"
#include "soc/profiles.hpp"
#include "soc/writer.hpp"

namespace mst {
namespace {

constexpr int kMutationsPerSeed = 500;

/// One random damage of `bytes`: flip 1-4 bytes, truncate, or splice
/// (keep a prefix, then resume from another offset — dropping or
/// duplicating a span).
std::string mutate(const std::string& bytes, Rng& rng)
{
    const auto size = static_cast<std::int64_t>(bytes.size());
    const auto at = [&] { return static_cast<std::size_t>(rng.uniform_int(0, size - 1)); };
    std::string out = bytes;
    switch (rng.uniform_int(0, 2)) {
    case 0:
        for (std::int64_t flips = rng.uniform_int(1, 4); flips > 0; --flips) {
            out[at()] ^= static_cast<char>(rng.uniform_int(1, 255));
        }
        break;
    case 1:
        out.resize(at());
        break;
    default:
        out = bytes.substr(0, at()) + bytes.substr(at());
        break;
    }
    return out;
}

std::string read_file(const std::string& path)
{
    std::ifstream file(path, std::ios::binary);
    std::ostringstream out;
    out << file.rdbuf();
    return out.str();
}

void write_file(const std::string& path, const std::string& bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
}

/// A temp file path, removed on scope exit.
struct TempPath {
    TempPath()
    {
        char name[] = "/tmp/mst_decoder_mutation_XXXXXX";
        const int fd = ::mkstemp(name);
        if (fd < 0) {
            throw ValidationError("mkstemp failed");
        }
        ::close(fd);
        path = name;
    }
    ~TempPath() { std::remove(path.c_str()); }
    TempPath(const TempPath&) = delete;
    TempPath& operator=(const TempPath&) = delete;

    std::string path;
};

/// A complete shard with every record kind: heartbeat, ok, error.
std::string shard_corpus(const std::string& path)
{
    SweepRecord ok;
    ok.index = 0;
    ok.ok = true;
    ok.sites = 4;
    ok.channels_per_site = 64;
    ok.test_cycles = 123456;
    ok.devices_per_hour = 987.25;
    ok.pack_calls = 17;
    SweepRecord failed;
    failed.index = 1;
    failed.error_kind = SweepErrorKind::validation;
    failed.error = "scenario rejected";
    {
        ShardWriter writer(path, 0, 1, 0xfeedULL, 2);
        writer.heartbeat(0, 1);
        writer.write(ok);
        writer.heartbeat(1, 1);
        writer.write(failed);
        writer.finish();
    }
    return read_file(path);
}

TEST(DecoderMutation, ShardReaderNeverThrows)
{
    const TempPath file;
    const std::string corpus = shard_corpus(file.path);
    const std::optional<ShardFile> pristine = read_shard_file(file.path);
    ASSERT_TRUE(pristine.has_value());
    ASSERT_TRUE(pristine->complete);

    for (const std::uint64_t seed : test_seeds::decoder_mutation) {
        Rng rng(seed);
        for (int i = 0; i < kMutationsPerSeed; ++i) {
            const std::string damaged = mutate(corpus, rng);
            write_file(file.path, damaged);
            std::optional<ShardFile> shard;
            ASSERT_NO_THROW(shard = read_shard_file(file.path))
                << "seed " << seed << " mutation " << i;
            if (shard && shard->complete) {
                EXPECT_EQ(shard->records.size(), shard->expected_records);
            }
        }
    }
}

TEST(DecoderMutation, TablesDecoderSucceedsOrThrowsValidationError)
{
    const Soc soc = make_benchmark_soc("d695");
    const std::string corpus = shm::ShmStore::encode_tables(SocTimeTables(soc));

    for (const std::uint64_t seed : test_seeds::decoder_mutation) {
        Rng rng(seed);
        for (int i = 0; i < kMutationsPerSeed; ++i) {
            const std::string damaged = mutate(corpus, rng);
            try {
                const std::unique_ptr<SocTimeTables> tables =
                    shm::ShmStore::decode_tables(damaged, soc);
                ASSERT_NE(tables, nullptr);
                EXPECT_EQ(shm::ShmStore::encode_tables(*tables), damaged)
                    << "seed " << seed << " mutation " << i;
            } catch (const ValidationError&) {
                // typed rejection: the caller falls back to a rebuild
            }
        }
    }
}

TEST(DecoderMutation, TablesDecoderRejectsTimesWhoseAreaOverflows)
{
    // A staircase that is non-increasing and positive, but whose area
    // w * time(w) at width 2 exceeds the 64-bit cycle range: a crafted
    // (or doubly corrupted) blob must be rejected, not overflow.
    const Soc soc("one", {Module("m", 1, 1, 0, 5, {6, 6})});
    ByteWriter blob;
    blob.u32(1);
    blob.u32(2);
    blob.u64(std::uint64_t{1} << 62);
    blob.u64(std::uint64_t{1} << 62);
    blob.u32(1);
    blob.u32(2);
    EXPECT_THROW((void)shm::ShmStore::decode_tables(blob.bytes(), soc), ValidationError);
}

TEST(DecoderMutation, TablesDecoderRejectsCrossModuleSumsThatOverflow)
{
    // Each module alone is sound — one width, area 2^62 + 12345 — but
    // their min areas (and their width-1 times, which bound every group
    // fill) sum past the 64-bit cycle range.
    const Soc soc("two", {Module("a", 1, 1, 0, 5, {6}), Module("b", 1, 1, 0, 5, {6})});
    ByteWriter blob;
    blob.u32(2);
    for (int m = 0; m < 2; ++m) {
        blob.u32(1);
        blob.u64((std::uint64_t{1} << 62) + 12345);
        blob.u32(1);
    }
    EXPECT_THROW((void)shm::ShmStore::decode_tables(blob.bytes(), soc), ValidationError);
}

TEST(DecoderMutation, SocParserSucceedsOrThrowsTypedError)
{
    for (const Soc& original : {make_benchmark_soc("d695"), random_soc(7, 50)}) {
        const std::string corpus = soc_to_string(original);
        for (const std::uint64_t seed : test_seeds::soc_mutation) {
            Rng rng(seed);
            for (int i = 0; i < kMutationsPerSeed; ++i) {
                const std::string damaged = mutate(corpus, rng);
                try {
                    const std::string written = soc_to_string(parse_soc_string(damaged));
                    EXPECT_EQ(soc_to_string(parse_soc_string(written)), written)
                        << "seed " << seed << " mutation " << i;
                } catch (const ParseError&) {
                    // typed rejection of malformed text
                } catch (const ValidationError&) {
                    // typed rejection of well-formed but invalid data
                }
            }
        }
    }
}

TEST(DecoderMutation, OutcomeDecoderSucceedsOrThrowsValidationError)
{
    SolutionOutcome ok;
    ok.ok = true;
    ok.solution_json = R"({"sites":4,"channels_per_site":64,"test_cycles":123456})";
    ok.fingerprint = "0123456789abcdef";
    SolutionOutcome failed;
    failed.error.kind = protocol::ErrorKind::infeasible;
    failed.error.message = "no site fits the vector memory";
    failed.error.detail = "module 3";

    for (const SolutionOutcome& outcome : {ok, failed}) {
        const std::string corpus = shm::ShmStore::encode_outcome("memo-key", outcome);
        for (const std::uint64_t seed : test_seeds::decoder_mutation) {
            Rng rng(seed);
            for (int i = 0; i < kMutationsPerSeed; ++i) {
                const std::string damaged = mutate(corpus, rng);
                try {
                    (void)shm::ShmStore::decode_outcome(damaged, "memo-key");
                } catch (const ValidationError&) {
                    // typed rejection: the caller treats it as a miss
                }
            }
        }
    }
}

} // namespace
} // namespace mst
