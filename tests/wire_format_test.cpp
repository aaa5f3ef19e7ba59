// Golden byte pins of the two binary formats: the sweep engine's `.msr`
// shard files and the shm cache tier's tables / outcome blobs. The
// round-trip tests elsewhere pass even when the encoder and decoder
// change the format together; these compare fixed inputs against
// literal hex, so any layout drift fails here. Also covers the shard
// writer's I/O error reporting.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <system_error>

#include "arch/channel_group.hpp"
#include "common/error.hpp"
#include "scenario/sweep_records.hpp"
#include "service/service.hpp"
#include "shm/store.hpp"

namespace mst {
namespace {

std::string hex(const std::string& bytes)
{
    static const char digits[] = "0123456789abcdef";
    std::string out;
    for (const char c : bytes) {
        const auto byte = static_cast<unsigned char>(c);
        out += digits[byte >> 4];
        out += digits[byte & 0xf];
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

/// Three small modules: tables of a few widths each, so the blob stays
/// short enough to pin literally.
Soc trio()
{
    return Soc("trio", {Module("a", 2, 2, 0, 10, {12, 8}),
                        Module("b", 4, 4, 0, 20, {15, 15, 10, 10, 8, 8}),
                        Module("c", 1, 1, 0, 5, {6})});
}

TEST(WireFormat, ShardFileBytesArePinned)
{
    char path[] = "/tmp/mst_wire_format_XXXXXX";
    const int fd = ::mkstemp(path);
    ASSERT_GE(fd, 0);
    ::close(fd);

    SweepRecord ok;
    ok.index = 3;
    ok.ok = true;
    ok.sites = 4;
    ok.channels_per_site = 96;
    ok.test_cycles = 0x0102030405ULL;
    ok.devices_per_hour = 1234.5;
    ok.pack_calls = 7;
    ok.pack_cache_hits = 5;
    ok.greedy_passes = 2;
    ok.depth_profiles = 1;
    ok.pruned_packs = 9;
    ok.site_points = 11;
    ok.wall_ns = 0xdeadbeef;
    SweepRecord failed;
    failed.index = 4;
    failed.error_kind = SweepErrorKind::infeasible;
    failed.error = "no fit";
    {
        ShardWriter writer(path, 1, 2, 0x1122334455667788ULL, 2);
        writer.heartbeat(3, 1);
        writer.write(ok);
        writer.write(failed);
        writer.finish();
    }
    const std::string bytes = read_file(path);
    std::remove(path);

    EXPECT_EQ(hex(bytes),
              // header: magic, shard 1, shard_count 2, fingerprint, 2 records
              "4d53545357503032" "01000000" "02000000" "8877665544332211" "02000000"
              // heartbeat: index 3, status 2, attempt 1
              "03000000" "02" "01000000"
              // ok record: index 3, status 1, sites, channels, cycles,
              // devices_per_hour (1234.5), six counters, wall_ns
              "03000000" "01" "04000000" "60000000" "0504030201000000"
              "00000000004a9340" "0700000000000000" "0500000000000000"
              "0200000000000000" "0100000000000000" "0900000000000000"
              "0b00000000000000" "efbeadde00000000"
              // error record: index 4, status 0, kind 1, "no fit"
              "04000000" "00" "01" "06000000" "6e6f20666974"
              // trailer: magic, record_count 2, FNV-1a checksum
              "4d53545357504f4b" "02000000" "2b0c2d0438b5107f");
}

TEST(WireFormat, TablesBlobBytesArePinned)
{
    const Soc soc = trio();
    const SocTimeTables tables(soc);
    EXPECT_EQ(hex(shm::ShmStore::encode_tables(tables)),
              // module count 3
              "03000000"
              // a: 2 widths, times u64 x2, used widths u32 x2
              "02000000" "fc00000000000000" "8e00000000000000" "01000000" "02000000"
              // b: 6 widths
              "06000000" "d205000000000000" "f302000000000000" "0c02000000000000"
              "8e01000000000000" "6401000000000000" "4f01000000000000"
              "01000000" "02000000" "03000000" "04000000" "05000000" "06000000"
              // c: 2 widths
              "02000000" "2f00000000000000" "2900000000000000" "01000000" "02000000");
}

TEST(WireFormat, OutcomeBlobBytesArePinned)
{
    SolutionOutcome ok;
    ok.ok = true;
    ok.solution_json = R"({"sites":4})";
    ok.fingerprint = "00ff";
    EXPECT_EQ(hex(shm::ShmStore::encode_outcome("key", ok)),
              // memo key, ok byte, solution JSON, fingerprint, error kind,
              // empty message, empty detail
              "03000000" "6b6579" "01" "0b000000" "7b227369746573223a347d"
              "04000000" "30306666" "00000000" "00000000" "00000000");

    SolutionOutcome failed;
    failed.error.kind = protocol::ErrorKind::infeasible;
    failed.error.message = "no fit";
    failed.error.detail = "d";
    EXPECT_EQ(hex(shm::ShmStore::encode_outcome("k2", failed)),
              "02000000" "6b32" "00" "00000000" "00000000" "04000000"
              "06000000" "6e6f20666974" "01000000" "64");
}

TEST(WireFormat, ShardWriterReportsAFullDisk)
{
    // /dev/full accepts the open and fails every flush with ENOSPC: the
    // header flush must surface it, not the first fsync.
    try {
        ShardWriter writer("/dev/full", 0, 1, 0, 1);
        FAIL() << "constructor succeeded on /dev/full";
    } catch (const CheckpointWriteError& error) {
        EXPECT_EQ(error.code(), std::errc::no_space_on_device);
    }
}

} // namespace
} // namespace mst
