#include "scenario/sweep_records.hpp"

#include <cerrno>
#include <cstdio>
#include <string_view>
#include <unistd.h>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "common/faultpoint.hpp"
#include "common/hash.hpp"

namespace mst {

namespace {

constexpr std::string_view kHeaderMagic = "MSTSWP02";

// Record-section status bytes. Result records (ok/error) count toward
// the trailer's record_count; heartbeats do not.
constexpr std::uint8_t kStatusError = 0;
constexpr std::uint8_t kStatusOk = 1;
constexpr std::uint8_t kStatusHeartbeat = 2;
constexpr std::string_view kTrailerMagic = "MSTSWPOK";

void encode_record(ByteWriter& out, const SweepRecord& record)
{
    out.u32(record.index);
    out.u8(record.ok ? kStatusOk : kStatusError);
    if (record.ok) {
        out.u32(record.sites);
        out.u32(record.channels_per_site);
        out.u64(record.test_cycles);
        out.f64(record.devices_per_hour);
        out.u64(record.pack_calls);
        out.u64(record.pack_cache_hits);
        out.u64(record.greedy_passes);
        out.u64(record.depth_profiles);
        out.u64(record.pruned_packs);
        out.u64(record.site_points);
        out.u64(record.wall_ns);
    } else {
        out.u8(static_cast<std::uint8_t>(record.error_kind));
        out.str(record.error);
    }
}

std::uint64_t checksum_of(std::string_view bytes, std::uint64_t checksum)
{
    return fnv1a64(bytes.data(), bytes.size(), checksum);
}

} // namespace

const char* sweep_error_kind_name(SweepErrorKind kind) noexcept
{
    switch (kind) {
    case SweepErrorKind::infeasible:
        return "infeasible";
    case SweepErrorKind::validation:
        return "validation";
    case SweepErrorKind::worker_crash:
        return "worker_crash";
    case SweepErrorKind::other:
        break;
    }
    return "other";
}

std::optional<std::uint32_t> ShardFile::poison_index() const
{
    for (auto it = heartbeats.rbegin(); it != heartbeats.rend(); ++it) {
        bool answered = false;
        for (const SweepRecord& record : records) {
            if (record.index == it->index) {
                answered = true;
                break;
            }
        }
        if (!answered) {
            return it->index;
        }
    }
    return std::nullopt;
}

struct ShardWriter::Impl {
    std::string path;
    std::FILE* file = nullptr;
    std::uint32_t expected = 0;
    std::uint32_t written = 0;
    std::uint64_t checksum = kFnvOffsetBasis;
    bool finished = false;
    ByteWriter scratch;

    ~Impl()
    {
        if (file != nullptr) {
            std::fclose(file);
        }
    }

    [[noreturn]] void fail(const char* what) const
    {
        const auto code = static_cast<std::errc>(errno);
        throw CheckpointWriteError("sweep shard " + std::string(what) + " failed: " + path,
                                   code);
    }

    /// Write `bytes` and flush them: a killed run keeps every appended
    /// unit on disk.
    void append(const std::string& bytes)
    {
        if (std::fwrite(bytes.data(), 1, bytes.size(), file) != bytes.size()) {
            fail("write");
        }
        if (std::fflush(file) != 0) {
            fail("flush");
        }
    }

    /// Append the scratch record and fold it into the running checksum.
    void append_record()
    {
        append(scratch.bytes());
        checksum = checksum_of(scratch.bytes(), checksum);
    }

    void sync() const
    {
        if (::fsync(::fileno(file)) != 0) {
            fail("fsync");
        }
    }
};

ShardWriter::ShardWriter(const std::string& path, std::uint32_t shard, std::uint32_t shard_count,
                         std::uint64_t spec_fingerprint, std::uint32_t expected_records)
    : impl_(std::make_unique<Impl>())
{
    impl_->path = path;
    impl_->expected = expected_records;
    impl_->file = std::fopen(path.c_str(), "wb");
    if (impl_->file == nullptr) {
        throw ValidationError("cannot open sweep shard file for writing: " + path);
    }
    ByteWriter header;
    header.raw(kHeaderMagic);
    header.u32(shard);
    header.u32(shard_count);
    header.u64(spec_fingerprint);
    header.u32(expected_records);
    impl_->append(header.bytes());
}

ShardWriter::~ShardWriter() = default;

void ShardWriter::write(const SweepRecord& record)
{
    if (const std::errc fault = MST_FAULTPOINT("sweep.checkpoint_write");
        fault != std::errc{}) {
        throw CheckpointWriteError("sweep shard write failed (injected fault): " +
                                       impl_->path,
                                   fault);
    }
    impl_->scratch.clear();
    encode_record(impl_->scratch, record);
    impl_->append_record();
    ++impl_->written;
}

void ShardWriter::heartbeat(std::uint32_t index, std::uint32_t attempt)
{
    ByteWriter& out = impl_->scratch;
    out.clear();
    out.u32(index);
    out.u8(kStatusHeartbeat);
    out.u32(attempt);
    impl_->append_record();
}

void ShardWriter::finish()
{
    if (impl_->finished) {
        return;
    }
    if (impl_->written != impl_->expected) {
        throw ValidationError("sweep shard record count mismatch in " + impl_->path);
    }
    if (const std::errc fault = MST_FAULTPOINT("sweep.trailer_write");
        fault != std::errc{}) {
        throw CheckpointWriteError("sweep shard trailer write failed (injected fault): " +
                                       impl_->path,
                                   fault);
    }
    // The trailer is the checkpoint's validity marker: make sure every
    // record byte is durably on disk before it becomes observable, so a
    // trailer that validates can never describe records a torn write
    // lost.
    impl_->sync();
    ByteWriter trailer;
    trailer.raw(kTrailerMagic);
    trailer.u32(impl_->written);
    trailer.u64(impl_->checksum);
    impl_->append(trailer.bytes());
    impl_->sync();
    const int closed = std::fclose(impl_->file);
    impl_->file = nullptr;
    if (closed != 0) {
        impl_->fail("close");
    }
    impl_->finished = true;
}

std::optional<ShardFile> read_shard_file(const std::string& path)
{
    std::FILE* file = std::fopen(path.c_str(), "rb");
    if (file == nullptr) {
        return std::nullopt;
    }
    std::string bytes;
    char chunk[4096];
    std::size_t got = 0;
    while ((got = std::fread(chunk, 1, sizeof(chunk), file)) > 0) {
        bytes.append(chunk, got);
    }
    std::fclose(file);

    ByteReader reader(bytes);
    if (!reader.magic(kHeaderMagic)) {
        return std::nullopt;
    }
    ShardFile shard;
    shard.shard = reader.u32();
    shard.shard_count = reader.u32();
    shard.spec_fingerprint = reader.u64();
    // No checksum covers this count, so it only bounds the loop below;
    // nothing is sized from it.
    shard.expected_records = reader.u32();
    if (!reader.ok()) {
        return std::nullopt;
    }

    std::uint64_t checksum = kFnvOffsetBasis;
    while (shard.records.size() < shard.expected_records) {
        const std::size_t start = reader.position();
        SweepRecord record;
        record.index = reader.u32();
        const std::uint8_t status = reader.u8();
        if (status == kStatusHeartbeat) {
            SweepHeartbeat beat;
            beat.index = record.index;
            beat.attempt = reader.u32();
            if (!reader.ok()) {
                return shard;
            }
            checksum = checksum_of(reader.since(start), checksum);
            shard.heartbeats.push_back(beat);
            continue;
        }
        record.ok = status != kStatusError;
        if (record.ok) {
            record.sites = reader.u32();
            record.channels_per_site = reader.u32();
            record.test_cycles = reader.u64();
            record.devices_per_hour = reader.f64();
            record.pack_calls = reader.u64();
            record.pack_cache_hits = reader.u64();
            record.greedy_passes = reader.u64();
            record.depth_profiles = reader.u64();
            record.pruned_packs = reader.u64();
            record.site_points = reader.u64();
            record.wall_ns = reader.u64();
        } else {
            const auto kind = reader.u8();
            record.error_kind = (kind >= 1 && kind <= 4) ? static_cast<SweepErrorKind>(kind)
                                                         : SweepErrorKind::other;
            record.error = reader.str(reader.u32());
        }
        if (!reader.ok()) {
            // Truncated mid-record: a killed run. Everything up to here
            // parsed, but without a trailer the file stays incomplete.
            return shard;
        }
        checksum = checksum_of(reader.since(start), checksum);
        shard.records.push_back(std::move(record));
    }

    if (!reader.magic(kTrailerMagic)) {
        return shard;
    }
    const std::uint32_t trailer_count = reader.u32();
    const std::uint64_t trailer_checksum = reader.u64();
    if (!reader.ok() || trailer_count != shard.records.size() || trailer_checksum != checksum) {
        return shard;
    }
    shard.complete = true;
    return shard;
}

} // namespace mst
