#include "scenario/sweep_records.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <unistd.h>

#include "common/error.hpp"
#include "common/faultpoint.hpp"
#include "common/hash.hpp"

namespace mst {

namespace {

constexpr char kHeaderMagic[8] = {'M', 'S', 'T', 'S', 'W', 'P', '0', '2'};

// Record-section status bytes. Result records (ok/error) count toward
// the trailer's record_count; heartbeats do not.
constexpr std::uint8_t kStatusError = 0;
constexpr std::uint8_t kStatusOk = 1;
constexpr std::uint8_t kStatusHeartbeat = 2;
constexpr char kTrailerMagic[8] = {'M', 'S', 'T', 'S', 'W', 'P', 'O', 'K'};

/// Serializes integers explicitly little-endian so shard files written
/// on any host decode identically.
class ByteBuffer {
public:
    void u8(std::uint8_t value) { bytes_.push_back(static_cast<unsigned char>(value)); }

    void u32(std::uint32_t value)
    {
        for (int shift = 0; shift < 32; shift += 8) {
            bytes_.push_back(static_cast<unsigned char>((value >> shift) & 0xffU));
        }
    }

    void u64(std::uint64_t value)
    {
        for (int shift = 0; shift < 64; shift += 8) {
            bytes_.push_back(static_cast<unsigned char>((value >> shift) & 0xffU));
        }
    }

    void f64(double value)
    {
        std::uint64_t bits = 0;
        static_assert(sizeof(bits) == sizeof(value));
        std::memcpy(&bits, &value, sizeof(bits));
        u64(bits);
    }

    void raw(const void* data, std::size_t count)
    {
        const auto* p = static_cast<const unsigned char*>(data);
        bytes_.insert(bytes_.end(), p, p + count);
    }

    [[nodiscard]] const unsigned char* data() const noexcept { return bytes_.data(); }
    [[nodiscard]] std::size_t size() const noexcept { return bytes_.size(); }
    void clear() noexcept { bytes_.clear(); }

private:
    std::vector<unsigned char> bytes_;
};

void encode_record(ByteBuffer& out, const SweepRecord& record)
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
        out.u32(static_cast<std::uint32_t>(record.error.size()));
        out.raw(record.error.data(), record.error.size());
    }
}

/// Sequential reader over a fully loaded file image. Reads past the end
/// flip `ok`; callers check once per logical unit instead of per field.
class ByteReader {
public:
    explicit ByteReader(std::vector<unsigned char> bytes) : bytes_(std::move(bytes)) {}

    [[nodiscard]] bool ok() const noexcept { return ok_; }
    [[nodiscard]] std::size_t position() const noexcept { return position_; }
    [[nodiscard]] std::size_t remaining() const noexcept { return bytes_.size() - position_; }
    [[nodiscard]] const unsigned char* at(std::size_t offset) const noexcept
    {
        return bytes_.data() + offset;
    }

    std::uint8_t u8() noexcept
    {
        if (!take(1)) {
            return 0;
        }
        return bytes_[position_ - 1];
    }

    std::uint32_t u32() noexcept
    {
        if (!take(4)) {
            return 0;
        }
        std::uint32_t value = 0;
        for (int i = 0; i < 4; ++i) {
            value |= static_cast<std::uint32_t>(bytes_[position_ - 4 + i]) << (8 * i);
        }
        return value;
    }

    std::uint64_t u64() noexcept
    {
        if (!take(8)) {
            return 0;
        }
        std::uint64_t value = 0;
        for (int i = 0; i < 8; ++i) {
            value |= static_cast<std::uint64_t>(bytes_[position_ - 8 + i]) << (8 * i);
        }
        return value;
    }

    double f64() noexcept
    {
        const std::uint64_t bits = u64();
        double value = 0;
        std::memcpy(&value, &bits, sizeof(value));
        return value;
    }

    std::string str(std::size_t count) noexcept
    {
        if (!take(count)) {
            return {};
        }
        return std::string(reinterpret_cast<const char*>(bytes_.data() + position_ - count),
                           count);
    }

    bool magic(const char (&expected)[8]) noexcept
    {
        if (!take(8)) {
            return false;
        }
        if (std::memcmp(bytes_.data() + position_ - 8, expected, 8) != 0) {
            ok_ = false;
        }
        return ok_;
    }

private:
    bool take(std::size_t count) noexcept
    {
        if (!ok_ || bytes_.size() - position_ < count) {
            ok_ = false;
            return false;
        }
        position_ += count;
        return true;
    }

    std::vector<unsigned char> bytes_;
    std::size_t position_ = 0;
    bool ok_ = true;
};

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
    ByteBuffer scratch;

    void put(const ByteBuffer& buffer)
    {
        if (std::fwrite(buffer.data(), 1, buffer.size(), file) != buffer.size()) {
            throw CheckpointWriteError("sweep shard write failed: " + path,
                                       static_cast<std::errc>(errno));
        }
    }
};

ShardWriter::ShardWriter(const std::string& path, std::uint32_t shard, std::uint32_t shard_count,
                         std::uint64_t spec_fingerprint, std::uint32_t expected_records)
    : impl_(new Impl)
{
    impl_->path = path;
    impl_->expected = expected_records;
    impl_->file = std::fopen(path.c_str(), "wb");
    if (impl_->file == nullptr) {
        delete impl_;
        throw ValidationError("cannot open sweep shard file for writing: " + path);
    }
    ByteBuffer header;
    header.raw(kHeaderMagic, sizeof(kHeaderMagic));
    header.u32(shard);
    header.u32(shard_count);
    header.u64(spec_fingerprint);
    header.u32(expected_records);
    impl_->put(header);
    std::fflush(impl_->file);
}

ShardWriter::~ShardWriter()
{
    if (impl_->file != nullptr) {
        std::fclose(impl_->file);
    }
    delete impl_;
}

void ShardWriter::write(const SweepRecord& record)
{
    if (const std::errc fault = MST_FAULTPOINT("sweep.checkpoint_write");
        fault != std::errc{}) {
        throw CheckpointWriteError("sweep shard write failed (injected fault): " +
                                       impl_->path,
                                   fault);
    }
    ByteBuffer& buffer = impl_->scratch;
    buffer.clear();
    encode_record(buffer, record);
    impl_->put(buffer);
    // Flush per record: a killed run keeps every completed scenario on
    // disk (the file is still incomplete without a trailer, but cheap
    // to diagnose and safe to discard).
    std::fflush(impl_->file);
    impl_->checksum = fnv1a64(buffer.data(), buffer.size(), impl_->checksum);
    ++impl_->written;
}

void ShardWriter::heartbeat(std::uint32_t index, std::uint32_t attempt)
{
    ByteBuffer& buffer = impl_->scratch;
    buffer.clear();
    buffer.u32(index);
    buffer.u8(kStatusHeartbeat);
    buffer.u32(attempt);
    impl_->put(buffer);
    std::fflush(impl_->file);
    impl_->checksum = fnv1a64(buffer.data(), buffer.size(), impl_->checksum);
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
    std::fflush(impl_->file);
    if (::fsync(::fileno(impl_->file)) != 0) {
        throw CheckpointWriteError("sweep shard fsync failed: " + impl_->path,
                                   static_cast<std::errc>(errno));
    }
    ByteBuffer trailer;
    trailer.raw(kTrailerMagic, sizeof(kTrailerMagic));
    trailer.u32(impl_->written);
    trailer.u64(impl_->checksum);
    impl_->put(trailer);
    std::fflush(impl_->file);
    if (::fsync(::fileno(impl_->file)) != 0) {
        throw CheckpointWriteError("sweep shard fsync failed: " + impl_->path,
                                   static_cast<std::errc>(errno));
    }
    std::fclose(impl_->file);
    impl_->file = nullptr;
    impl_->finished = true;
}

std::optional<ShardFile> read_shard_file(const std::string& path)
{
    std::FILE* file = std::fopen(path.c_str(), "rb");
    if (file == nullptr) {
        return std::nullopt;
    }
    std::vector<unsigned char> bytes;
    unsigned char chunk[4096];
    std::size_t got = 0;
    while ((got = std::fread(chunk, 1, sizeof(chunk), file)) > 0) {
        bytes.insert(bytes.end(), chunk, chunk + got);
    }
    std::fclose(file);

    ByteReader reader(std::move(bytes));
    if (!reader.magic(kHeaderMagic)) {
        return std::nullopt;
    }
    ShardFile shard;
    shard.shard = reader.u32();
    shard.shard_count = reader.u32();
    shard.spec_fingerprint = reader.u64();
    shard.expected_records = reader.u32();
    if (!reader.ok()) {
        return std::nullopt;
    }

    std::uint64_t checksum = kFnvOffsetBasis;
    shard.records.reserve(shard.expected_records);
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
            checksum = fnv1a64(reader.at(start), reader.position() - start, checksum);
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
            const std::uint32_t length = reader.u32();
            record.error = reader.str(length);
        }
        if (!reader.ok()) {
            // Truncated mid-record: a killed run. Everything up to here
            // parsed, but without a trailer the file stays incomplete.
            return shard;
        }
        checksum = fnv1a64(reader.at(start), reader.position() - start, checksum);
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
