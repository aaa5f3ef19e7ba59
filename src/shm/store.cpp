#include "shm/store.hpp"

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "common/hash.hpp"
#include "service/service.hpp"
#include "soc/soc.hpp"

namespace mst::shm {

namespace {

/// A read past the blob's end is a truncated (or corrupted) entry.
void require_bytes(const ByteReader& reader)
{
    if (!reader.ok()) {
        throw ValidationError("shm blob truncated");
    }
}

/// Sanity cap on per-module width counts: no table can legitimately
/// exceed the global width cap, so a larger count means corruption.
constexpr std::uint32_t kMaxWidths = 4096;

} // namespace

std::string ShmStore::encode_tables(const SocTimeTables& tables)
{
    // Per module: the effective-time staircase and the used width at
    // every width. The used widths are derived from the times — the last
    // drop at or below each width — and the decoder insists they match,
    // so the times are the complete state.
    ByteWriter out;
    const int count = tables.module_count();
    out.u32(static_cast<std::uint32_t>(count));
    for (int m = 0; m < count; ++m) {
        const SocTimeTables::TimeRow row = tables.time_row(m);
        out.u32(static_cast<std::uint32_t>(row.count));
        for (std::size_t i = 0; i < row.count; ++i) {
            out.u64(static_cast<std::uint64_t>(row.times[i]));
        }
        std::uint32_t used = 0;
        for (std::size_t i = 0; i < row.count; ++i) {
            if (staircase_drops(row.times, i)) {
                used = static_cast<std::uint32_t>(i) + 1;
            }
            out.u32(used);
        }
    }
    return out.take();
}

std::unique_ptr<SocTimeTables> ShmStore::decode_tables(const std::string& blob,
                                                       const Soc& soc)
{
    // Pass 1: the width counts, each backed by the bytes that must follow
    // it, so the flat block is sized once and never from a count the
    // blob cannot back.
    ByteReader reader(blob);
    const std::uint32_t count = reader.u32();
    require_bytes(reader);
    if (count != static_cast<std::uint32_t>(soc.module_count())) {
        throw ValidationError("shm tables blob does not match the SOC's module count");
    }
    std::vector<WireCount> extents;
    extents.reserve(count);
    for (std::uint32_t m = 0; m < count; ++m) {
        const std::uint32_t widths = reader.u32();
        require_bytes(reader);
        if (widths == 0 || widths > kMaxWidths) {
            throw ValidationError("shm tables blob has an invalid width count");
        }
        reader.skip(std::size_t{widths} * (sizeof(std::uint64_t) + sizeof(std::uint32_t)));
        require_bytes(reader);
        extents.push_back(static_cast<WireCount>(widths));
    }
    if (reader.position() != blob.size()) {
        throw ValidationError("shm tables blob has trailing bytes");
    }

    // Pass 2: read each module's times straight into its slice; its used
    // widths must be the ones encode_tables derives from those times, so
    // decode -> encode reproduces the blob.
    ByteReader body(blob);
    (void)body.u32();
    return std::make_unique<SocTimeTables>(soc, extents, [&](int, CycleCount* times) {
        const auto widths = static_cast<std::size_t>(body.u32());
        for (std::size_t i = 0; i < widths; ++i) {
            times[i] = static_cast<CycleCount>(body.u64());
        }
        std::uint32_t used = 0;
        for (std::size_t i = 0; i < widths; ++i) {
            if (staircase_drops(times, i)) {
                used = static_cast<std::uint32_t>(i) + 1;
            }
            if (body.u32() != used) {
                throw ValidationError("shm tables blob has used widths its times do not imply");
            }
        }
    });
}

std::string ShmStore::encode_outcome(const std::string& memo_key,
                                     const SolutionOutcome& outcome)
{
    // The full memo key rides in the payload: the arena addresses
    // entries by the key's 64-bit hash, and storing the key verbatim
    // turns a hash collision into a detectable miss.
    ByteWriter out;
    out.str(memo_key);
    out.u8(outcome.ok ? 1 : 0);
    out.str(outcome.solution_json);
    out.str(outcome.fingerprint);
    out.u32(static_cast<std::uint32_t>(outcome.error.kind));
    out.str(outcome.error.message);
    out.str(outcome.error.detail);
    return out.take();
}

std::shared_ptr<SolutionOutcome> ShmStore::decode_outcome(const std::string& blob,
                                                          const std::string& memo_key)
{
    ByteReader reader(blob);
    const std::string key = reader.str(reader.u32());
    require_bytes(reader);
    if (key != memo_key) {
        return nullptr; // hash collision: a different request's outcome
    }
    auto outcome = std::make_shared<SolutionOutcome>();
    outcome->ok = reader.u8() != 0;
    outcome->solution_json = reader.str(reader.u32());
    outcome->fingerprint = reader.str(reader.u32());
    const std::uint32_t kind = reader.u32();
    require_bytes(reader);
    if (kind > static_cast<std::uint32_t>(protocol::ErrorKind::internal)) {
        throw ValidationError("shm outcome blob has an invalid error kind");
    }
    outcome->error.kind = static_cast<protocol::ErrorKind>(kind);
    outcome->error.message = reader.str(reader.u32());
    outcome->error.detail = reader.str(reader.u32());
    require_bytes(reader);
    if (reader.position() != blob.size()) {
        throw ValidationError("shm outcome blob has trailing bytes");
    }
    if (outcome->ok == (outcome->error.kind != protocol::ErrorKind::none)) {
        throw ValidationError("shm outcome blob is internally inconsistent");
    }
    return outcome;
}

std::shared_ptr<ShmStore> ShmStore::open(const std::string& name, std::size_t bytes)
{
    std::shared_ptr<Segment> segment;
    try {
        segment = Segment::create_or_attach(name, bytes);
    } catch (const std::exception&) {
        segment = nullptr; // degraded: local-only operation
    }
    auto store = std::make_shared<ShmStore>(std::move(segment));
    if (!store->attached()) {
        store->fallbacks_.fetch_add(1, std::memory_order_relaxed);
    }
    return store;
}

ShmStore::ShmStore(std::shared_ptr<Segment> segment) : segment_(std::move(segment)) {}

std::unique_ptr<SocTimeTables> ShmStore::load_tables(std::uint64_t fingerprint,
                                                     const Soc& soc)
{
    if (segment_ == nullptr) {
        return nullptr;
    }
    bool checksum_failed = false;
    const std::optional<std::string> blob =
        segment_->lookup(fingerprint, Segment::Kind::tables, &checksum_failed);
    if (!blob) {
        if (checksum_failed) {
            checksum_failures_.fetch_add(1, std::memory_order_relaxed);
            fallbacks_.fetch_add(1, std::memory_order_relaxed);
        }
        misses_.fetch_add(1, std::memory_order_relaxed);
        return nullptr;
    }
    try {
        auto tables = decode_tables(*blob, soc);
        hits_.fetch_add(1, std::memory_order_relaxed);
        return tables;
    } catch (const std::exception&) {
        // Validation rejected the blob (foreign SOC under a colliding
        // fingerprint, or damage the checksum could not see): fall back
        // to the local build, never crash the request.
        fallbacks_.fetch_add(1, std::memory_order_relaxed);
        misses_.fetch_add(1, std::memory_order_relaxed);
        return nullptr;
    }
}

void ShmStore::publish_tables(std::uint64_t fingerprint, const SocTimeTables& tables)
{
    if (segment_ == nullptr) {
        return;
    }
    const std::string blob = encode_tables(tables);
    if (segment_->publish(fingerprint, Segment::Kind::tables, blob.data(), blob.size()) ==
        Segment::PublishResult::published) {
        publishes_.fetch_add(1, std::memory_order_relaxed);
    }
}

std::shared_ptr<SolutionOutcome> ShmStore::load_outcome(const std::string& memo_key)
{
    if (segment_ == nullptr) {
        return nullptr;
    }
    const std::uint64_t key = fnv1a64(memo_key.data(), memo_key.size());
    bool checksum_failed = false;
    const std::optional<std::string> blob =
        segment_->lookup(key, Segment::Kind::outcome, &checksum_failed);
    if (!blob) {
        if (checksum_failed) {
            checksum_failures_.fetch_add(1, std::memory_order_relaxed);
            fallbacks_.fetch_add(1, std::memory_order_relaxed);
        }
        misses_.fetch_add(1, std::memory_order_relaxed);
        return nullptr;
    }
    try {
        std::shared_ptr<SolutionOutcome> outcome = decode_outcome(*blob, memo_key);
        if (outcome == nullptr) {
            misses_.fetch_add(1, std::memory_order_relaxed);
            return nullptr;
        }
        hits_.fetch_add(1, std::memory_order_relaxed);
        return outcome;
    } catch (const std::exception&) {
        fallbacks_.fetch_add(1, std::memory_order_relaxed);
        misses_.fetch_add(1, std::memory_order_relaxed);
        return nullptr;
    }
}

void ShmStore::publish_outcome(const std::string& memo_key, const SolutionOutcome& outcome)
{
    if (segment_ == nullptr) {
        return;
    }
    const std::uint64_t key = fnv1a64(memo_key.data(), memo_key.size());
    const std::string blob = encode_outcome(memo_key, outcome);
    if (segment_->publish(key, Segment::Kind::outcome, blob.data(), blob.size()) ==
        Segment::PublishResult::published) {
        publishes_.fetch_add(1, std::memory_order_relaxed);
    }
}

StoreCounters ShmStore::counters() const
{
    StoreCounters counters;
    counters.enabled = true;
    counters.attached = segment_ != nullptr;
    counters.hits = hits_.load(std::memory_order_relaxed);
    counters.misses = misses_.load(std::memory_order_relaxed);
    counters.publishes = publishes_.load(std::memory_order_relaxed);
    counters.fallbacks = fallbacks_.load(std::memory_order_relaxed);
    counters.checksum_failures = checksum_failures_.load(std::memory_order_relaxed);
    return counters;
}

SegmentCounters ShmStore::segment_counters() const
{
    return segment_ != nullptr ? segment_->counters() : SegmentCounters{};
}

} // namespace mst::shm
