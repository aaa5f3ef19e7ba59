// FNV-1a 64, the one hash behind mst's fingerprints and checksums:
// scenario-list fingerprints, .msr shard checksums, SOC fingerprints,
// and shm entry checksums and keys. Those values are stored in files
// and shared memory, so this function is part of their formats.
#pragma once

#include <cstddef>
#include <cstdint>

namespace mst {

inline constexpr std::uint64_t kFnvOffsetBasis = 1469598103934665603ULL;

/// Hash `size` bytes, continuing from `hash`: hashing pieces in order,
/// each from the previous result, equals hashing their concatenation.
[[nodiscard]] inline std::uint64_t fnv1a64(const void* data, std::size_t size,
                                           std::uint64_t hash = kFnvOffsetBasis) noexcept
{
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
        hash ^= bytes[i];
        hash *= 1099511628211ULL; // FNV prime
    }
    return hash;
}

} // namespace mst
