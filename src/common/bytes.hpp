// The one little-endian byte codec behind mst's binary formats: the
// sweep engine's `.msr` shard files (scenario/sweep_records) and the shm
// cache tier's entry payloads (shm/store). Integers are written
// explicitly little-endian, so both formats decode identically on any
// host. (The TCP frame length prefix in service/framing is network byte
// order and stays separate.)
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>

namespace mst {

/// Appends little-endian scalars and raw bytes to a byte string.
class ByteWriter {
public:
    void u8(std::uint8_t value) { bytes_.push_back(static_cast<char>(value)); }
    void u32(std::uint32_t value) { put(value, 4); }
    void u64(std::uint64_t value) { put(value, 8); }

    void f64(double value)
    {
        std::uint64_t bits = 0;
        static_assert(sizeof(bits) == sizeof(value));
        std::memcpy(&bits, &value, sizeof(bits));
        u64(bits);
    }

    void raw(std::string_view bytes) { bytes_.append(bytes); }

    /// A u32 length prefix, then the bytes.
    void str(std::string_view text)
    {
        u32(static_cast<std::uint32_t>(text.size()));
        raw(text);
    }

    [[nodiscard]] const std::string& bytes() const noexcept { return bytes_; }
    [[nodiscard]] std::string take() noexcept { return std::move(bytes_); }
    void clear() noexcept { bytes_.clear(); }

private:
    void put(std::uint64_t value, int count)
    {
        for (int i = 0; i < count; ++i) {
            bytes_.push_back(static_cast<char>((value >> (8 * i)) & 0xffU));
        }
    }

    std::string bytes_;
};

/// Sequential little-endian reader over a byte view. A read past the end
/// returns zero (or an empty string) and clears ok() for good, so callers
/// check once per logical unit instead of per field. Never allocates
/// more than the bytes actually present.
class ByteReader {
public:
    explicit ByteReader(std::string_view bytes) noexcept : bytes_(bytes) {}

    [[nodiscard]] bool ok() const noexcept { return ok_; }
    [[nodiscard]] std::size_t position() const noexcept { return position_; }

    /// The bytes consumed since `start`, an earlier position().
    [[nodiscard]] std::string_view since(std::size_t start) const noexcept
    {
        return bytes_.substr(start, position_ - start);
    }

    std::uint8_t u8() noexcept { return static_cast<std::uint8_t>(get(1)); }
    std::uint32_t u32() noexcept { return static_cast<std::uint32_t>(get(4)); }
    std::uint64_t u64() noexcept { return get(8); }

    double f64() noexcept
    {
        const std::uint64_t bits = u64();
        double value = 0;
        std::memcpy(&value, &bits, sizeof(value));
        return value;
    }

    /// The next `count` bytes.
    std::string str(std::size_t count) { return std::string(take(count)); }

    /// Step over the next `count` bytes.
    void skip(std::size_t count) noexcept { (void)take(count); }

    /// Consume `expected.size()` bytes; they must equal `expected`.
    bool magic(std::string_view expected) noexcept
    {
        if (take(expected.size()) != expected) {
            ok_ = false;
        }
        return ok_;
    }

private:
    std::string_view take(std::size_t count) noexcept
    {
        if (!ok_ || bytes_.size() - position_ < count) {
            ok_ = false;
            return {};
        }
        position_ += count;
        return bytes_.substr(position_ - count, count);
    }

    std::uint64_t get(int count) noexcept
    {
        const std::string_view bytes = take(static_cast<std::size_t>(count));
        std::uint64_t value = 0;
        for (std::size_t i = 0; i < bytes.size(); ++i) {
            value |= static_cast<std::uint64_t>(static_cast<unsigned char>(bytes[i]))
                     << (8 * i);
        }
        return value;
    }

    std::string_view bytes_;
    std::size_t position_ = 0;
    bool ok_ = true;
};

} // namespace mst
