#include "service/tables_cache.hpp"

#include <cstdio>

#include "common/hash.hpp"
#include "soc/writer.hpp"

namespace mst {

std::uint64_t soc_fingerprint(const Soc& soc)
{
    // The canonical .soc text is a stable, complete rendition of the
    // content (parse(write(soc)) == soc, see soc/writer.hpp), so hashing
    // it fingerprints exactly what the optimizer consumes.
    const std::string text = soc_to_string(soc);
    return fnv1a64(text.data(), text.size());
}

std::string fingerprint_hex(std::uint64_t fingerprint)
{
    char buffer[24];
    std::snprintf(buffer, sizeof buffer, "%016llx",
                  static_cast<unsigned long long>(fingerprint));
    return buffer;
}

} // namespace mst
