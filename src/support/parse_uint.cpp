#include "src/support/parse_uint.h"

#include <charconv>
#include <cmath>
#include <limits>

namespace bp {

std::optional<uint64_t>
parseUint(const std::string &text)
{
    if (text.empty())
        return std::nullopt;
    constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();
    uint64_t value = 0;
    for (const char c : text) {
        if (c < '0' || c > '9')
            return std::nullopt;
        const uint64_t digit = static_cast<uint64_t>(c - '0');
        if (value > (kMax - digit) / 10)
            return std::nullopt;  // would overflow uint64_t
        value = value * 10 + digit;
    }
    return value;
}

std::optional<double>
parseReal(const std::string &text)
{
    const char *const first = text.data();
    const char *const last = first + text.size();
    double value = 0.0;
    const auto [end, error] = std::from_chars(first, last, value);
    if (error != std::errc() || end != last || !std::isfinite(value))
        return std::nullopt;
    return value;
}

} // namespace bp
