/**
 * @file
 * parseByteSize: the one parser for human-readable byte sizes.
 *
 * The CLI's size option (`--memory-budget`) funnels through here, so
 * "what counts as a size" is defined exactly once.
 */

#ifndef BP_SUPPORT_BYTE_SIZE_H
#define BP_SUPPORT_BYTE_SIZE_H

#include <cstdint>
#include <optional>
#include <string>

namespace bp {

/**
 * Parse a byte size like "4096", "64K", "256M", or "2G": a positive
 * decimal integer with an optional K/M/G suffix (powers of 1024,
 * case-insensitive). The whole string must be consumed — no signs, no
 * whitespace, no trailing junk — and values that overflow uint64_t
 * are rejected rather than wrapped (strtoull would happily read "-1"
 * as 2^64 - 1). @return nullopt on any violation; the caller owns the
 * error message, since what is a usage error for the CLI is a plain
 * failure elsewhere.
 */
std::optional<uint64_t> parseByteSize(const std::string &text);

} // namespace bp

#endif // BP_SUPPORT_BYTE_SIZE_H
