/**
 * @file
 * parseUint and parseReal: the one parser each for plain decimal
 * integers and for real numbers.
 *
 * Siblings of parseByteSize (support/byte_size.h) with the same
 * contract philosophy: the *whole* string must be a value, and every
 * way strtoull / strtod is permissive — leading whitespace, a sign
 * ("-1" silently becomes 2^64 - 1), trailing junk ("8x" parses as 8),
 * saturating overflow with errno out-of-band, "nan" and "inf" — is a
 * parse failure here. Anything in the tree that turns user text into
 * a number (CLI options, config knobs) funnels through these
 * functions; the repo linter (tools/lint/bp_lint.py) rejects raw
 * strtoull / strtol / atoi / strtod / atof call sites outside
 * src/support/ so the permissive class cannot come back.
 */

#ifndef BP_SUPPORT_PARSE_UINT_H
#define BP_SUPPORT_PARSE_UINT_H

#include <cstdint>
#include <optional>
#include <string>

namespace bp {

/**
 * Parse a non-negative decimal integer. The whole string must be
 * digits — no signs, no whitespace, no base prefixes, no trailing
 * junk — and values that overflow uint64_t are rejected rather than
 * wrapped or saturated. @return nullopt on any violation; the caller
 * owns the error message (a usage error for the CLI, a plain failure
 * elsewhere).
 */
std::optional<uint64_t> parseUint(const std::string &text);

/**
 * Parse a finite decimal real number such as "0.25", "-1.5" or
 * "2e-3". The whole string must be the number — no leading '+', no
 * whitespace, no hexadecimal form, no trailing junk — and "nan",
 * "inf" and values beyond double's range ("1e400") are rejected.
 * @return nullopt on any violation; the caller owns the error message
 * and any range check.
 */
std::optional<double> parseReal(const std::string &text);

} // namespace bp

#endif // BP_SUPPORT_PARSE_UINT_H
