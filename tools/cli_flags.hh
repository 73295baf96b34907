/**
 * @file
 * Strict numeric flag values for the command-line tools (rppm_trace,
 * rppmd, rppm_client).
 *
 * std::strtoull stops at the first non-digit and accepts leading
 * whitespace and signs, so "--stream-chunk 4k" would read as 4,
 * "--jobs two" as 0 and "--deadline-ms -1" as a huge value. Every
 * numeric flag goes through flagValue() instead: the whole value must be
 * a plain decimal number that fits the target type, or the tool exits
 * with status 2 and names the flag.
 */

#ifndef RPPM_TOOLS_CLI_FLAGS_HH
#define RPPM_TOOLS_CLI_FLAGS_HH

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <type_traits>

namespace rppm::cli {

/** Parse @p text as digits only, with no sign, no whitespace and no
 *  suffix, into @p out; false when empty, malformed or above @p max. */
inline bool
parseDecimal(const char *text, uint64_t max, uint64_t &out)
{
    if (*text == '\0')
        return false;
    uint64_t v = 0;
    for (const char *p = text; *p != '\0'; ++p) {
        if (*p < '0' || *p > '9')
            return false;
        const uint64_t digit = static_cast<uint64_t>(*p - '0');
        if (v > (max - digit) / 10)
            return false;
        v = v * 10 + digit;
    }
    out = v;
    return true;
}

/** The value of numeric flag @p flag of @p tool, at most @p max, or
 *  exit(2) naming the flag. */
template <typename T>
T
flagValue(const char *tool, const std::string &flag, const char *text,
          T max = std::numeric_limits<T>::max())
{
    static_assert(std::is_unsigned_v<T>, "flags are unsigned");
    uint64_t v = 0;
    if (!parseDecimal(text, max, v)) {
        std::fprintf(stderr,
                     "%s: %s needs a decimal integer in [0, %llu], got "
                     "'%s'\n",
                     tool, flag.c_str(),
                     static_cast<unsigned long long>(max), text);
        std::exit(2);
    }
    return static_cast<T>(v);
}

} // namespace rppm::cli

#endif // RPPM_TOOLS_CLI_FLAGS_HH
