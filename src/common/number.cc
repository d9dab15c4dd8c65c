#include "common/number.hh"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/log.hh"

namespace duplex
{

std::optional<double>
parseFinite(const std::string &field)
{
    const char *begin = field.c_str();
    char *end = nullptr;
    errno = 0;
    const double v = std::strtod(begin, &end);
    if (end == begin || errno == ERANGE || !std::isfinite(v))
        return std::nullopt;
    for (; *end != '\0'; ++end)
        if (*end != ' ' && *end != '\t' && *end != '\r')
            return std::nullopt;
    return v;
}

std::int64_t
mibToBytes(double mib)
{
    const double bytes = mib * 1024.0 * 1024.0;
    if (!(bytes >= 0.0 && bytes <= static_cast<double>(kMaxExactWhole))) {
        char text[32];
        std::snprintf(text, sizeof(text), "%g", mib);
        fatal(std::string("a ") + text +
              " MiB budget is outside [0, 2^53] bytes");
    }
    return static_cast<std::int64_t>(bytes);
}

std::optional<std::int64_t>
parseWhole(const std::string &field, std::int64_t lo, std::int64_t hi)
{
    panicIf(lo < -kMaxExactWhole || hi > kMaxExactWhole,
            "parseWhole: bounds beyond 2^53");
    const std::optional<double> v = parseFinite(field);
    if (!v || std::trunc(*v) != *v || *v < static_cast<double>(lo) ||
        *v > static_cast<double>(hi))
        return std::nullopt;
    return static_cast<std::int64_t>(*v);
}

} // namespace duplex
