#include "digest.hh"

#include <cinttypes>
#include <cstdio>

namespace perfbench
{

void
Digest::line(const std::string &label)
{
    if (!text_.empty())
        text_ += '\n';
    text_ += label;
    text_ += ':';
}

void
Digest::add(const char *key, std::int64_t value)
{
    char buf[96];
    std::snprintf(buf, sizeof buf, " %s=%" PRId64, key, value);
    text_ += buf;
}

void
Digest::add(const char *key, double value)
{
    char buf[96];
    std::snprintf(buf, sizeof buf, " %s=%.17g", key, value);
    text_ += buf;
}

std::string
digestHash(const std::string &text)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : text) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, h);
    return buf;
}

} // namespace perfbench
