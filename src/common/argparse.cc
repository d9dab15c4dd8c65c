#include "common/argparse.hh"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

#include "common/log.hh"
#include "common/number.hh"

namespace duplex
{

void
ArgParser::addFlag(const std::string &name, const std::string &help,
                   const std::string &default_value)
{
    const bool boolean =
        default_value == "true" || default_value == "false";
    flags_[name] = Flag{help, default_value, boolean};
}

void
ArgParser::usage() const
{
    std::fprintf(stderr, "usage: %s [flags]\n", program_.c_str());
    for (const auto &[name, flag] : flags_) {
        std::fprintf(stderr, "  --%s=%s\n      %s\n", name.c_str(),
                     flag.value.c_str(), flag.help.c_str());
    }
}

void
ArgParser::parse(int argc, char **argv)
{
    program_ = argc > 0 ? argv[0] : "prog";
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            usage();
            std::exit(0);
        }
        if (arg.rfind("--", 0) != 0) {
            usage();
            fatal("positional arguments are not supported: " + arg);
        }
        arg = arg.substr(2);
        std::string name;
        std::string value;
        const auto eq = arg.find('=');
        if (eq != std::string::npos) {
            name = arg.substr(0, eq);
            value = arg.substr(eq + 1);
        } else {
            name = arg;
            // Boolean flags (default "true"/"false") work as bare
            // switches: --list-systems means --list-systems=true.
            // In space form they only swallow the next token when
            // it is a recognized boolean literal, so "--verbose
            // mixtral" stays a typo-detecting positional error
            // rather than silently disabling the switch.
            const auto flag = flags_.find(name);
            const bool boolean =
                flag != flags_.end() && flag->second.boolean;
            auto is_bool_literal = [](const std::string &v) {
                return v == "true" || v == "false" || v == "1" ||
                       v == "0" || v == "yes" || v == "no";
            };
            const bool next_is_value =
                i + 1 < argc && is_bool_literal(argv[i + 1]);
            if (boolean && !next_is_value) {
                value = "true";
            } else if (i + 1 >= argc) {
                usage();
                fatal("flag --" + name + " needs a value");
            } else {
                value = argv[++i];
            }
        }
        auto it = flags_.find(name);
        if (it == flags_.end()) {
            usage();
            fatal("unknown flag --" + name);
        }
        it->second.value = value;
    }
}

std::string
ArgParser::getString(const std::string &name) const
{
    auto it = flags_.find(name);
    panicIf(it == flags_.end(), "undeclared flag read: " + name);
    return it->second.value;
}

std::int64_t
ArgParser::getInt(const std::string &name) const
{
    const std::string v = getString(name);
    char *end = nullptr;
    errno = 0;
    const long long x = std::strtoll(v.c_str(), &end, 10);
    fatalIf(v.empty() || *end != '\0' || errno == ERANGE,
            "flag --" + name + ": '" + v +
                "' is not a 64-bit integer");
    return x;
}

double
ArgParser::getDouble(const std::string &name) const
{
    const std::string v = getString(name);
    const std::optional<double> x = parseFinite(v);
    if (!x)
        fatal("flag --" + name + ": '" + v + "' is not a finite number");
    return *x;
}

bool
ArgParser::getBool(const std::string &name) const
{
    const std::string v = getString(name);
    return v == "1" || v == "true" || v == "yes";
}

} // namespace duplex
