/**
 * @file
 * Minimal command-line flag parser for examples and bench binaries.
 *
 * Flags use the form --name=value or --name value; unrecognized flags
 * are fatal so typos do not silently fall back to defaults.
 */

#ifndef DUPLEX_COMMON_ARGPARSE_HH
#define DUPLEX_COMMON_ARGPARSE_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace duplex
{

/** Parses --key=value style flags with typed accessors and defaults. */
class ArgParser
{
  public:
    /** Describe a flag so --help can list it. */
    void addFlag(const std::string &name, const std::string &help,
                 const std::string &default_value);

    /**
     * Parse argv. Exits with usage text on --help or on an
     * unrecognized flag.
     */
    void parse(int argc, char **argv);

    /** String value of a flag (default if unset). */
    std::string getString(const std::string &name) const;

    /** Integer value of a flag; fatal unless the whole value parses
     *  and fits. */
    std::int64_t getInt(const std::string &name) const;

    /** Floating-point value of a flag; fatal unless the whole value
     *  parses to a finite number. */
    double getDouble(const std::string &name) const;

    /** Boolean value: true/1/yes are true. */
    bool getBool(const std::string &name) const;

  private:
    struct Flag
    {
        std::string help;
        std::string value;

        /** Declared with a true/false default: works as a bare
         *  switch (--verbose means --verbose=true). */
        bool boolean = false;
    };

    std::map<std::string, Flag> flags_;
    std::string program_;

    void usage() const;
};

} // namespace duplex

#endif // DUPLEX_COMMON_ARGPARSE_HH
