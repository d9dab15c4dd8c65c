#include "workload/trace.hh"

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/log.hh"
#include "common/number.hh"

namespace duplex
{

namespace
{

/** "trace line N: 'the offending text' — " error prefix, so a bad
 *  line in a million-row CSV is findable without opening it. */
std::string
lineContext(int line_no, const std::string &line)
{
    const auto first = line.find_first_not_of(" \t\r");
    const auto last = line.find_last_not_of(" \t\r\n");
    std::string shown = first == std::string::npos
                            ? ""
                            : line.substr(first, last - first + 1);
    if (shown.size() > 60)
        shown = shown.substr(0, 57) + "...";
    return "trace line " + std::to_string(line_no) + ": '" + shown +
           "' — ";
}

} // namespace

std::vector<Request>
parseTrace(std::istream &in)
{
    std::vector<Request> requests;
    std::string line;
    int line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        const auto first = line.find_first_not_of(" \t\r");
        if (first == std::string::npos || line[first] == '#')
            continue;
        std::istringstream fields(line);
        std::string arrival_s;
        std::string lin_s;
        std::string lout_s;
        std::string session_s;
        std::string priority_s;
        std::string excess_s;
        if (!std::getline(fields, arrival_s, ',') ||
            !std::getline(fields, lin_s, ',') ||
            !std::getline(fields, lout_s, ',')) {
            fatal(lineContext(line_no, line) +
                  "expected arrival_sec,input_len,output_len"
                  "[,session_id[,priority_class]]");
        }
        // Optional 4th/5th columns: session_id and priority_class
        // (written only for traces recorded with sessions or
        // priorities; three- and four-column traces stay valid).
        // A 6th column is a malformed file, not something to drop
        // silently.
        const bool has_session =
            static_cast<bool>(std::getline(fields, session_s, ','));
        const bool has_priority = static_cast<bool>(
            std::getline(fields, priority_s, ','));
        fatalIf(static_cast<bool>(
                    std::getline(fields, excess_s, ',')),
                lineContext(line_no, line) +
                    "too many columns (expected at most "
                    "arrival_sec,input_len,output_len,session_id,"
                    "priority_class)");
        // Every field is checked whole, finite and (for integers
        // and times) in range before it is cast.
        auto seconds = [&](const std::string &field, const char *name) {
            const std::optional<double> v = parseFinite(field);
            if (!v)
                fatal(lineContext(line_no, line) + "bad " + name +
                      " '" + field + "' (not a finite number)");
            if (!withinClockRange(*v))
                fatal(lineContext(line_no, line) + "bad " + name +
                      " '" + field +
                      "' (beyond the simulated clock range)");
            return *v;
        };
        auto whole = [&](const std::string &field, const char *name,
                         std::int64_t lo = -kMaxExactWhole,
                         std::int64_t hi = kMaxExactWhole) {
            const std::optional<std::int64_t> v =
                parseWhole(field, lo, hi);
            if (!v)
                fatal(lineContext(line_no, line) + "bad " + name +
                      " '" + field + "' (not a whole number in [" +
                      std::to_string(lo) + ", " + std::to_string(hi) +
                      "])");
            return *v;
        };
        Request r;
        r.id = static_cast<int>(requests.size());
        r.arrival = secToPs(seconds(arrival_s, "arrival_sec"));
        r.inputLen = whole(lin_s, "input_len");
        r.outputLen = whole(lout_s, "output_len");
        if (has_session)
            r.sessionId = whole(session_s, "session_id");
        if (has_priority)
            r.priorityClass = static_cast<int>(
                whole(priority_s, "priority_class",
                      std::numeric_limits<int>::min(),
                      std::numeric_limits<int>::max()));
        fatalIf(r.arrival < 0 || r.inputLen <= 0 || r.outputLen <= 0,
                lineContext(line_no, line) +
                    "lengths must be positive, arrival "
                    "non-negative");
        fatalIf(r.priorityClass < 0,
                lineContext(line_no, line) +
                    "priority_class must be >= 0");
        // Plain if, not fatalIf: the message touches back() and
        // must only be built once a previous request exists.
        if (!requests.empty() &&
            r.arrival < requests.back().arrival) {
            fatal(lineContext(line_no, line) +
                  "arrivals must be non-decreasing (previous "
                  "line arrives at " +
                  std::to_string(psToSec(requests.back().arrival)) +
                  " s)");
        }
        requests.push_back(r);
    }
    return requests;
}

std::vector<Request>
loadTrace(const std::string &path)
{
    std::ifstream in(path);
    fatalIf(!in, "cannot open trace: " + path);
    return parseTrace(in);
}

void
writeTrace(std::ostream &out, const std::vector<Request> &requests)
{
    // Optional columns appear only when some request carries them,
    // so traces recorded without sessions or priorities stay
    // byte-identical to the earlier formats. The format is
    // positional: a priority column forces the session column (as
    // -1 placeholders when the stream is session-less).
    bool priorities = false;
    for (const auto &r : requests)
        priorities = priorities || r.priorityClass != 0;
    bool sessions = priorities;
    for (const auto &r : requests)
        sessions = sessions || r.sessionId >= 0;
    out << "# arrival_sec,input_len,output_len";
    if (sessions)
        out << ",session_id";
    if (priorities)
        out << ",priority_class";
    out << "\n";
    char buf[64];
    for (const auto &r : requests) {
        // Nanosecond text precision keeps long traces lossless.
        std::snprintf(buf, sizeof(buf), "%.9f", psToSec(r.arrival));
        out << buf << "," << r.inputLen << "," << r.outputLen;
        if (sessions)
            out << "," << r.sessionId;
        if (priorities)
            out << "," << r.priorityClass;
        out << "\n";
    }
}

void
saveTrace(const std::string &path,
          const std::vector<Request> &requests)
{
    std::ofstream out(path);
    fatalIf(!out, "cannot write trace: " + path);
    writeTrace(out, requests);
}

} // namespace duplex
