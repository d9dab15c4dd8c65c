#include "trace.hh"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <limits>

namespace perfbench
{

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

const char *
spanName(SpanKind kind)
{
    switch (kind) {
      case SpanKind::Run:
        return "run";
      case SpanKind::Config:
        return "config";
      case SpanKind::Step:
        return "step";
      case SpanKind::Exec:
        return "exec";
      case SpanKind::Next:
        return "next";
      case SpanKind::Feedback:
        return "feedback";
      case SpanKind::Route:
        return "route";
      case SpanKind::Victim:
        return "victim";
    }
    return "?";
}

Tracer &
Tracer::instance()
{
    static Tracer tracer;
    return tracer;
}

void
Tracer::clear()
{
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.clear();
    execLogs_.clear();
    nextLane_.store(0);
}

void
Tracer::add(const Span &span)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(span);
}

void
Tracer::addSpans(std::vector<Span> spans)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.insert(spans_.end(), spans.begin(), spans.end());
}

void
Tracer::addExecLog(ExecLog log)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    execLogs_.push_back(std::move(log));
}

bool
Tracer::writeChromeTrace(const std::string &path) const
{
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (out == nullptr)
        return false;

    std::int64_t origin = std::numeric_limits<std::int64_t>::max();
    for (const Span &s : spans_)
        origin = std::min(origin, s.start);
    for (const ExecLog &log : execLogs_)
        for (const StageRecord &r : log.stages)
            origin = std::min(origin, r.start);

    bool first = true;
    const auto event = [&](const char *name, int lane,
                           std::int64_t start, std::int64_t end,
                           const char *arg, std::int64_t value) {
        std::fprintf(out,
                     "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":0,"
                     "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"%s\":%" PRId64 "}}",
                     first ? "" : ",", name, lane,
                     static_cast<double>(start - origin) / 1000.0,
                     static_cast<double>(end - start) / 1000.0, arg,
                     value);
        first = false;
    };

    std::fprintf(out, "{\"traceEvents\":[");
    for (const Span &s : spans_)
        event(spanName(s.kind), s.lane, s.start, s.end, "key", s.key);
    for (const ExecLog &log : execLogs_)
        for (const StageRecord &r : log.stages)
            event("exec", log.lane, r.start, r.end, "tokens",
                  r.decodeTokens + r.prefillTokens);
    std::fprintf(out, "\n]}\n");
    return std::fclose(out) == 0;
}

} // namespace perfbench
