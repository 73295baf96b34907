#include "spans.hh"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <utility>

namespace rppmbench {

namespace {

// Innermost open span of the calling thread (-1 = none).
thread_local int64_t tCurrent = -1;

uint32_t
threadNumber()
{
    static std::atomic<uint32_t> next{1};
    thread_local const uint32_t mine = next.fetch_add(1);
    return mine;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        out.push_back(c);
    }
    return out;
}

} // namespace

SpanRecorder::SpanRecorder(std::string workload)
    : workload_(std::move(workload)), origin_(Clock::now())
{}

int64_t
SpanRecorder::open(const char *name, int64_t parent)
{
    if (!enabled())
        return -1;
    Span s;
    s.name = name;
    s.parent = parent;
    s.tid = threadNumber();
    s.startNs = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    Clock::now() - origin_)
                    .count();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(s));
    return static_cast<int64_t>(spans_.size()) - 1;
}

void
SpanRecorder::close(int64_t id)
{
    if (id < 0)
        return;
    const int64_t end = std::chrono::duration_cast<std::chrono::nanoseconds>(
                            Clock::now() - origin_)
                            .count();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<size_t>(id)].endNs = end;
}

double
SpanRecorder::medianMs(const std::string &name) const
{
    std::vector<double> ms;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const Span &s : spans_) {
            if (s.endNs >= 0 && s.name == name)
                ms.push_back(static_cast<double>(s.endNs - s.startNs) * 1e-6);
        }
    }
    if (ms.empty())
        return 0.0;
    std::sort(ms.begin(), ms.end());
    const size_t n = ms.size();
    return n % 2 == 1 ? ms[n / 2] : 0.5 * (ms[n / 2 - 1] + ms[n / 2]);
}

std::string
SpanRecorder::chromeJson(const std::string &metadata) const
{
    std::lock_guard<std::mutex> lock(mutex_);

    // Self time = duration minus the union of the child intervals,
    // clipped to the parent (children on other threads may overlap).
    std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
        spans_.size());
    for (const Span &s : spans_) {
        if (s.parent >= 0 && s.endNs >= 0)
            children[static_cast<size_t>(s.parent)].push_back(
                {s.startNs, s.endNs});
    }

    std::ostringstream os;
    os << "{\"displayTimeUnit\": \"ms\", \"metadata\": " << metadata
       << ", \"traceEvents\": [";
    bool first = true;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        if (s.endNs < 0)
            continue;
        auto &kids = children[i];
        std::sort(kids.begin(), kids.end());
        int64_t covered = 0;
        int64_t cursor = s.startNs;
        for (const auto &[b, e] : kids) {
            const int64_t lo = std::max(b, cursor);
            const int64_t hi = std::min(e, s.endNs);
            if (hi > lo) {
                covered += hi - lo;
                cursor = hi;
            }
        }
        const int64_t dur = s.endNs - s.startNs;
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %u",
                      static_cast<double>(s.startNs) * 1e-3,
                      static_cast<double>(dur) * 1e-3, s.tid);
        os << (first ? "\n  " : ",\n  ") << "{\"name\": \""
           << jsonEscape(s.name) << "\", \"ph\": \"X\", " << buf
           << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
           << ", \"workload\": \"" << jsonEscape(workload_)
           << "\", \"self_us\": "
           << static_cast<double>(dur - covered) * 1e-3 << "}}";
        first = false;
    }
    os << "\n]}\n";
    return os.str();
}

ScopedSpan::ScopedSpan(SpanRecorder &rec, const char *name)
    : ScopedSpan(rec, name, tCurrent)
{}

ScopedSpan::ScopedSpan(SpanRecorder &rec, const char *name, int64_t parent)
    : rec_(rec), id_(rec.open(name, parent)), saved_(tCurrent)
{
    if (id_ >= 0)
        tCurrent = id_;
}

ScopedSpan::~ScopedSpan()
{
    if (id_ >= 0) {
        rec_.close(id_);
        tCurrent = saved_;
    }
}

} // namespace rppmbench
