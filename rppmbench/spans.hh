/**
 * @file
 * In-memory span recorder for the benchmark's traced runs.
 *
 * A span is one timed call into a layer of librppm: its name (the
 * src/ module and call, e.g. "statstack.build"), start and end on the
 * steady clock, the span that caused it, the recording thread and the
 * workload of the process. Spans stay in memory while the benchmark
 * runs and are written once at exit as Chrome trace-event JSON
 * (chrome://tracing, Perfetto), each event carrying its self time: its
 * duration minus the part of it that child spans cover.
 *
 * Recording is off unless enabled, and a disabled recorder costs one
 * relaxed atomic load per span, so the untraced end-to-end runs pay
 * nothing for the spans placed around their calls.
 */

#ifndef RPPMBENCH_SPANS_HH
#define RPPMBENCH_SPANS_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace rppmbench {

using Clock = std::chrono::steady_clock;

/** One closed (or still open: endNs < 0) span. */
struct Span
{
    std::string name;
    int64_t startNs = 0; ///< since the recorder was created
    int64_t endNs = -1;
    int64_t parent = -1; ///< index of the causing span, -1 for a root
    uint32_t tid = 0;    ///< small per-thread number
};

class SpanRecorder
{
  public:
    explicit SpanRecorder(std::string workload);

    SpanRecorder(const SpanRecorder &) = delete;
    SpanRecorder &operator=(const SpanRecorder &) = delete;

    void setEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
    bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

    /** Open a span under @p parent; returns its id, or -1 when the
     *  recorder is disabled. Thread-safe. */
    int64_t open(const char *name, int64_t parent);

    /** Close span @p id (no-op for -1). Thread-safe. */
    void close(int64_t id);

    /** Median duration in ms of the closed spans named @p name (0 when
     *  there are none). */
    double medianMs(const std::string &name) const;

    /** All spans as Chrome trace-event JSON; @p metadata is a JSON
     *  object written under "metadata". */
    std::string chromeJson(const std::string &metadata) const;

  private:
    std::string workload_;
    Clock::time_point origin_;
    std::atomic<bool> enabled_{false};

    mutable std::mutex mutex_;
    std::vector<Span> spans_; // guarded by mutex_
};

/**
 * RAII span. The single-argument form nests under the calling thread's
 * innermost open span; pass @p parent explicitly for work that another
 * thread caused (a client request under the serving phase).
 */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder &rec, const char *name);
    ScopedSpan(SpanRecorder &rec, const char *name, int64_t parent);
    ~ScopedSpan();

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int64_t id() const { return id_; }

  private:
    SpanRecorder &rec_;
    int64_t id_;
    int64_t saved_;
};

} // namespace rppmbench

#endif // RPPMBENCH_SPANS_HH
