#include "obs/trace.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <vector>

#include "common/json_writer.hh"
#include "common/log.hh"

#ifdef __unix__
#include <unistd.h>
#endif

namespace raceval::obs
{

namespace detail
{
std::atomic<bool> tracingOn{false};
} // namespace detail

namespace
{

/** One completed span; 40 bytes, stored by value in the rings. */
struct TraceEvent
{
    const char *name;
    uint64_t startNs;
    uint64_t durNs;
    uint64_t arg;
    bool hasArg;
};

/**
 * Per-thread ring. The mutex is uncontended on the record path (only
 * the flusher ever takes it from another thread), so the cost is one
 * uncontested lock/unlock pair per completed span.
 */
struct ThreadBuffer
{
    std::mutex mutex;
    uint32_t tid = 0;
    uint64_t head = 0; //!< events ever recorded; slot = head % size
    std::vector<TraceEvent> ring;
};

struct TraceState
{
    std::mutex mutex; //!< buffers list + session lifecycle
    std::vector<std::unique_ptr<ThreadBuffer>> buffers;
    bool active = false;
    std::string path;
    size_t ringCapacity = size_t{1} << 15;
};

TraceState &
state()
{
    // Immortal: spans can record from static destructors during exit
    // teardown, after a function-local static would be destroyed.
    static TraceState *s = new TraceState();
    return *s;
}

thread_local ThreadBuffer *tlsBuffer = nullptr;

std::chrono::steady_clock::time_point
processEpoch()
{
    static const auto epoch = std::chrono::steady_clock::now();
    return epoch;
}

ThreadBuffer &
threadBuffer()
{
    if (!tlsBuffer) {
        TraceState &s = state();
        std::lock_guard<std::mutex> lock(s.mutex);
        auto buffer = std::make_unique<ThreadBuffer>();
        buffer->tid = static_cast<uint32_t>(s.buffers.size() + 1);
        buffer->ring.resize(s.ringCapacity);
        tlsBuffer = buffer.get();
        // Buffers are never freed: a detached thread's tls pointer
        // stays valid across sessions, and stopTracing() can flush
        // rings of threads that already exited.
        s.buffers.push_back(std::move(buffer));
    }
    return *tlsBuffer;
}

/** Collect every ring's events (oldest to newest per thread). */
void
collectEvents(std::vector<std::pair<uint32_t, TraceEvent>> &out,
              uint64_t &dropped)
{
    TraceState &s = state();
    std::vector<ThreadBuffer *> buffers;
    {
        std::lock_guard<std::mutex> lock(s.mutex);
        for (auto &buffer : s.buffers)
            buffers.push_back(buffer.get());
    }
    dropped = 0;
    for (ThreadBuffer *buffer : buffers) {
        std::lock_guard<std::mutex> lock(buffer->mutex);
        size_t cap = buffer->ring.size();
        uint64_t n = std::min<uint64_t>(buffer->head, cap);
        if (buffer->head > cap)
            dropped += buffer->head - cap;
        for (uint64_t i = buffer->head - n; i < buffer->head; ++i)
            out.emplace_back(buffer->tid, buffer->ring[i % cap]);
    }
}

std::string
renderChromeTrace(std::vector<std::pair<uint32_t, TraceEvent>> events,
                  uint64_t dropped)
{
    // Perfetto prefers time-sorted events; stable keeps same-timestamp
    // nesting (outer span recorded after inner but started earlier).
    std::stable_sort(events.begin(), events.end(),
                     [](const auto &a, const auto &b) {
                         return a.second.startNs < b.second.startNs;
                     });
#ifdef __unix__
    uint64_t pid = static_cast<uint64_t>(::getpid());
#else
    uint64_t pid = 1;
#endif
    JsonWriter w(/*pretty=*/true);
    w.beginObject();
    w.field("displayTimeUnit", "ms");
    w.beginObject("otherData")
        .field("tool", "raceval")
        .field("dropped_events", dropped)
        .endObject();
    w.beginArray("traceEvents");
    for (const auto &[tid, ev] : events) {
        // ts/dur in microseconds; three decimals keep full ns
        // resolution in decimal, so the file round-trips exactly.
        w.beginObject()
            .field("name", ev.name)
            .field("cat", "raceval")
            .field("ph", "X")
            .rawField("ts", strprintf("%llu.%03llu",
                          static_cast<unsigned long long>(
                              ev.startNs / 1000),
                          static_cast<unsigned long long>(
                              ev.startNs % 1000)))
            .rawField("dur", strprintf("%llu.%03llu",
                          static_cast<unsigned long long>(
                              ev.durNs / 1000),
                          static_cast<unsigned long long>(
                              ev.durNs % 1000)))
            .field("pid", pid)
            .field("tid", uint64_t{tid});
        if (ev.hasArg)
            w.beginObject("args").field("v", ev.arg).endObject();
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str();
}

} // namespace

namespace detail
{

uint64_t
traceNowNs() noexcept
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - processEpoch())
            .count());
}

void
recordSpan(const char *name, uint64_t start_ns, uint64_t dur_ns,
           uint64_t arg, bool has_arg) noexcept
{
    ThreadBuffer &buffer = threadBuffer();
    std::lock_guard<std::mutex> lock(buffer.mutex);
    buffer.ring[buffer.head % buffer.ring.size()] =
        TraceEvent{name, start_ns, dur_ns, arg, has_arg};
    ++buffer.head;
}

} // namespace detail

bool
tracingActive() noexcept
{
    TraceState &s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    return s.active;
}

bool
startTracing(const std::string &path)
{
    processEpoch(); // pin the time base before any span
    TraceState &s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    if (s.active)
        return false;
    if (const char *env = std::getenv("RACEVAL_TRACE_RING")) {
        size_t cap = std::strtoull(env, nullptr, 10);
        if (cap >= 16)
            s.ringCapacity = cap;
    }
    for (auto &buffer : s.buffers) {
        std::lock_guard<std::mutex> buf_lock(buffer->mutex);
        buffer->head = 0;
    }
    s.path = path;
    s.active = true;
    detail::tracingOn.store(true, std::memory_order_relaxed);
    return true;
}

void
setTracingPaused(bool paused) noexcept
{
    TraceState &s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    detail::tracingOn.store(s.active && !paused,
                            std::memory_order_relaxed);
}

std::string
traceEventsJson()
{
    std::vector<std::pair<uint32_t, TraceEvent>> events;
    uint64_t dropped = 0;
    collectEvents(events, dropped);
    return renderChromeTrace(std::move(events), dropped);
}

size_t
tracingEventCount()
{
    std::vector<std::pair<uint32_t, TraceEvent>> events;
    uint64_t dropped = 0;
    collectEvents(events, dropped);
    return events.size();
}

uint64_t
tracingDropped()
{
    std::vector<std::pair<uint32_t, TraceEvent>> events;
    uint64_t dropped = 0;
    collectEvents(events, dropped);
    return dropped;
}

void
setTraceRingCapacity(size_t events)
{
    TraceState &s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    if (events >= 16)
        s.ringCapacity = events;
}

size_t
stopTracing()
{
    std::string path;
    {
        TraceState &s = state();
        std::lock_guard<std::mutex> lock(s.mutex);
        if (!s.active)
            return 0;
        // Disable recording first: spans constructed after this line
        // are no-ops; spans already in flight record into rings we are
        // about to drain, which at worst omits them from the file.
        detail::tracingOn.store(false, std::memory_order_relaxed);
        s.active = false;
        path = std::move(s.path);
        s.path.clear();
    }

    std::vector<std::pair<uint32_t, TraceEvent>> events;
    uint64_t dropped = 0;
    collectEvents(events, dropped);
    size_t count = events.size();
    std::string json = renderChromeTrace(std::move(events), dropped);

    std::FILE *file = std::fopen(path.c_str(), "w");
    if (!file) {
        warn("cannot write trace file '%s'", path.c_str());
        return 0;
    }
    std::fwrite(json.data(), 1, json.size(), file);
    std::fclose(file);
    if (dropped) {
        warn("trace '%s': ring overflow dropped %llu oldest events "
             "(raise RACEVAL_TRACE_RING)", path.c_str(),
             static_cast<unsigned long long>(dropped));
    }
    return count;
}

} // namespace raceval::obs
