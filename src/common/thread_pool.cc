#include "common/thread_pool.hh"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <memory>

namespace raceval
{

namespace
{

/** @return the CPUs the calling thread may run on (so a `taskset` run
 *  sizes to the cores it was given), else the hardware thread count,
 *  else 2. */
size_t
defaultThreadCount()
{
#ifdef __linux__
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof(set), &set) == 0 && CPU_COUNT(&set) > 0)
        return static_cast<size_t>(CPU_COUNT(&set));
#endif
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 2;
}

} // namespace

ThreadPool::ThreadPool(size_t num_threads)
{
    if (num_threads == 0)
        num_threads = defaultThreadCount();
    workers.reserve(num_threads);
    for (size_t i = 0; i < num_threads; ++i)
        workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex);
        stopping = true;
    }
    wakeWorker.notify_all();
    for (auto &worker : workers)
        worker.join();
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex);
            wakeWorker.wait(lock, [this] {
                return stopping || !queue.empty();
            });
            if (stopping && queue.empty())
                return;
            task = std::move(queue.front());
            queue.pop_front();
        }
        task();
    }
}

void
ThreadPool::runAll(std::vector<std::function<void()>> tasks)
{
    if (tasks.empty())
        return;

    // Per-batch completion state: concurrent runAll() callers (e.g. a
    // campaign's racer threads sharing one engine pool) each wait only
    // for their own batch, never for a pool-global quiescent point --
    // otherwise a small batch would convoy behind every other caller's
    // in-flight work.
    struct BatchState
    {
        std::mutex mutex;
        std::condition_variable done;
        size_t remaining;
    };
    auto state = std::make_shared<BatchState>();
    state->remaining = tasks.size();

    {
        std::lock_guard<std::mutex> lock(mutex);
        for (auto &task : tasks) {
            queue.push_back([state, task = std::move(task)] {
                task();
                std::lock_guard<std::mutex> lock(state->mutex);
                if (--state->remaining == 0)
                    state->done.notify_all();
            });
        }
    }
    wakeWorker.notify_all();
    std::unique_lock<std::mutex> lock(state->mutex);
    state->done.wait(lock, [&] { return state->remaining == 0; });
}

void
ThreadPool::parallelFor(size_t n, const std::function<void(size_t)> &body)
{
    if (n == 0)
        return;
    // One closure per worker, each grabbing chunks of indices off a
    // shared counter. Chunking amortizes the atomic (and the
    // std::function indirection) over many indices when n >> threads,
    // while ~4 chunks per worker keeps the tail balanced when per-index
    // cost varies.
    size_t chunk = std::max<size_t>(1, n / (4 * workers.size()));
    auto counter = std::make_shared<std::atomic<size_t>>(0);
    size_t num_tasks = std::min(n, workers.size());
    std::vector<std::function<void()>> tasks;
    tasks.reserve(num_tasks);
    for (size_t t = 0; t < num_tasks; ++t) {
        tasks.emplace_back([counter, n, chunk, &body] {
            for (;;) {
                size_t begin = counter->fetch_add(chunk);
                if (begin >= n)
                    return;
                size_t end = std::min(n, begin + chunk);
                for (size_t i = begin; i < end; ++i)
                    body(i);
            }
        });
    }
    runAll(std::move(tasks));
}

} // namespace raceval
