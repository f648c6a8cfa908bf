/**
 * @file
 * Minimal fixed-size thread pool used to parallelize tuner evaluations,
 * mirroring the paper's parallel irace runs on a multicore host.
 */

#ifndef RACEVAL_COMMON_THREAD_POOL_HH
#define RACEVAL_COMMON_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace raceval
{

/**
 * Fixed-size worker pool with a run-all-and-wait bulk interface.
 *
 * The tuner submits batches of independent (configuration, benchmark)
 * evaluations; runAll() blocks until the whole batch has drained, which is
 * the natural synchronization point between racing steps.
 */
class ThreadPool
{
  public:
    /**
     * @param num_threads worker count; 0 selects the number of CPUs in
     *        the calling thread's affinity mask (what `taskset` grants),
     *        falling back to hardware_concurrency(), then to 2.
     */
    explicit ThreadPool(size_t num_threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** @return number of worker threads. */
    size_t size() const { return workers.size(); }

    /**
     * Run every task in the batch and block until all complete.
     *
     * Safe to call from several threads at once: each caller waits on
     * its own batch's completion, so concurrent batches interleave at
     * the workers without convoying behind one another.
     *
     * Tasks must be independent; exceptions escaping a task terminate (the
     * library reports errors via fatal()/panic() instead).
     */
    void runAll(std::vector<std::function<void()>> tasks);

    /**
     * Parallel for over [0, n): body(i) invoked exactly once per index.
     */
    void parallelFor(size_t n, const std::function<void(size_t)> &body);

  private:
    void workerLoop();

    std::vector<std::thread> workers;
    std::deque<std::function<void()>> queue;
    std::mutex mutex;
    std::condition_variable wakeWorker;
    bool stopping = false;
};

} // namespace raceval

#endif // RACEVAL_COMMON_THREAD_POOL_HH
