// The one way this code base runs work on host threads: parallel_for.
//
// Every fork/join in the simulator is one parallel_for(n, fn) — a quantum's
// chips (uarch::Platform), a fleet quantum's nodes (fleet::FleetRunner), an
// evaluation grid's repetitions (exp::GridEngine), the trainer's pair and
// isolated runs, workload preparation and suite characterization.  It runs
// fn(i) exactly once for every i in [0, n): the calling thread and the
// pool's workers each claim the next unclaimed index when free (items vary
// in cost, so the range is never pre-split), and the call returns once the
// whole batch has run.  A T-thread pool is the caller plus T - 1 workers:
// the caller works through the batch instead of sleeping on it, which saves
// a sleep and a wake-up on every join (at a quantum's chip grain a blocked
// caller measurably cost throughput).  Each index owns its own state and
// RNG streams, so results are identical at every thread count; only the
// interleaving changes.
//
// Error handling: an fn(i) that throws does not stop the batch.  Every
// other index still runs, then the first exception caught is rethrown to
// the caller; later ones are dropped.  The pool stays usable afterwards.
//
// The thread-count rules live here too: every option that sizes a pool is
// capped at kMaxThreads through require_thread_cap before the pool is
// built, and nested_sim_threads splits the host between an outer pool and
// the chip pools of the simulations it runs.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace synpa::common {

/// The body of a parallel_for: called once with each index.
using IndexFn = std::function<void(std::size_t)>;

/// Ceiling on every option that sizes a host thread pool: each unit is a
/// thread the pool starts, so a larger value (or a wrapped negative) is a
/// typo.
inline constexpr std::size_t kMaxThreads = 256;

/// Throws std::invalid_argument naming `field` ("<Struct>::<member>" or an
/// environment variable) when `threads` is above kMaxThreads, a wrapped
/// negative included.  Every option that sizes a pool checks through it
/// before the pool is built.
void require_thread_cap(const std::string& field, std::size_t threads);

/// The sim_threads a nested simulation should actually use when its
/// *caller* already fans out over `outer_workers` pool threads (grid
/// repetitions, fleet nodes).  Caps requested threads so outer x inner
/// never oversubscribes the host: with a saturated outer pool this returns
/// 1 (the parallelism is already at the outer grain), on an idle host it
/// returns the request unchanged.  Purely a scheduling decision; results
/// are identical either way.
int nested_sim_threads(int requested, std::size_t outer_workers) noexcept;

namespace detail {
class Batch;  // one parallel_for call's claim counter and first failure
}  // namespace detail

class ThreadPool {
public:
    /// A pool of `threads` threads: the caller of parallel_for and
    /// `threads` - 1 workers (so 1 starts none); 0 means
    /// std::thread::hardware_concurrency().  Throws std::invalid_argument
    /// above kMaxThreads.
    explicit ThreadPool(std::size_t threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /// Threads that run a batch, the caller included.
    std::size_t size() const noexcept { return workers_.size() + 1; }

    /// Runs fn(i) once for every i in [0, n) on the caller and the workers
    /// and returns when all have run, rethrowing the first exception any of
    /// them threw (see the file comment).  One caller at a time; fn must not
    /// call back into this pool.
    void parallel_for(std::size_t n, const IndexFn& fn);

private:
    void worker_loop();

    std::vector<std::thread> workers_;
    std::mutex mutex_;
    std::condition_variable cv_start_;  // a new batch was published, or stop_
    std::condition_variable cv_done_;   // the last worker left the batch
    detail::Batch* batch_ = nullptr;    // the batch being run, under mutex_
    std::uint64_t generation_ = 0;      // bumped once per published batch
    std::size_t active_ = 0;            // workers not yet done with batch_
    bool stop_ = false;
};

/// pool->parallel_for(n, fn), or with a null `pool` the same loop inline on
/// the caller, in index order, with the same run-all-then-rethrow rule.
void parallel_for(ThreadPool* pool, std::size_t n, const IndexFn& fn);

/// One-shot parallel_for over a temporary pool of min(threads, n) threads
/// (threads 0 = hardware concurrency); runs inline when that count is 1.
void parallel_for(std::size_t n, const IndexFn& fn, std::size_t threads = 0);

}  // namespace synpa::common
