#include "common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <stdexcept>

namespace synpa::common {
namespace {

std::size_t hardware_threads() noexcept {
    return std::max(1u, std::thread::hardware_concurrency());
}

}  // namespace

namespace detail {

/// One parallel_for call: the next unclaimed index and the first failure.
class Batch {
public:
    Batch(std::size_t n, const IndexFn& fn) : n_(n), fn_(fn) {}

    /// Claims and runs indices until none is left.  A throwing fn(i) is
    /// recorded, not propagated, so the rest of the batch still runs.
    void drain() noexcept {
        for (std::size_t i = claim(); i < n_; i = claim()) {
            try {
                fn_(i);
            } catch (...) {
                const std::lock_guard lock(mutex_);
                if (!error_) error_ = std::current_exception();
            }
        }
    }

    /// Rethrows the first recorded failure; call after every drain() ended.
    void rethrow() const {
        if (error_) std::rethrow_exception(error_);
    }

private:
    std::size_t claim() noexcept { return next_.fetch_add(1, std::memory_order_relaxed); }

    const std::size_t n_;
    const IndexFn& fn_;
    std::atomic<std::size_t> next_{0};
    std::mutex mutex_;
    std::exception_ptr error_;
};

}  // namespace detail

void require_thread_cap(const std::string& field, std::size_t threads) {
    if (threads > kMaxThreads)
        throw std::invalid_argument(field + " must be <= " + std::to_string(kMaxThreads) +
                                    ", got " +
                                    std::to_string(static_cast<std::int64_t>(threads)));
}

int nested_sim_threads(int requested, std::size_t outer_workers) noexcept {
    if (requested <= 1 || outer_workers <= 1) return std::max(requested, 1);
    const std::size_t budget = std::max<std::size_t>(1, hardware_threads() / outer_workers);
    return static_cast<int>(std::min(static_cast<std::size_t>(requested), budget));
}

ThreadPool::ThreadPool(std::size_t threads) {
    require_thread_cap("ThreadPool threads", threads);
    if (threads == 0) threads = hardware_threads();
    // The caller of parallel_for is one of the `threads`.
    workers_.reserve(threads - 1);
    for (std::size_t i = 1; i < threads; ++i) workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
    {
        std::lock_guard lock(mutex_);
        stop_ = true;
    }
    cv_start_.notify_all();
    for (auto& w : workers_) w.join();
}

void ThreadPool::parallel_for(std::size_t n, const IndexFn& fn) {
    // The workers and the caller all drain the shared counter, so whichever
    // is free takes the next index; the last worker out wakes the caller.
    detail::Batch batch(n, fn);
    const bool fork = n > 1 && !workers_.empty();
    if (fork) {
        {
            const std::lock_guard lock(mutex_);
            batch_ = &batch;
            active_ = workers_.size();
            ++generation_;
        }
        cv_start_.notify_all();
    }
    batch.drain();
    if (fork) {
        std::unique_lock lock(mutex_);
        cv_done_.wait(lock, [this] { return active_ == 0; });
        batch_ = nullptr;
    }
    batch.rethrow();
}

void ThreadPool::worker_loop() {
    std::uint64_t seen = 0;
    for (;;) {
        detail::Batch* batch = nullptr;
        {
            std::unique_lock lock(mutex_);
            cv_start_.wait(lock, [&] { return stop_ || generation_ != seen; });
            if (stop_) return;
            seen = generation_;
            batch = batch_;
        }
        batch->drain();
        bool last = false;
        {
            const std::lock_guard lock(mutex_);
            last = --active_ == 0;
        }
        if (last) cv_done_.notify_one();
    }
}

void parallel_for(ThreadPool* pool, std::size_t n, const IndexFn& fn) {
    if (pool != nullptr) {
        pool->parallel_for(n, fn);
        return;
    }
    detail::Batch batch(n, fn);
    batch.drain();
    batch.rethrow();
}

void parallel_for(std::size_t n, const IndexFn& fn, std::size_t threads) {
    // A one-thread pool starts no worker: the loop runs on the caller.
    const std::size_t cap = threads == 0 ? hardware_threads() : threads;
    ThreadPool(std::clamp<std::size_t>(n, 1, cap)).parallel_for(n, fn);
}

}  // namespace synpa::common
