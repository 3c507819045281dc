#include "common/thread_pool.hpp"

#include <algorithm>

namespace synpa::common {

ThreadPool::ThreadPool(std::size_t threads) {
    if (threads == 0) threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
    workers_.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i) workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
    {
        std::lock_guard lock(mutex_);
        stop_ = true;
    }
    cv_task_.notify_all();
    for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
    enqueue([task = std::move(task), this] {
        try {
            task();
        } catch (...) {
            const std::lock_guard lock(mutex_);
            if (!first_exception_) first_exception_ = std::current_exception();
        }
    });
}

void ThreadPool::enqueue(std::function<void()> task) {
    {
        std::lock_guard lock(mutex_);
        tasks_.push(std::move(task));
    }
    cv_task_.notify_one();
}

void ThreadPool::wait_idle() {
    std::unique_lock lock(mutex_);
    cv_idle_.wait(lock, [this] { return tasks_.empty() && in_flight_ == 0; });
    if (first_exception_) {
        const std::exception_ptr error = std::exchange(first_exception_, nullptr);
        lock.unlock();
        std::rethrow_exception(error);
    }
}

void ThreadPool::worker_loop() {
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock lock(mutex_);
            cv_task_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
            if (stop_ && tasks_.empty()) return;
            task = std::move(tasks_.front());
            tasks_.pop();
            ++in_flight_;
        }
        task();  // submit() wrapped this; it cannot throw
        bool idle = false;
        {
            std::lock_guard lock(mutex_);
            idle = --in_flight_ == 0 && tasks_.empty();
        }
        // Only the last task of a batch can make wait_idle()'s predicate
        // true; waking the waiter for any other one only makes it re-check.
        if (idle) cv_idle_.notify_all();
    }
}

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                  std::size_t threads) {
    if (n == 0) return;
    ThreadPool pool(threads);
    for (std::size_t i = 0; i < n; ++i) pool.submit([i, &fn] { fn(i); });
    pool.wait_idle();
}

}  // namespace synpa::common
