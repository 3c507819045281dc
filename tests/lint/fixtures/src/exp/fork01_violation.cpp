// FORK-01 fixture: a hand-rolled fork/join outside common/thread_pool.
// Expected findings are pinned by line number in
// tests/lint/test_synpa_lint.py — keep the layout stable.
#include <future>
#include <thread>

namespace synpa::exp {

int fan_out() {
    std::thread worker([] {});                             // line 10: flagged
    auto first = std::async([] { return 1; });             // line 11: flagged
    std::promise<int> promise;                             // line 12: flagged
    std::jthread joined([] {});                            // line 13: flagged
    std::packaged_task<int()> third([] { return 3; });     // line 14: flagged
    std::shared_future<int> fourth = third.get_future();   // line 15: flagged
    worker.join();
    promise.set_value(2);
    third();
    return first.get() + promise.get_future().get() + fourth.get();
}

}  // namespace synpa::exp
