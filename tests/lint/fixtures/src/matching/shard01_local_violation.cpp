// SHARD-01 fixture: function-local statics in a barrier-layer .cpp.  Fleet
// nodes call these solvers concurrently, so a static local is shared by
// every caller on every thread, and a thread_local one outlives the solve
// on a long-lived pool thread.
#include <vector>

namespace synpa::matching {

constexpr long kStepBudget = 1'000'000;  // digit separators keep line numbers

int stamp_walk() {
    static int calls = 0;  // line 12: flagged
    static thread_local int stamp = 0;  // line 13: flagged
    thread_local static std::vector<int> scratch;  // line 14: flagged
    static std::vector<int> memo{1, 2};  // line 15: flagged (brace init)
    scratch.push_back(++stamp);
    return ++calls + memo.front() + static_cast<int>(kStepBudget % 7);
}

}  // namespace synpa::matching
