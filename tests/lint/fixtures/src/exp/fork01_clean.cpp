// FORK-01 clean counterpart: work forks through common::parallel_for, a
// std::thread named only in a comment or a string is not code, and an
// audited exception carries its reason.
#include <future>
#include <string>

#include "common/thread_pool.hpp"

namespace synpa::exp {

int fan_out(int* out) {
    // Not std::thread, not std::async: one parallel_for.
    common::parallel_for(4, [out](std::size_t i) { out[i] = static_cast<int>(i); }, 2);
    const std::string label = "std::thread";
    // synpa-lint: fork-ok(fixture: a value handed over once, no thread started)
    std::promise<int> ready;
    ready.set_value(static_cast<int>(label.size()));
    return out[3];
}

}  // namespace synpa::exp
