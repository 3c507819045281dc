// FORK-01 exemption fixture: common/thread_pool is the one sanctioned home
// for host threads — the pool behind parallel_for lives here.
#include <thread>
#include <vector>

namespace synpa::common {

void start(std::vector<std::thread>& workers) {
    workers.emplace_back([] {});  // allowed: this IS the pool
    std::thread extra([] {});
    extra.join();
}

}  // namespace synpa::common
