// PERF-01 fixture: per-call FlatIdMap tables in a src/ .cpp file.  Expected
// findings are pinned by line number in tests/lint/test_synpa_lint.py —
// keep the layout stable.
#include "common/flat_map.hpp"

namespace synpa::sched {

int lookup_per_call(const int* ids, int n) {
    common::FlatIdMap<int> index_of;  // line 9: flagged
    for (int i = 0; i < n; ++i) index_of[ids[i]] = i;
    const auto probe = [&](int id) {
        const synpa::common::FlatIdMap<long> seen;  // line 12: flagged
        return seen.contains(id) || index_of.contains(id);
    };
    return probe(n) ? 1 : 0;
}

}  // namespace synpa::sched
