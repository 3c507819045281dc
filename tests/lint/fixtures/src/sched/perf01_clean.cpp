// PERF-01 clean counterpart: FlatIdMap as long-lived member state, passed
// by reference or aliased, SmallIdMap for per-call lookups, and an audited
// exception.
#include "common/flat_map.hpp"

namespace synpa::sched {

struct Owner {
    common::FlatIdMap<int> last_core;  // member: paid for once per owner

    int core_of(int id) const {
        const common::FlatIdMap<int>& view = last_core;
        const int* core = view.find(id);
        return core != nullptr ? *core : -1;
    }
};

int present(const common::FlatIdMap<int>& map, int id) { return map.contains(id) ? 1 : 0; }

int per_call(int a, int b) {
    const common::SmallIdMap<int> index_of({{a, 0}, {b, 1}});
    // synpa-lint: flat-map-ok(fixture: ids here are bounded by a small constant)
    common::FlatIdMap<int> audited;
    return index_of.find(a) != nullptr && !audited.contains(b) ? 1 : 0;
}

}  // namespace synpa::sched
