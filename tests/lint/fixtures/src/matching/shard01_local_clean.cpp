// SHARD-01 clean counterpart for function-local statics: constants, plain
// locals and state owned by an object are fine; only shared mutables race.
#include <vector>

namespace synpa::matching {

namespace {

static int twice(int x) { return 2 * x; }  // a static function, not state

}  // namespace

class Walker {
public:
    int walk() { return ++stamp_; }  // per-solve member stamp

private:
    int stamp_ = 0;
};

int stamp_walk(Walker& walker) {
    static const int kBase = 1'000;
    static constexpr int kStride = 2;
    static thread_local const int kLane = 3;
    std::vector<int> scratch{kBase, kStride, kLane};
    struct Local {
        static int half(int x) { return x / 2; }
    };
    return walker.walk() + twice(scratch.front()) + Local::half(scratch.back());
}

}  // namespace synpa::matching
