// Reproduces Table III: the grouping of the 28 applications into backend
// bound (backend stalls > 65%), frontend bound (frontend stalls > 35%) and
// Others, from their isolated dispatch-stage characterization.
#include <iostream>
#include <map>
#include <vector>

#include "bench_common.hpp"
#include "common/main_guard.hpp"
#include "common/table.hpp"
#include "workloads/groups.hpp"

namespace {

// The paper's Table III, for side-by-side comparison.
const std::map<std::string, const char*> kPaperGroups = {
    {"cactuBSSN_r", "backend-bound"}, {"lbm_r", "backend-bound"},
    {"mcf", "backend-bound"},         {"milc", "backend-bound"},
    {"xalancbmk_r", "backend-bound"}, {"wrf_r", "backend-bound"},
    {"astar", "frontend-bound"},      {"gobmk", "frontend-bound"},
    {"leela_r", "frontend-bound"},    {"mcf_r", "frontend-bound"},
    {"perlbench", "frontend-bound"},
};

const char* paper_group(const std::string& app) {
    const auto it = kPaperGroups.find(app);
    return it == kPaperGroups.end() ? "others" : it->second;
}

}  // namespace

int run_program() {
    using namespace synpa;
    bench::print_header("Table III",
                        "Benchmark grouping by backend/frontend dispatch-stall fraction");

    const uarch::SimConfig cfg = uarch::SimConfig::from_env();
    const auto chars =
        workloads::characterize_suite(cfg, bench::characterization_quanta(), 42);

    common::Table table({"application", "full-dispatch", "frontend", "backend", "group",
                         "paper group", "match"});
    int matches = 0;
    for (const auto& c : chars) {
        const char* expect = paper_group(c.name);
        const bool match = expect == std::string(workloads::group_name(c.group));
        matches += match;
        table.row()
            .add(c.name)
            .add_pct(c.fractions[0])
            .add_pct(c.fractions[1])
            .add_pct(c.fractions[2])
            .add(workloads::group_name(c.group))
            .add(expect)
            .add(match ? "yes" : "NO");
    }
    table.print(std::cout);
    std::cout << "group agreement with paper Table III: " << matches << "/" << chars.size()
              << "\n";
    return 0;
}

int main() { return synpa::common::guarded_main(run_program); }
