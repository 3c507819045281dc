// Pair selection as a matching problem (paper §IV-B, Step 3).
//
// SYNPA predicts, for every pair of applications, the combined slowdown the
// pair would suffer sharing an SMT core, then picks the partition of the 2N
// applications into N pairs minimizing total predicted slowdown.  That is a
// minimum-weight perfect matching on a complete graph, which the paper
// solves with Edmonds' Blossom algorithm [21].
//
// This module provides three interchangeable solvers:
//   * BlossomMatcher  — O(n^3) primal-dual Blossom (the paper's choice,
//     and SYNPA's runtime solver),
//   * SubsetDpMatcher — exact O(2^n * n) dynamic program (n <= 24; the
//     oracle policy's runtime solver),
//   * BruteForceMatcher — exhaustive enumeration (n <= 12, the tests'
//     reference).
// Property tests check they agree on random instances.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

namespace synpa::matching {

/// Symmetric dense weight matrix for an even number of vertices.
/// Weights may be any finite doubles (slowdowns, in SYNPA's use).
class WeightMatrix {
public:
    WeightMatrix() = default;
    explicit WeightMatrix(std::size_t n, double fill = 0.0) : n_(n), w_(n * n, fill) {}

    std::size_t size() const noexcept { return n_; }

    void set(std::size_t u, std::size_t v, double w) {
        check(u, v);
        w_[u * n_ + v] = w;
        w_[v * n_ + u] = w;
    }
    double get(std::size_t u, std::size_t v) const {
        check(u, v);
        return w_[u * n_ + v];
    }

    double min_weight() const noexcept;
    double max_weight() const noexcept;

private:
    void check(std::size_t u, std::size_t v) const {
        if (u >= n_ || v >= n_) throw std::out_of_range("WeightMatrix index");
    }
    std::size_t n_ = 0;
    std::vector<double> w_;
};

/// A perfect matching: `mate[v]` is v's partner; `pairs` lists each pair
/// once with u < v; `total_weight` sums the pair weights.
struct MatchingResult {
    std::vector<int> mate;
    std::vector<std::pair<int, int>> pairs;
    double total_weight = 0.0;
};

/// Interface shared by all matchers.  Implementations must accept any even
/// n >= 2 within their documented limits and be deterministic.
///
/// Odd-N contract: a perfect matching does not exist on an odd vertex count,
/// so every solver throws std::invalid_argument for odd (or zero) n — none
/// of them pads silently.  Callers with an odd task count (or more hardware
/// slots than tasks) must go through min_weight_pairs below, which pads
/// the instance with explicit dummy vertices and reports which vertices run
/// unmatched.
class Matcher {
public:
    virtual ~Matcher() = default;
    /// Finds the minimum-total-weight perfect matching.
    virtual MatchingResult min_weight_perfect(const WeightMatrix& w) const = 0;
};

/// Exhaustive enumeration over all (n-1)!! perfect matchings.  Reference
/// implementation for tests; practical to n ~ 12.
class BruteForceMatcher final : public Matcher {
public:
    MatchingResult min_weight_perfect(const WeightMatrix& w) const override;
};

/// Exact subset dynamic program over vertex bitmasks; O(2^n * n), n <= 24.
/// The oracle policy's runtime solver: its tie-breaks are part of that
/// policy's pinned results.
class SubsetDpMatcher final : public Matcher {
public:
    /// Largest vertex count the DP accepts (its tables hold 2^n entries).
    static constexpr std::size_t kMaxVertices = 24;
    MatchingResult min_weight_perfect(const WeightMatrix& w) const override;
};

/// BlossomMatcher's double -> integer weight scale: each weight, reflected
/// and divided by the instance's span max(1, hi - lo), is rounded to the
/// nearest multiple of 1/kBlossomScale.
inline constexpr double kBlossomScale = 1 << 20;

/// Edmonds' Blossom algorithm (primal-dual, dense O(n^3)); the general
/// solver the paper cites and SYNPA's runtime solver.  Weights are scaled
/// to integers internally (kBlossomScale steps per span), which is exact
/// for the slowdown magnitudes involved.
class BlossomMatcher final : public Matcher {
public:
    MatchingResult min_weight_perfect(const WeightMatrix& w) const override;
};

/// Recomputes the total weight of `pairs` under `w` (test/report helper).
double matching_weight(const WeightMatrix& w, const std::vector<std::pair<int, int>>& pairs);

/// The width-2 selection: some vertices are paired, the rest run alone.
/// `total_weight` sums the chosen pair weights plus the solo weights of
/// every single (true weights, never the hysteresis-biased ones).
struct PartialMatching {
    std::vector<std::pair<int, int>> pairs;
    std::vector<int> singles;
    double total_weight = 0.0;
};

/// Minimum-cost assignment of n tasks onto `cores` 2-way slots: each core
/// runs a pair (cost = w(u,v)), a single task (cost = solo[u]), or stays
/// idle (cost 0).  This is the open-system generalization of the paper's
/// Step 3: with fewer runnable threads than hardware contexts the allocator
/// must decide *which* threads run alone, trading a pair's predicted
/// combined slowdown against the two per-thread "runs alone" terms.
///
/// Solved exactly by padding the instance with 2*cores - n dummy vertices
/// (task–dummy edge = the task's solo weight, dummy–dummy edge = 0) and
/// handing the even-sized instance to `matcher` — the dummy-node reduction
/// of imperfect matching to perfect matching.  Requires n <= 2*cores and
/// solo.size() == n; throws std::invalid_argument otherwise.  n may be odd.
///
/// The reduction preserves optimality only for exact matchers: the idle
/// count is a function of the pair count (idle = cores - n + pairs), so the
/// 0-weight dummy–dummy edges cannot bias an optimal solver — but a greedy
/// heuristic grabs those lightest edges first and then force-pairs every
/// real task.  Pass BlossomMatcher or SubsetDpMatcher here.
///
/// When every_task_runs_alone holds, no matcher runs: the answer is every
/// task single, no pairs, and total_weight sums the solos in ascending
/// index order, the order in which the padded solve lists its task–dummy
/// edges.  That is bit for bit what an exact matcher returns: see below.
PartialMatching min_weight_partial(const WeightMatrix& w, std::span<const double> solo,
                                   std::size_t cores, const Matcher& matcher);

/// The guard of min_weight_partial's shortcut.  True when n <= cores and
/// every pair's excess w(u,v) - solo[u] - solo[v] exceeds the margin
/// (cores + 1) * max(1, hi - lo) / kBlossomScale, where lo and hi bound the
/// padded instance's weights: the pairs, the solos and the idle cores'
/// zeros.  False when solo.size() != n.
///
/// Why it is exact: with n <= cores every task can run alone, and every
/// perfect matching of the padded graph has `cores` edges.  Blossom rounds
/// each edge to within half a scaled step, so a matching holding a real
/// pair scores at least (its excess) * kBlossomScale / span - cores steps
/// below an all-alone matching, which the margin makes positive.  Blossom,
/// like any exact solver, therefore returns an all-alone matching, and all
/// of them give the same PartialMatching.
bool every_task_runs_alone(const WeightMatrix& w, std::span<const double> solo,
                           std::size_t cores);

/// Default hysteresis of min_weight_pairs, shared by SYNPA and the oracle.
inline constexpr double kDefaultStabilityBias = 0.002;
inline constexpr double kDefaultKeepThreshold = 0.001;

/// Solo weight of one vertex, read on demand.
using SoloWeight = std::function<double(std::size_t)>;

/// The width-2 Step 3 for n tasks on `cores` cores, the one entry both
/// informed policies call.
///
/// Full load (n == 2*cores): a perfect matching with hysteresis against
/// churn.  Prediction noise makes many matchings near-ties, and oscillating
/// between equivalent solutions costs real migrations, so the incumbent
/// pairs `current` (index space) are discounted by `stability_bias` of the
/// weight span before `matcher` solves, and the incumbent is kept outright
/// unless the solution improves the true total weight by more than
/// `keep_threshold` (relative).  `current` counts only when it pairs every
/// vertex; `solo` is never read.
///
/// Partial load (n < 2*cores): min_weight_partial with the `exact` matcher,
/// which must be exact (see above); `solo` is read once per vertex, in
/// index order, and `current` is ignored — arrivals and departures churn
/// the index space anyway, and placement still pins survivors.
///
/// Pairs come in solver order, singles ascending.
PartialMatching min_weight_pairs(const WeightMatrix& w, const SoloWeight& solo, std::size_t cores,
                                 const std::vector<std::pair<int, int>>& current,
                                 const Matcher& matcher, const Matcher& exact,
                                 double stability_bias, double keep_threshold);

// ------------------------------------------------- k-way core grouping --

/// A width-generic core assignment: every task index 0..n-1 appears in
/// exactly one group, each group holds 1..width members, and at most
/// `cores` groups exist (idle cores cost nothing and are not listed).
/// Groups keep their members ascending and are ordered by first member.
struct GroupingResult {
    std::vector<std::vector<int>> groups;
    double total_weight = 0.0;
};

/// Cost oracle for one candidate group (ascending member indices,
/// 1 <= size <= width).  Must be deterministic and finite.
using GroupCost = std::function<double(std::span<const int>)>;

/// Partitions n tasks into core groups of at most `width` members over at
/// most `cores` cores, minimizing the summed group cost — the SMT-width-
/// generic Step 3.  Width 2 is the classical imperfect matching (the
/// informed policies solve it with min_weight_pairs); width >= 3 is
/// NP-hard (3-dimensional matching), so:
///   * n <= kExactGroupingLimit runs an exact subset dynamic program over
///     vertex bitmasks with a group-count cap, and
///   * larger n runs a deterministic greedy seeding (each task joins the
///     group with the cheapest incremental cost) refined by local-search
///     moves and swaps to a local optimum.
/// Requires n <= cores * width; throws std::invalid_argument otherwise.
GroupingResult min_weight_grouping(std::size_t n, std::size_t cores, std::size_t width,
                                   const GroupCost& cost);

/// Largest n solved exactly by min_weight_grouping's subset DP.
inline constexpr std::size_t kExactGroupingLimit = 12;

/// The greedy-seed + local-search heuristic min_weight_grouping switches to
/// beyond kExactGroupingLimit, callable at any n.  Exposed so tests can
/// measure the heuristic's quality against the exact DP right at the
/// switchover boundary (the regime a scheduler actually crosses when the
/// live set grows from 12 to 13 tasks).
GroupingResult min_weight_grouping_heuristic(std::size_t n, std::size_t cores,
                                             std::size_t width, const GroupCost& cost);

/// Recomputes the total weight of `groups` under `cost` (test/report helper).
double grouping_weight(const std::vector<std::vector<int>>& groups, const GroupCost& cost);

}  // namespace synpa::matching
