// The width-2 Step 3 (see matching.hpp): imperfect matching via the
// dummy-node reduction under partial load, hysteresis at full load.
//
// Padding to exactly 2*cores vertices makes every perfect matching of the
// padded graph a feasible core assignment: task–task edges are real pairs,
// task–dummy edges are tasks running alone, dummy–dummy edges are idle
// cores.  Minimality carries over because the padded edge weights *are* the
// assignment costs.
#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "matching/matching.hpp"

namespace synpa::matching {

bool every_task_runs_alone(const WeightMatrix& w, std::span<const double> solo,
                           std::size_t cores) {
    const std::size_t n = w.size();
    if (n > cores || solo.size() != n) return false;
    // lo and hi start at the dummy–dummy zeros: n <= cores leaves at least
    // two dummies whenever there is a pair to weigh.
    double lo = 0.0, hi = 0.0;
    for (const double s : solo) {
        lo = std::min(lo, s);
        hi = std::max(hi, s);
    }
    double min_excess = std::numeric_limits<double>::infinity();
    for (std::size_t u = 0; u < n; ++u)
        for (std::size_t v = u + 1; v < n; ++v) {
            const double pair = w.get(u, v);
            const double excess = pair - solo[u] - solo[v];
            if (!(excess > 0.0)) return false;  // pairing helps (or NaN)
            min_excess = std::min(min_excess, excess);
            lo = std::min(lo, pair);
            hi = std::max(hi, pair);
        }
    const double margin =
        static_cast<double>(cores + 1) * std::max(1.0, hi - lo) / kBlossomScale;
    return min_excess > margin;
}

PartialMatching min_weight_partial(const WeightMatrix& w, std::span<const double> solo,
                                   std::size_t cores, const Matcher& matcher) {
    const std::size_t n = w.size();
    if (solo.size() != n)
        throw std::invalid_argument("min_weight_partial: solo weights must cover every task");
    if (cores == 0) throw std::invalid_argument("min_weight_partial: no cores");
    if (n > 2 * cores)
        throw std::invalid_argument("min_weight_partial: more tasks than hardware contexts");

    PartialMatching out;
    if (every_task_runs_alone(w, solo, cores)) {
        for (std::size_t u = 0; u < n; ++u) {
            out.singles.push_back(static_cast<int>(u));
            out.total_weight += solo[u];
        }
        return out;
    }

    const std::size_t dummies = 2 * cores - n;
    if (dummies == 0) {
        const MatchingResult perfect = matcher.min_weight_perfect(w);
        out.pairs = perfect.pairs;
        out.total_weight = perfect.total_weight;
        return out;
    }

    WeightMatrix padded(n + dummies);
    for (std::size_t u = 0; u < n; ++u) {
        for (std::size_t v = u + 1; v < n; ++v) padded.set(u, v, w.get(u, v));
        for (std::size_t d = n; d < n + dummies; ++d) padded.set(u, d, solo[u]);
    }
    // dummy–dummy edges stay at the fill value 0 (an idle core costs nothing).

    const MatchingResult solved = matcher.min_weight_perfect(padded);
    for (auto [u, v] : solved.pairs) {
        const bool u_real = static_cast<std::size_t>(u) < n;
        const bool v_real = static_cast<std::size_t>(v) < n;
        if (u_real && v_real) {
            out.pairs.emplace_back(u, v);
            out.total_weight += w.get(static_cast<std::size_t>(u), static_cast<std::size_t>(v));
        } else if (u_real || v_real) {
            const int task = u_real ? u : v;
            out.singles.push_back(task);
            out.total_weight += solo[static_cast<std::size_t>(task)];
        }
        // dummy–dummy: an idle core, nothing to report.
    }
    std::sort(out.singles.begin(), out.singles.end());
    return out;
}

PartialMatching min_weight_pairs(const WeightMatrix& w, const SoloWeight& solo, std::size_t cores,
                                 const std::vector<std::pair<int, int>>& current,
                                 const Matcher& matcher, const Matcher& exact,
                                 double stability_bias, double keep_threshold) {
    const std::size_t n = w.size();
    if (n != 2 * cores) {
        std::vector<double> solo_weights(n);
        for (std::size_t i = 0; i < n; ++i) solo_weights[i] = solo(i);
        return min_weight_partial(w, solo_weights, cores, exact);
    }

    const bool have_current = current.size() * 2 == n && !current.empty();
    WeightMatrix biased = w;
    if (have_current && stability_bias > 0.0) {
        const double span = std::max(w.max_weight() - w.min_weight(), 1e-9);
        for (auto [u, v] : current) {
            const auto uu = static_cast<std::size_t>(u);
            const auto vv = static_cast<std::size_t>(v);
            biased.set(uu, vv, w.get(uu, vv) - stability_bias * span);
        }
    }

    PartialMatching out;
    out.pairs = matcher.min_weight_perfect(biased).pairs;
    out.total_weight = matching_weight(w, out.pairs);  // true weights
    if (have_current) {
        const double current_weight = matching_weight(w, current);
        if (out.total_weight >= current_weight - std::abs(current_weight) * keep_threshold) {
            out.pairs = current;
            out.total_weight = current_weight;
        }
    }
    return out;
}

}  // namespace synpa::matching
