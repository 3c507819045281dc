#include <algorithm>
#include <limits>
#include <stdexcept>

#include "matching/matching.hpp"

namespace synpa::matching {

double WeightMatrix::min_weight() const noexcept {
    double m = std::numeric_limits<double>::infinity();
    for (std::size_t u = 0; u < n_; ++u)
        for (std::size_t v = u + 1; v < n_; ++v) m = std::min(m, w_[u * n_ + v]);
    return n_ < 2 ? 0.0 : m;
}

double WeightMatrix::max_weight() const noexcept {
    double m = -std::numeric_limits<double>::infinity();
    for (std::size_t u = 0; u < n_; ++u)
        for (std::size_t v = u + 1; v < n_; ++v) m = std::max(m, w_[u * n_ + v]);
    return n_ < 2 ? 0.0 : m;
}

double matching_weight(const WeightMatrix& w, const std::vector<std::pair<int, int>>& pairs) {
    double total = 0.0;
    for (auto [u, v] : pairs) total += w.get(static_cast<std::size_t>(u), static_cast<std::size_t>(v));
    return total;
}

namespace {

void check_even(const WeightMatrix& w, std::size_t limit, const char* who) {
    if (w.size() == 0 || w.size() % 2 != 0)
        throw std::invalid_argument(std::string(who) + ": vertex count must be even and > 0");
    if (w.size() > limit)
        throw std::invalid_argument(std::string(who) + ": instance too large");
}

/// Recursively pairs the lowest unmatched vertex with every candidate.
void recurse(const WeightMatrix& w, std::vector<bool>& used, std::vector<int>& mate,
             double acc, double& best, std::vector<int>& best_mate) {
    std::size_t u = 0;
    while (u < used.size() && used[u]) ++u;
    if (u == used.size()) {
        if (acc < best) {
            best = acc;
            best_mate = mate;
        }
        return;
    }
    used[u] = true;
    for (std::size_t v = u + 1; v < used.size(); ++v) {
        if (used[v]) continue;
        used[v] = true;
        mate[u] = static_cast<int>(v);
        mate[v] = static_cast<int>(u);
        recurse(w, used, mate, acc + w.get(u, v), best, best_mate);
        used[v] = false;
    }
    used[u] = false;
}

MatchingResult solve(const WeightMatrix& w) {
    check_even(w, 12, "BruteForceMatcher");
    std::vector<bool> used(w.size(), false);
    std::vector<int> mate(w.size(), -1), best_mate(w.size(), -1);
    double best = std::numeric_limits<double>::infinity();
    recurse(w, used, mate, 0.0, best, best_mate);

    MatchingResult out;
    out.mate = std::move(best_mate);
    for (std::size_t u = 0; u < w.size(); ++u)
        if (out.mate[u] > static_cast<int>(u))
            out.pairs.emplace_back(static_cast<int>(u), out.mate[u]);
    out.total_weight = matching_weight(w, out.pairs);
    return out;
}

}  // namespace

MatchingResult BruteForceMatcher::min_weight_perfect(const WeightMatrix& w) const {
    return solve(w);
}

}  // namespace synpa::matching
