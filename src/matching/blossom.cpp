// Edmonds' Blossom algorithm for maximum-weight matching on dense general
// graphs, primal-dual formulation, O(n^3).
//
// The implementation follows the classical dense multiple-tree variant
// (Galil's exposition): grow alternating forests from free vertices, shrink
// odd cycles (blossoms) into super-vertices, expand blossoms whose dual hits
// zero, and adjust duals by the minimum slack when the forest is stuck.
// Weights are doubled internally so vertex duals stay integral.
//
// The public entry points convert double weights to integers with a fixed
// scale (kBlossomScale, exact for SYNPA's slowdown range) and reduce
// min-weight perfect matching to max-weight matching via weight reflection:
// with w'(u,v) = BIG - w(u,v) and BIG large enough, every maximum-weight
// matching is perfect (complete graph, even n) and minimizes the original
// total.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <limits>
#include <stdexcept>
#include <vector>

#include "matching/matching.hpp"

namespace synpa::matching {
namespace {

using i64 = std::int64_t;

/// Dense maximum-weight matching on vertices 1..n with integer weights.
/// Weight 0 means "no edge".  Vertices above n are contracted blossoms.
class DenseBlossom {
public:
    explicit DenseBlossom(int n) : n_(n), n_x_(n), cap_(2 * n + 1) {
        g_.resize(static_cast<std::size_t>(cap_) * cap_);
        for (int u = 0; u < cap_; ++u)
            for (int v = 0; v < cap_; ++v) g(u, v) = Edge{u, v, 0};
        lab_.assign(cap_, 0);
        match_.assign(cap_, 0);
        slack_.assign(cap_, 0);
        st_.assign(cap_, 0);
        pa_.assign(cap_, 0);
        S_.assign(cap_, -1);
        vis_.assign(cap_, 0);
        flower_.assign(cap_, {});
        flower_from_.assign(static_cast<std::size_t>(cap_) * (n_ + 1), 0);
    }

    void set_weight(int u, int v, i64 w) {
        g(u, v).w = w;
        g(v, u).w = w;
    }

    /// Runs the algorithm; afterwards mate(u) is u's partner or 0.
    void solve() {
        for (int u = 0; u <= n_; ++u) {
            st_[u] = u;
            flower_[u].clear();
        }
        i64 w_max = 0;
        for (int u = 1; u <= n_; ++u)
            for (int v = 1; v <= n_; ++v) {
                flower_from(u, v) = (u == v ? u : 0);
                w_max = std::max(w_max, g(u, v).w);
            }
        for (int u = 1; u <= n_; ++u) lab_[u] = w_max;
        while (grow_and_augment()) {
        }
    }

    int mate(int u) const { return match_[u]; }

private:
    struct Edge {
        int u = 0, v = 0;
        i64 w = 0;
    };

    /// Reduced cost of an edge: zero means "tight", usable by the forest.
    i64 edge_slack(const Edge& e) const { return lab_[e.u] + lab_[e.v] - g(e.u, e.v).w * 2; }

    void update_slack(int u, int x) {
        if (slack_[x] == 0 || edge_slack(g(u, x)) < edge_slack(g(slack_[x], x))) slack_[x] = u;
    }

    void set_slack(int x) {
        slack_[x] = 0;
        for (int u = 1; u <= n_; ++u)
            if (g(u, x).w > 0 && st_[u] != x && S_[st_[u]] == 0) update_slack(u, x);
    }

    void queue_push(int x) {
        if (x <= n_) {
            queue_.push_back(x);
            return;
        }
        for (int sub : flower_[x]) queue_push(sub);
    }

    void set_st(int x, int b) {
        st_[x] = b;
        if (x > n_)
            for (int sub : flower_[x]) set_st(sub, b);
    }

    /// Index of sub-blossom xr inside b, rotating so the path parity works.
    int get_pr(int b, int xr) {
        auto it = std::find(flower_[b].begin(), flower_[b].end(), xr);
        int pr = static_cast<int>(it - flower_[b].begin());
        if (pr % 2 == 1) {
            std::reverse(flower_[b].begin() + 1, flower_[b].end());
            return static_cast<int>(flower_[b].size()) - pr;
        }
        return pr;
    }

    void set_match(int u, int v) {
        match_[u] = g(u, v).v;
        if (u <= n_) return;
        const Edge& e = g(u, v);
        const int xr = flower_from(u, e.u);
        const int pr = get_pr(u, xr);
        for (int i = 0; i < pr; ++i) set_match(flower_[u][i], flower_[u][i ^ 1]);
        set_match(xr, v);
        std::rotate(flower_[u].begin(), flower_[u].begin() + pr, flower_[u].end());
    }

    void augment(int u, int v) {
        for (;;) {
            const int xnv = st_[match_[u]];
            set_match(u, v);
            if (xnv == 0) return;
            set_match(xnv, st_[pa_[xnv]]);
            u = st_[pa_[xnv]];
            v = xnv;
        }
    }

    int get_lca(int u, int v) {
        const int t = ++lca_stamp_;
        for (; u != 0 || v != 0; std::swap(u, v)) {
            if (u == 0) continue;
            if (vis_[u] == t) return u;
            vis_[u] = t;
            u = st_[match_[u]];
            if (u != 0) u = st_[pa_[u]];
        }
        return 0;
    }

    void add_blossom(int u, int lca, int v) {
        int b = n_ + 1;
        while (b <= n_x_ && st_[b] != 0) ++b;
        if (b > n_x_) ++n_x_;
        lab_[b] = 0;
        S_[b] = 0;
        match_[b] = match_[lca];
        flower_[b].clear();
        flower_[b].push_back(lca);
        for (int x = u, y; x != lca; x = st_[pa_[y]]) {
            flower_[b].push_back(x);
            y = st_[match_[x]];
            flower_[b].push_back(y);
            queue_push(y);
        }
        std::reverse(flower_[b].begin() + 1, flower_[b].end());
        for (int x = v, y; x != lca; x = st_[pa_[y]]) {
            flower_[b].push_back(x);
            y = st_[match_[x]];
            flower_[b].push_back(y);
            queue_push(y);
        }
        set_st(b, b);
        for (int x = 1; x <= n_x_; ++x) g(b, x).w = g(x, b).w = 0;
        for (int x = 1; x <= n_; ++x) flower_from(b, x) = 0;
        for (int xs : flower_[b]) {
            for (int x = 1; x <= n_x_; ++x)
                if (g(b, x).w == 0 || edge_slack(g(xs, x)) < edge_slack(g(b, x))) {
                    g(b, x) = g(xs, x);
                    g(x, b) = g(x, xs);
                }
            for (int x = 1; x <= n_; ++x)
                if (flower_from(xs, x) != 0) flower_from(b, x) = xs;
        }
        set_slack(b);
    }

    void expand_blossom(int b) {
        for (int sub : flower_[b]) set_st(sub, sub);
        const int xr = flower_from(b, g(b, pa_[b]).u);
        const int pr = get_pr(b, xr);
        for (int i = 0; i < pr; i += 2) {
            const int xs = flower_[b][i];
            const int xns = flower_[b][i + 1];
            pa_[xs] = g(xns, xs).u;
            S_[xs] = 1;
            S_[xns] = 0;
            slack_[xs] = 0;
            set_slack(xns);
            queue_push(xns);
        }
        S_[xr] = 1;
        pa_[xr] = pa_[b];
        for (std::size_t i = static_cast<std::size_t>(pr) + 1; i < flower_[b].size(); ++i) {
            const int xs = flower_[b][i];
            S_[xs] = -1;
            set_slack(xs);
        }
        st_[b] = 0;
    }

    bool on_found_edge(const Edge& e) {
        const int u = st_[e.u];
        const int v = st_[e.v];
        if (S_[v] == -1) {
            pa_[v] = e.u;
            S_[v] = 1;
            const int nu = st_[match_[v]];
            slack_[v] = slack_[nu] = 0;
            S_[nu] = 0;
            queue_push(nu);
        } else if (S_[v] == 0) {
            const int lca = get_lca(u, v);
            if (lca == 0) {
                augment(u, v);
                augment(v, u);
                return true;
            }
            add_blossom(u, lca, v);
        }
        return false;
    }

    /// One phase: grows the forest until an augmenting path is found
    /// (returns true) or no further progress is possible (returns false).
    bool grow_and_augment() {
        std::fill(S_.begin(), S_.begin() + n_x_ + 1, -1);
        std::fill(slack_.begin(), slack_.begin() + n_x_ + 1, 0);
        queue_.clear();
        for (int x = 1; x <= n_x_; ++x)
            if (st_[x] == x && match_[x] == 0) {
                pa_[x] = 0;
                S_[x] = 0;
                queue_push(x);
            }
        if (queue_.empty()) return false;

        for (;;) {
            while (!queue_.empty()) {
                const int u = queue_.front();
                queue_.pop_front();
                if (S_[st_[u]] == 1) continue;
                for (int v = 1; v <= n_; ++v)
                    if (g(u, v).w > 0 && st_[u] != st_[v]) {
                        if (edge_slack(g(u, v)) == 0) {
                            if (on_found_edge(g(u, v))) return true;
                        } else {
                            update_slack(u, st_[v]);
                        }
                    }
            }

            // Dual adjustment: smallest slack over the reachable structure.
            i64 d = std::numeric_limits<i64>::max();
            for (int b = n_ + 1; b <= n_x_; ++b)
                if (st_[b] == b && S_[b] == 1) d = std::min(d, lab_[b] / 2);
            for (int x = 1; x <= n_x_; ++x)
                if (st_[x] == x && slack_[x] != 0) {
                    if (S_[x] == -1)
                        d = std::min(d, edge_slack(g(slack_[x], x)));
                    else if (S_[x] == 0)
                        d = std::min(d, edge_slack(g(slack_[x], x)) / 2);
                }
            for (int u = 1; u <= n_; ++u) {
                if (S_[st_[u]] == 0) {
                    if (lab_[u] <= d) return false;  // free-vertex dual hit zero
                    lab_[u] -= d;
                } else if (S_[st_[u]] == 1) {
                    lab_[u] += d;
                }
            }
            for (int b = n_ + 1; b <= n_x_; ++b)
                if (st_[b] == b) {
                    if (S_[b] == 0)
                        lab_[b] += d * 2;
                    else if (S_[b] == 1)
                        lab_[b] -= d * 2;
                }

            queue_.clear();
            for (int x = 1; x <= n_x_; ++x)
                if (st_[x] == x && slack_[x] != 0 && st_[slack_[x]] != x &&
                    edge_slack(g(slack_[x], x)) == 0)
                    if (on_found_edge(g(slack_[x], x))) return true;
            for (int b = n_ + 1; b <= n_x_; ++b)
                if (st_[b] == b && S_[b] == 1 && lab_[b] == 0) expand_blossom(b);
        }
    }

    Edge& g(int u, int v) { return g_[static_cast<std::size_t>(u) * cap_ + v]; }
    const Edge& g(int u, int v) const { return g_[static_cast<std::size_t>(u) * cap_ + v]; }
    /// The sub-blossom of blossom b that holds original vertex x, or 0.
    int& flower_from(int b, int x) {
        return flower_from_[static_cast<std::size_t>(b) * (n_ + 1) + x];
    }

    int n_;
    int n_x_;  ///< Highest vertex id in use (originals + live blossoms).
    int cap_;  ///< Vertex ids 0..cap_-1: n originals, up to n blossoms, and 0.
    std::vector<Edge> g_;  ///< cap_ x cap_ edges, row-major (g(u, v))
    std::vector<i64> lab_;  ///< Dual variables (doubled weights convention).
    std::vector<int> match_, slack_, st_, pa_, S_, vis_;
    int lca_stamp_ = 0;  ///< get_lca walk counter; vis_ holds each vertex's last walk
    std::vector<std::vector<int>> flower_;
    std::vector<int> flower_from_;  ///< cap_ x (n_ + 1), row-major (flower_from(b, x))
    std::deque<int> queue_;
};

/// Solves a perfect matching via weight reflection (see file comment).
MatchingResult solve_perfect(const WeightMatrix& w) {
    const std::size_t n = w.size();
    if (n == 0 || n % 2 != 0)
        throw std::invalid_argument("BlossomMatcher: vertex count must be even and > 0");

    const double lo = w.min_weight();
    const double hi = w.max_weight();
    const double span = std::max(1.0, hi - lo);

    DenseBlossom solver(static_cast<int>(n));
    for (std::size_t u = 0; u < n; ++u)
        for (std::size_t v = u + 1; v < n; ++v) {
            // Reflect into a positive range for the max-search, leaving
            // headroom so every edge weight is >= 1 (0 would mean no edge).
            const double reflected = hi - w.get(u, v);
            const auto scaled =
                static_cast<i64>(std::llround(reflected / span * kBlossomScale)) + 1;
            solver.set_weight(static_cast<int>(u) + 1, static_cast<int>(v) + 1, scaled);
        }
    solver.solve();

    MatchingResult out;
    out.mate.assign(n, -1);
    for (std::size_t u = 0; u < n; ++u) {
        const int m = solver.mate(static_cast<int>(u) + 1);
        if (m == 0) throw std::runtime_error("BlossomMatcher: matching not perfect");
        out.mate[u] = m - 1;
    }
    for (std::size_t u = 0; u < n; ++u)
        if (out.mate[u] > static_cast<int>(u))
            out.pairs.emplace_back(static_cast<int>(u), out.mate[u]);
    out.total_weight = matching_weight(w, out.pairs);
    return out;
}

}  // namespace

MatchingResult BlossomMatcher::min_weight_perfect(const WeightMatrix& w) const {
    return solve_perfect(w);
}

}  // namespace synpa::matching
