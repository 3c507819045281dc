#include "model/inversion.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>
#include <string>

#include "linalg/matrix.hpp"

namespace synpa::model {
namespace {

/// Clamps to [0, 1.5] and renormalizes to the unit simplex.
void project_to_simplex(CategoryVector& v) noexcept {
    double sum = 0.0;
    for (double& x : v) {
        x = std::clamp(x, 0.0, 1.5);
        sum += x;
    }
    if (sum <= 1e-9) {
        v = {1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0};
        return;
    }
    for (double& x : v) x /= sum;
}

double implied_slowdown(const InterferenceModel& m, const CategoryVector& a,
                        const CategoryVector& b) noexcept {
    return std::clamp(m.predict_slowdown(a, b), 1.0, 4.0);
}

using Coefficients = std::array<CategoryCoefficients, kCategoryCount>;

/// Equation 1's terms at an iterate (6 unknowns: st_i then st_j):
/// pi[C] = model_C(st_i, st_j) and pj[C] = model_C(st_j, st_i), evaluated
/// inline with InterferenceModel::predict's operations.  Category C's two
/// terms read only x[C] and x[3 + C].
struct Terms {
    CategoryVector pi{}, pj{};
};

void set_terms(Terms& t, const Coefficients& k, const std::array<double, 6>& x,
               std::size_t c) noexcept {
    t.pi[c] = k[c].predict(x[c], x[3 + c]);
    t.pj[c] = k[c].predict(x[3 + c], x[c]);
}

/// The inversion residual system at iterate `x` with terms `t`.
///
/// With S_i = sum_C model_C(st_i, st_j), consistency demands
/// model_C(st_i, st_j) = S_i * f_i[C]; two of those three equations are
/// independent (they sum to an identity), and the simplex constraint closes
/// the system — and symmetrically for j.
std::array<double, 6> residual(const Terms& t, const std::array<double, 6>& x,
                               const CategoryVector& fi, const CategoryVector& fj) noexcept {
    const CategoryVector& pi = t.pi;
    const CategoryVector& pj = t.pj;
    const double total_i = pi[0] + pi[1] + pi[2];
    const double total_j = pj[0] + pj[1] + pj[2];
    return {pi[0] - fi[0] * total_i,
            pi[1] - fi[1] * total_i,
            x[0] + x[1] + x[2] - 1.0,
            pj[0] - fj[0] * total_j,
            pj[1] - fj[1] * total_j,
            x[3] + x[4] + x[5] - 1.0};
}

double max_abs(const std::array<double, 6>& v) noexcept {
    double m = 0.0;
    for (double x : v) m = std::max(m, std::abs(x));
    return m;
}

/// The stall exit (inversion.hpp): a residual at or above
/// max(kStallFloor, kStallTolerances * tolerance) that has not fallen by
/// kStallDrop over kStallWindow iterations ends the iteration unconverged.
constexpr double kStallFloor = 1e-4;
constexpr double kStallTolerances = 1000.0;
constexpr double kStallDrop = 0.01;
constexpr int kStallWindow = 5;

}  // namespace

const ModelInverter::Options& ModelInverter::Options::validate() const {
    if (max_iterations < 1)
        throw std::invalid_argument(
            "ModelInverter::Options::max_iterations must be >= 1, got " +
            std::to_string(max_iterations));
    if (!(std::isfinite(tolerance) && tolerance > 0.0))
        throw std::invalid_argument(
            "ModelInverter::Options::tolerance must be finite and > 0, got " +
            std::to_string(tolerance));
    if (!(damping > 0.0 && damping <= 1.0))
        throw std::invalid_argument("ModelInverter::Options::damping must be in (0, 1], got " +
                                    std::to_string(damping));
    return *this;
}

InversionResult ModelInverter::invert(const CategoryVector& smt_i,
                                      const CategoryVector& smt_j) const {
    CategoryVector fi = smt_i;
    CategoryVector fj = smt_j;
    project_to_simplex(fi);
    project_to_simplex(fj);

    Coefficients k{};
    for (std::size_t c = 0; c < kCategoryCount; ++c)
        k[c] = model_.coefficients(static_cast<Category>(c));

    // Damped Newton on the joint residual system, with a finite-difference
    // Jacobian (the system is tiny; robustness beats analytic elegance).
    std::array<double, 6> x = {fi[0], fi[1], fi[2], fj[0], fj[1], fj[2]};
    InversionResult r;
    bool solved = false;
    const double stall_floor = std::max(kStallFloor, kStallTolerances * opts_.tolerance);
    std::array<double, kStallWindow> recent{};  // residual norm of iteration it - kStallWindow
    for (int it = 0; it < opts_.max_iterations; ++it) {
        Terms base;
        for (std::size_t c = 0; c < kCategoryCount; ++c) set_terms(base, k, x, c);
        const std::array<double, 6> f = residual(base, x, fi, fj);
        r.iterations = it;
        const double norm_f = max_abs(f);
        if (norm_f < opts_.tolerance) {
            solved = true;
            break;
        }
        double& window_start = recent[static_cast<std::size_t>(it % kStallWindow)];
        if (it > kStallWindow && norm_f >= stall_floor &&
            norm_f > (1.0 - kStallDrop) * window_start)
            break;  // stalled: fall back below
        window_start = norm_f;

        std::array<double, 36> jac;  // row-major
        const double h = 1e-7;
        for (std::size_t col = 0; col < 6; ++col) {
            // Moving x[col] changes only category col % 3's two terms.
            std::array<double, 6> xh = x;
            xh[col] += h;
            Terms th = base;
            set_terms(th, k, xh, col % 3);
            const std::array<double, 6> fh = residual(th, xh, fi, fj);
            for (std::size_t row = 0; row < 6; ++row)
                jac[row * 6 + col] = (fh[row] - f[row]) / h;
        }

        std::array<double, 6> rhs;
        for (std::size_t i = 0; i < 6; ++i) rhs[i] = -f[i];
        std::array<double, 6> step;
        if (!linalg::solve_gaussian_fixed<6>(jac, rhs, step))
            break;  // singular Jacobian: give up, fall back below

        // Trust region: cap the step and damp toward the current iterate.
        double norm = 0.0;
        for (double s : step) norm = std::max(norm, std::abs(s));
        const double scale = norm > 0.5 ? 0.5 / norm : 1.0;
        for (std::size_t i = 0; i < 6; ++i)
            x[i] = std::clamp(x[i] + opts_.damping * scale * step[i], 0.0, 1.5);
    }

    if (solved) {
        r.st_i = {x[0], x[1], x[2]};
        r.st_j = {x[3], x[4], x[5]};
        project_to_simplex(r.st_i);
        project_to_simplex(r.st_j);
        r.converged = true;
    } else {
        // Graceful fallback: the raw SMT fractions are a usable if biased
        // stand-in for the isolated fractions.
        r.st_i = fi;
        r.st_j = fj;
        r.converged = false;
    }
    r.slowdown_i = implied_slowdown(model_, r.st_i, r.st_j);
    r.slowdown_j = implied_slowdown(model_, r.st_j, r.st_i);
    return r;
}

}  // namespace synpa::model
