// The paper's per-category linear interference model (Equation 1):
//
//   C_smt(i,j) = alpha_C + beta_C * C_st(i) + gamma_C * C_st(j)
//              + rho_C * C_st(i) * C_st(j)
//
// Inputs are the target application's and the co-runner's isolated category
// values (fractions of isolated cycles, summing to 1 across categories).
// The output is the category's cycle cost in SMT *per isolated cycle of the
// same work*, so the three predicted categories sum to the slowdown the
// application suffers next to that co-runner (>= ~1).
#pragma once

#include <array>
#include <span>
#include <string>

#include "model/categories.hpp"

namespace synpa::model {

/// Coefficients of Equation 1 for one category.
struct CategoryCoefficients {
    double alpha = 0.0;
    double beta = 1.0;
    double gamma = 0.0;
    double rho = 0.0;

    double predict(double c_self, double c_corunner) const noexcept {
        return alpha + beta * c_self + gamma * c_corunner + rho * c_self * c_corunner;
    }
};

/// ST category fractions (sum to 1) or SMT per-isolated-cycle values.
using CategoryVector = std::array<double, kCategoryCount>;

class InterferenceModel {
public:
    InterferenceModel() = default;
    explicit InterferenceModel(std::array<CategoryCoefficients, kCategoryCount> coeffs)
        : coeffs_(coeffs) {}

    const CategoryCoefficients& coefficients(Category c) const noexcept {
        return coeffs_[static_cast<std::size_t>(c)];
    }
    CategoryCoefficients& coefficients(Category c) noexcept {
        return coeffs_[static_cast<std::size_t>(c)];
    }

    /// Predicts the SMT category values for application i co-running with j
    /// (both arguments are isolated fractions).
    CategoryVector predict(const CategoryVector& st_i, const CategoryVector& st_j) const noexcept;

    /// Predicted slowdown of i when paired with j: the sum of predicted
    /// SMT categories (per-isolated-cycle units).
    double predict_slowdown(const CategoryVector& st_i,
                            const CategoryVector& st_j) const noexcept;

    /// The coefficients the paper reports in Table IV (ThunderX2-trained).
    /// Useful as a reference point and for unit tests of model mechanics.
    static InterferenceModel paper_table4();

    std::string to_string() const;

private:
    std::array<CategoryCoefficients, kCategoryCount> coeffs_{};
};

/// Predicted combined badness of co-scheduling all `members` on one SMT
/// core: each member evaluated by Equation 1 against the superposed
/// category pressure of every other member, summed in member order from
/// 0.0.  Because Equation 1 is affine in the co-runner vector, this equals
/// the symmetrized pairwise sums minus (k - 2) solo terms; a 2-group
/// reduces to the usual both-directions pair weight and a singleton to the
/// "runs alone" term.  The one Equation-1 group path: SYNPA's estimator
/// (estimated vectors) and the Oracle (true vectors) both call it, so the
/// two predictors cannot diverge.
double predict_group_slowdown(const InterferenceModel& model,
                              std::span<const CategoryVector> members) noexcept;

/// The per-member addends of predict_group_slowdown, written into `out`
/// (out.size() must equal members.size()): member i evaluated by Equation 1
/// against the superposed category pressure of every other member (a
/// singleton scores its "runs alone" term).  The objective variants of the
/// follow-up family paper (throughput/STP, fairness, turnaround tail) are
/// nonlinear functions of these per-member slowdowns, so they need the
/// addends rather than the plain sum.
void predict_member_slowdowns(const InterferenceModel& model,
                              std::span<const CategoryVector> members,
                              std::span<double> out) noexcept;

}  // namespace synpa::model
