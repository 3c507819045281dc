// Model inversion (paper §IV-B Step 1, leveraging Feliu et al. [4]).
//
// At runtime only SMT counters exist: for the pair (i, j) sharing a core we
// observe each task's per-cycle category *fractions* f_i, f_j (each sums to
// 1 over its own SMT cycles).  The forward model, however, consumes
// *isolated* fractions.  Inversion recovers them:
//
// Unknowns: isolated fractions st_i, st_j (sum to 1 each) and slowdowns
// s_i, s_j.  The model ties them together: for every category C,
//     model_C(st_i, st_j) = s_i * f_i[C]        (and symmetrically for j)
// because the SMT category value per isolated cycle equals the SMT fraction
// scaled by the slowdown.  Summing over C gives s = sum_C model_C.
//
// invert() solves the six unknowns st_i, st_j jointly by a damped Newton
// iteration.  The residual has six rows: two of the three consistency
// equations per task (the third follows from them) and each task's simplex
// constraint.  Each step builds a forward-difference Jacobian (step 1e-7;
// moving one unknown re-evaluates only its category's two Equation-1
// terms and reuses the iterate's other four), solves it by Gaussian elimination with partial pivoting, caps the step at
// 0.5 in max norm, damps it by `damping` and clamps the iterate to
// [0, 1.5].  The iteration stops when every residual is below `tolerance`,
// after `max_iterations` steps, at a singular Jacobian, or once it has
// stalled; only the first counts as converged.  A stall is a max-norm
// residual still at or above max(1e-4, 1000 * tolerance) that has not
// fallen by 1% over the last 5 iterations (checked from iteration 6 on):
// such an iterate has settled on the box's edge (typically one isolated
// fraction clamped at 0) and would spend the remaining steps there before
// falling back anyway.  A converged estimate is projected onto the simplex
// and the slowdowns are the model's predictions there; an unconverged one
// is always the projected raw fractions, whichever way the iteration ended.
#pragma once

#include "model/interference_model.hpp"

namespace synpa::model {

struct InversionResult {
    CategoryVector st_i{};  ///< estimated isolated fractions of task i
    CategoryVector st_j{};
    double slowdown_i = 1.0;  ///< implied slowdowns at the solution
    double slowdown_j = 1.0;
    bool converged = false;
    /// Index of the iteration at which the loop stopped: the Newton steps
    /// taken before convergence, a singular Jacobian or a stall, and
    /// max_iterations - 1 when it ran out.
    int iterations = 0;
};

class ModelInverter {
public:
    struct Options {
        int max_iterations = 60;
        double tolerance = 1e-7;
        double damping = 0.7;  ///< new = damping*solved + (1-damping)*old

        /// Throws std::invalid_argument naming the field unless
        /// max_iterations >= 1, tolerance is finite and > 0, and damping is
        /// in (0, 1]; returns *this for constructor initializer lists.
        const Options& validate() const;
    };

    /// The model is copied (it is a dozen doubles): an inverter constructed
    /// from a temporary stays valid, which ASan caught the pointer-keeping
    /// original getting wrong.
    explicit ModelInverter(const InterferenceModel& model)
        : ModelInverter(model, Options()) {}
    ModelInverter(const InterferenceModel& model, Options opts)
        : model_(model), opts_(opts.validate()) {}

    /// Inverts the model for one co-running pair.  `smt_i` / `smt_j` are the
    /// observed per-cycle SMT fractions (each summing to ~1).  On
    /// non-convergence the raw SMT fractions are returned as the estimate
    /// (graceful degradation, flagged via `converged == false`).
    InversionResult invert(const CategoryVector& smt_i, const CategoryVector& smt_j) const;

private:
    InterferenceModel model_;
    Options opts_;
};

}  // namespace synpa::model
