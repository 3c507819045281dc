#include "model/interference_model.hpp"

#include <sstream>

namespace synpa::model {

CategoryVector InterferenceModel::predict(const CategoryVector& st_i,
                                          const CategoryVector& st_j) const noexcept {
    CategoryVector out{};
    for (std::size_t c = 0; c < kCategoryCount; ++c)
        out[c] = coeffs_[c].predict(st_i[c], st_j[c]);
    return out;
}

double InterferenceModel::predict_slowdown(const CategoryVector& st_i,
                                           const CategoryVector& st_j) const noexcept {
    const CategoryVector p = predict(st_i, st_j);
    return p[0] + p[1] + p[2];
}

InterferenceModel InterferenceModel::paper_table4() {
    // Paper Table IV: coefficients trained on the ThunderX2.
    std::array<CategoryCoefficients, kCategoryCount> coeffs{};
    coeffs[static_cast<std::size_t>(Category::kFullDispatch)] =
        {.alpha = 0.0072, .beta = 0.9060, .gamma = 0.0044, .rho = 0.0314};
    coeffs[static_cast<std::size_t>(Category::kFrontendStall)] =
        {.alpha = 0.2376, .beta = 1.4111, .gamma = 0.0, .rho = 0.0};
    coeffs[static_cast<std::size_t>(Category::kBackendStall)] =
        {.alpha = 0.2069, .beta = 0.3431, .gamma = 1.4391, .rho = 0.0};
    return InterferenceModel(coeffs);
}

namespace {

/// Member i's predicted slowdown against the superposed category pressure
/// of every other member.
double member_slowdown(const InterferenceModel& model, std::span<const CategoryVector> members,
                       std::size_t i) noexcept {
    CategoryVector pressure{};
    for (std::size_t j = 0; j < members.size(); ++j) {
        if (j == i) continue;
        for (std::size_t c = 0; c < kCategoryCount; ++c) pressure[c] += members[j][c];
    }
    return model.predict_slowdown(members[i], pressure);
}

}  // namespace

double predict_group_slowdown(const InterferenceModel& model,
                              std::span<const CategoryVector> members) noexcept {
    double total = 0.0;
    for (std::size_t i = 0; i < members.size(); ++i) total += member_slowdown(model, members, i);
    return total;
}

void predict_member_slowdowns(const InterferenceModel& model,
                              std::span<const CategoryVector> members,
                              std::span<double> out) noexcept {
    for (std::size_t i = 0; i < members.size(); ++i) out[i] = member_slowdown(model, members, i);
}

std::string InterferenceModel::to_string() const {
    std::ostringstream os;
    os.setf(std::ios::fixed);
    os.precision(4);
    for (std::size_t c = 0; c < kCategoryCount; ++c) {
        const CategoryCoefficients& k = coeffs_[c];
        os << kCategoryNames[c] << ": alpha=" << k.alpha << " beta=" << k.beta
           << " gamma=" << k.gamma << " rho=" << k.rho << '\n';
    }
    return os.str();
}

}  // namespace synpa::model
