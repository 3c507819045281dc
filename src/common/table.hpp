// Plain-text table rendering for bench reports.  Every bench binary prints
// the paper's table or figure series through this formatter so outputs are
// aligned and diffable, plus an optional CSV dump for plotting.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace synpa::common {

/// A simple column-aligned text table.  Cells are strings; numeric helpers
/// format with fixed precision.  Rendering pads columns to their widest cell.
class Table {
public:
    explicit Table(std::vector<std::string> headers);

    /// Starts a new row; subsequent add() calls fill it left to right.
    Table& row();
    Table& add(std::string cell);
    Table& add(double value, int precision = 3);
    Table& add(long long value);
    Table& add_pct(double fraction, int precision = 1);  ///< 0.36 -> "36.0%"

    /// Renders with box-drawing separators to the stream.
    void print(std::ostream& os) const;

    /// Renders as CSV (no padding), one line per row including the header.
    std::string to_csv() const;

private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with fixed precision (helper shared with benches).
std::string format_double(double value, int precision);

/// Renders a 0..1 fraction as a fixed-width ASCII bar, e.g. "#####....."
/// Used by the figure benches to sketch the paper's stacked-bar charts.
std::string ascii_bar(double fraction, std::size_t width = 40, char fill = '#');

/// Renders a stacked three-segment bar (full-dispatch / frontend / backend)
/// using distinct glyphs; fractions are clamped and scaled to `width`.
std::string stacked_bar(double a, double b, double c, std::size_t width = 40);

}  // namespace synpa::common
