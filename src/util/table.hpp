// ASCII table / CSV rendering for the experiment binaries. Every bench in
// bench/ prints its paper table through this class so the output format is
// uniform and machine-parsable (--csv).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace esched {

/// A simple row/column table builder. Cells are strings; numeric helpers
/// format with fixed precision. Rendering pads columns to their widest cell.
class Table {
 public:
  /// Creates a table with the given column headers. The first column is
  /// left-aligned and the rest right-aligned — the usual layout for
  /// "label | numbers..." experiment tables.
  explicit Table(std::vector<std::string> headers);

  /// Start a new row; subsequent cell() calls fill it left to right.
  void add_row();

  /// Append a string cell to the current row.
  void cell(std::string value);

  /// Append a fixed-precision numeric cell.
  void cell(double value, int precision = 2);

  /// Append an integer cell.
  void cell_int(long long value);

  /// Append a percentage cell rendered as "12.34%".
  void cell_percent(double value, int precision = 2);

  std::size_t row_count() const { return rows_.size(); }
  std::size_t column_count() const { return headers_.size(); }

  /// Render with box-drawing rules:  header, separator, rows.
  std::string render() const;

  /// Render as CSV (RFC-4180-ish quoting for commas/quotes/newlines).
  std::string render_csv() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace esched
