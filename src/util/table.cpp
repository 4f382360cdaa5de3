#include "util/table.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "util/error.hpp"

namespace esched {

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  ESCHED_REQUIRE(!headers_.empty(), "Table needs at least one column");
}

void Table::add_row() { rows_.emplace_back(); }

void Table::cell(std::string value) {
  ESCHED_REQUIRE(!rows_.empty(), "Table::cell before add_row");
  ESCHED_REQUIRE(rows_.back().size() < headers_.size(),
                 "Table row has too many cells");
  rows_.back().push_back(std::move(value));
}

void Table::cell(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, value);
  cell(std::string(buf));
}

void Table::cell_int(long long value) {
  cell(std::to_string(value));
}

void Table::cell_percent(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f%%", precision, value);
  cell(std::string(buf));
}

std::string Table::render() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c)
    widths[c] = headers_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      widths[c] = std::max(widths[c], row[c].size());

  auto pad = [&](const std::string& s, std::size_t c) {
    const std::size_t fill = widths[c] - s.size();
    return c == 0 ? s + std::string(fill, ' ') : std::string(fill, ' ') + s;
  };

  std::ostringstream os;
  auto rule = [&] {
    os << '+';
    for (const auto w : widths) os << std::string(w + 2, '-') << '+';
    os << '\n';
  };
  rule();
  os << '|';
  for (std::size_t c = 0; c < headers_.size(); ++c)
    os << ' ' << pad(headers_[c], c) << " |";
  os << '\n';
  rule();
  for (const auto& row : rows_) {
    os << '|';
    for (std::size_t c = 0; c < headers_.size(); ++c)
      os << ' ' << pad(c < row.size() ? row[c] : std::string(), c) << " |";
    os << '\n';
  }
  rule();
  return os.str();
}

namespace {
std::string csv_escape(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"') out += "\"\"";
    else out += ch;
  }
  out += '"';
  return out;
}
}  // namespace

std::string Table::render_csv() const {
  std::ostringstream os;
  for (std::size_t c = 0; c < headers_.size(); ++c)
    os << (c ? "," : "") << csv_escape(headers_[c]);
  os << '\n';
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < headers_.size(); ++c)
      os << (c ? "," : "")
         << csv_escape(c < row.size() ? row[c] : std::string());
    os << '\n';
  }
  return os.str();
}

}  // namespace esched
