// Tests for the ASCII/CSV table renderer.
#include "util/table.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace esched {
namespace {

TEST(TableTest, RendersHeadersAndCells) {
  Table t({"Month", "FCFS", "Greedy"});
  t.add_row();
  t.cell("1");
  t.cell_percent(70.0);
  t.cell_percent(69.5);
  const std::string out = t.render();
  EXPECT_NE(out.find("Month"), std::string::npos);
  EXPECT_NE(out.find("70.00%"), std::string::npos);
  EXPECT_NE(out.find("69.50%"), std::string::npos);
  EXPECT_NE(out.find('+'), std::string::npos);
}

TEST(TableTest, NumericFormatting) {
  Table t({"a", "b", "c"});
  t.add_row();
  t.cell(3.14159, 3);
  t.cell_int(-42);
  t.cell_percent(1.5, 1);
  EXPECT_EQ(t.render_csv(), "a,b,c\n3.142,-42,1.5%\n");
}

TEST(TableTest, TooManyCellsThrows) {
  Table t({"only"});
  t.add_row();
  t.cell("x");
  EXPECT_THROW(t.cell("y"), Error);
}

TEST(TableTest, CellBeforeRowThrows) {
  Table t({"only"});
  EXPECT_THROW(t.cell("x"), Error);
}

TEST(TableTest, CsvEscapesSpecials) {
  Table t({"name", "note"});
  t.add_row();
  t.cell("a,b");
  t.cell("say \"hi\"");
  const std::string csv = t.render_csv();
  EXPECT_NE(csv.find("\"a,b\""), std::string::npos);
  EXPECT_NE(csv.find("\"say \"\"hi\"\"\""), std::string::npos);
  EXPECT_EQ(csv.substr(0, 9), "name,note");
}

TEST(TableTest, RaggedRowsRenderBlank) {
  Table t({"a", "b"});
  t.add_row();
  t.cell("only-a");
  const std::string out = t.render();
  EXPECT_NE(out.find("only-a"), std::string::npos);
  const std::string csv = t.render_csv();
  EXPECT_NE(csv.find("only-a,"), std::string::npos);
}

TEST(TableTest, FirstColumnLeftAlignedRestRight) {
  Table t({"label", "n"});
  t.add_row();
  t.cell("x");
  t.cell("100");
  EXPECT_EQ(t.render(),
            "+-------+-----+\n"
            "| label |   n |\n"
            "+-------+-----+\n"
            "| x     | 100 |\n"
            "+-------+-----+\n");
}

TEST(TableTest, EmptyHeaderListThrows) {
  EXPECT_THROW(Table({}), Error);
}

}  // namespace
}  // namespace esched
