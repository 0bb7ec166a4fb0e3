#include "common/table.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>

#include "common/error.hpp"

namespace agentnet {
namespace {

std::string text_of(const Table& t) {
  std::ostringstream os;
  t.print(os);
  return os.str();
}

TEST(TableTest, RejectsEmptyHeaders) {
  EXPECT_THROW(Table({}), ConfigError);
}

TEST(TableTest, RejectsWrongRowWidth) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({std::string("x")}), ConfigError);
}

TEST(TableTest, StoresCells) {
  Table t({"name", "value"});
  t.add_row({std::string("alpha"), 1.5});
  t.add_row({std::string("beta"), std::int64_t{7}});
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.columns(), 2u);
  EXPECT_EQ(std::get<std::string>(t.at(0, 0)), "alpha");
  EXPECT_DOUBLE_EQ(std::get<double>(t.at(0, 1)), 1.5);
  EXPECT_EQ(std::get<std::int64_t>(t.at(1, 1)), 7);
}

TEST(TableTest, PrettyPrintAlignsColumns) {
  Table t({"x", "longheader"});
  t.add_row({std::int64_t{1}, std::int64_t{2}});
  const std::string out = text_of(t);
  EXPECT_NE(out.find("longheader"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
  // One header line, one rule line, one data line.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 3);
}

TEST(TableTest, DoublePrecisionRespected) {
  Table t({"v"});
  t.set_precision(1);
  t.add_row({3.14159});
  EXPECT_NE(text_of(t).find("3.1"), std::string::npos);
  EXPECT_EQ(text_of(t).find("3.14"), std::string::npos);
}

std::string csv_of(const Table& t) {
  std::ostringstream os;
  t.write_csv(os);
  return os.str();
}

TEST(TableTest, CsvBasic) {
  Table t({"a", "b"});
  t.add_row({std::string("x"), std::int64_t{2}});
  EXPECT_EQ(csv_of(t), "a,b\nx,2\n");
}

TEST(TableTest, CsvEscapesSpecials) {
  Table t({"a"});
  t.add_row({std::string("he said \"hi\", twice")});
  EXPECT_EQ(csv_of(t), "a\n\"he said \"\"hi\"\", twice\"\n");
}

TEST(TableTest, CsvEscapesNewlines) {
  Table t({"a"});
  t.add_row({std::string("two\nlines")});
  EXPECT_EQ(csv_of(t), "a\n\"two\nlines\"\n");
}

TEST(TableTest, PrecisionBoundsEnforced) {
  Table t({"a"});
  EXPECT_THROW(t.set_precision(-1), ConfigError);
  EXPECT_THROW(t.set_precision(13), ConfigError);
}

}  // namespace
}  // namespace agentnet
