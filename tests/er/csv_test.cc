#include "gter/er/csv.h"

#include <cstdio>
#include <filesystem>

#include <gtest/gtest.h>

#include "gter/common/random.h"

namespace gter {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

/// The one record ParseCsv reads from `line` (a record with no terminator).
std::vector<std::string> ParseOneRecord(const std::string& line) {
  auto rows = ParseCsv(line);
  if (!rows.ok() || rows.value().size() != 1) {
    ADD_FAILURE() << "expected one record in: " << line;
    return {};
  }
  return rows.value()[0];
}

TEST(CsvLineTest, SimpleFields) {
  auto fields = ParseOneRecord("a,b,c");
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[2], "c");
}

TEST(CsvLineTest, QuotedFieldWithComma) {
  auto fields = ParseOneRecord("a,\"b, with comma\",c");
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[1], "b, with comma");
}

TEST(CsvLineTest, EscapedQuotes) {
  auto fields = ParseOneRecord("\"say \"\"hi\"\"\",x");
  ASSERT_EQ(fields.size(), 2u);
  EXPECT_EQ(fields[0], "say \"hi\"");
}

TEST(CsvLineTest, EmptyFields) {
  auto fields = ParseOneRecord(",,");
  ASSERT_EQ(fields.size(), 3u);
  for (const auto& f : fields) EXPECT_TRUE(f.empty());
}

TEST(CsvLineTest, FormatAndParseRoundTrip) {
  std::vector<std::string> original = {"plain", "with, comma", "with \"quote\"",
                                       ""};
  std::string line = FormatCsvLine(original);
  EXPECT_EQ(ParseOneRecord(line), original);
}

TEST(CsvFileTest, WriteAndReadBack) {
  std::string path = TempPath("gter_csv_test.csv");
  std::vector<std::vector<std::string>> rows = {{"h1", "h2"},
                                                {"a", "b, c"},
                                                {"d", ""}};
  ASSERT_TRUE(WriteCsvFile(path, rows).ok());
  auto result = ReadCsvFile(path);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), rows);
  std::remove(path.c_str());
}

TEST(CsvFileTest, MissingFileIsIOError) {
  auto result = ReadCsvFile("/nonexistent/definitely/missing.csv");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
}

TEST(DatasetCsvTest, SaveAndLoadRoundTrip) {
  Dataset ds("orig", 2);
  ds.AddRecord(0, "golden dragon 123 main st",
               {"golden dragon", "123 main st"});
  ds.AddRecord(1, "golden dragon restaurant",
               {"golden dragon restaurant"});
  GroundTruth truth({0, 0});

  std::string path = TempPath("gter_dataset_test.csv");
  ASSERT_TRUE(SaveDatasetCsv(path, ds, truth).ok());
  auto result = LoadDatasetCsv(path, "loaded", 2);
  ASSERT_TRUE(result.ok());
  const auto& [loaded, loaded_truth] = result.value();
  EXPECT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded.record(0).source, 0u);
  EXPECT_EQ(loaded.record(1).source, 1u);
  EXPECT_TRUE(loaded_truth.IsMatch(0, 1));
  EXPECT_EQ(loaded.record(0).fields.size(), 2u);
  std::remove(path.c_str());
}

TEST(DatasetCsvTest, SizeMismatchRejected) {
  Dataset ds("x");
  ds.AddRecord(0, "a");
  GroundTruth truth({0, 1});
  EXPECT_FALSE(SaveDatasetCsv(TempPath("gter_mismatch.csv"), ds, truth).ok());
}

TEST(CsvParserTest, QuotedFieldSpansLines) {
  auto rows = ParseCsv("a,\"line1\nline2\",c\nd,e,f\n");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows.value().size(), 2u);
  EXPECT_EQ(rows.value()[0][1], "line1\nline2");
  EXPECT_EQ(rows.value()[1][0], "d");
}

TEST(CsvParserTest, EmptyRecordsArePreserved) {
  // A bare newline is a record with one empty field. The old line-based
  // reader dropped it, shifting every later GroundTruth entity id.
  auto rows = ParseCsv("a\n\nb\n");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows.value().size(), 3u);
  EXPECT_EQ(rows.value()[1], std::vector<std::string>{""});
}

TEST(CsvParserTest, TrailingNewlineEmitsNoPhantomRecord) {
  auto rows = ParseCsv("a,b\n");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.value().size(), 1u);
}

TEST(CsvParserTest, FinalRecordWithoutTerminator) {
  auto rows = ParseCsv("a,b\nc,d");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows.value().size(), 2u);
  EXPECT_EQ(rows.value()[1][1], "d");
}

TEST(CsvParserTest, CrlfAndLoneCrAreSingleTerminators) {
  auto rows = ParseCsv("a\r\nb\rc\n");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows.value().size(), 3u);
  EXPECT_EQ(rows.value()[0][0], "a");
  EXPECT_EQ(rows.value()[1][0], "b");
  EXPECT_EQ(rows.value()[2][0], "c");
}

TEST(CsvParserTest, CrlfSplitAcrossChunksIsOneTerminator) {
  CsvParser parser;
  parser.Feed("a\r");
  parser.Feed("\nb\n");
  ASSERT_TRUE(parser.Finish().ok());
  ASSERT_EQ(parser.rows().size(), 2u);
  EXPECT_EQ(parser.rows()[0][0], "a");
  EXPECT_EQ(parser.rows()[1][0], "b");
}

TEST(CsvParserTest, SingleByteChunksMatchOneShot) {
  const std::string doc = "a,\"x\r\ny\"\"z\",\n\n\"q\",w\r\nend";
  auto oneshot = ParseCsv(doc);
  ASSERT_TRUE(oneshot.ok());
  CsvParser parser;
  for (char c : doc) parser.Feed(std::string_view(&c, 1));
  ASSERT_TRUE(parser.Finish().ok());
  EXPECT_EQ(parser.rows(), oneshot.value());
}

TEST(CsvParserTest, UnterminatedQuoteIsInvalidArgument) {
  auto rows = ParseCsv("a,\"never closed");
  ASSERT_FALSE(rows.ok());
  EXPECT_EQ(rows.status().code(), StatusCode::kInvalidArgument);
}

TEST(CsvParserTest, QuotedFieldsWithEveryNastyByte) {
  std::vector<std::string> fields = {"plain", "a,b", "say \"hi\"",
                                     "line\nbreak", "cr\rhere", "", "end"};
  auto rows = ParseCsv(FormatCsvLine(fields) + "\n");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows.value().size(), 1u);
  EXPECT_EQ(rows.value()[0], fields);
}

TEST(CsvFileTest, RandomizedFieldsRoundTripIdentically) {
  // Property: WriteCsvFile → ReadCsvFile is the identity on arbitrary
  // field bytes — commas, quotes, CR, LF, empties — for any row shape.
  Rng rng(20180415);
  const char alphabet[] = {'a', 'b', ',', '"', '\n', '\r', ' ', 'z'};
  std::string path = TempPath("gter_csv_random_roundtrip.csv");
  for (int iteration = 0; iteration < 50; ++iteration) {
    std::vector<std::vector<std::string>> rows;
    const size_t num_rows = 1 + rng.NextBounded(20);
    for (size_t r = 0; r < num_rows; ++r) {
      std::vector<std::string> row;
      const size_t num_fields = 1 + rng.NextBounded(5);
      for (size_t f = 0; f < num_fields; ++f) {
        std::string field;
        const size_t len = rng.NextBounded(12);
        for (size_t i = 0; i < len; ++i) {
          field.push_back(alphabet[rng.NextBounded(sizeof(alphabet))]);
        }
        row.push_back(std::move(field));
      }
      rows.push_back(std::move(row));
    }
    ASSERT_TRUE(WriteCsvFile(path, rows).ok());
    auto back = ReadCsvFile(path);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    ASSERT_EQ(back.value(), rows) << "iteration " << iteration;
  }
  std::remove(path.c_str());
}

TEST(DatasetCsvTest, MalformedEntityColumnIsError) {
  std::string path = TempPath("gter_bad_entity.csv");
  ASSERT_TRUE(WriteCsvFile(path, {{"entity", "source", "text"},
                                  {"7fff", "0", "hello"}})
                  .ok());
  auto result = LoadDatasetCsv(path, "bad", 1);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(DatasetCsvTest, OutOfRangeSourceRejectedOnLoad) {
  std::string path = TempPath("gter_bad_source.csv");
  ASSERT_TRUE(WriteCsvFile(path, {{"entity", "source", "text"},
                                  {"0", "5", "hello"}})
                  .ok());
  auto result = LoadDatasetCsv(path, "bad", 1);
  EXPECT_FALSE(result.ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace gter
