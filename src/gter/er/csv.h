#ifndef GTER_ER_CSV_H_
#define GTER_ER_CSV_H_

#include <string>
#include <string_view>
#include <vector>

#include "gter/common/status.h"
#include "gter/er/dataset.h"
#include "gter/er/ground_truth.h"

namespace gter {

/// Serializes fields into one CSV record, quoting where needed. Quoting
/// covers `,`, `"`, LF, and CR, so any byte string round-trips through
/// FormatCsvLine → CsvParser (see DESIGN.md §5 for the contract).
std::string FormatCsvLine(const std::vector<std::string>& fields);

/// Incremental RFC-4180 record reader. Unlike a line-by-line loop, this is
/// a character state machine, so quoted fields may contain embedded
/// newlines, CRs, commas, and escaped quotes, and an empty record (a bare
/// newline, i.e. one empty field) is preserved rather than dropped —
/// dropping one used to shift every subsequent GroundTruth entity id.
///
/// Feed the document in arbitrary chunks, then Finish() exactly once:
///
///   CsvParser parser;
///   parser.Feed(chunk1);
///   parser.Feed(chunk2);
///   GTER_RETURN_IF_ERROR(parser.Finish());
///   use(parser.rows());
///
/// Record terminators are LF, CRLF, or a lone CR (consumed as one
/// terminator each); a final record without a trailing terminator is
/// emitted by Finish(). Finish() returns InvalidArgument when the document
/// ends inside an unterminated quoted field.
class CsvParser {
 public:
  /// Consumes the next chunk of the document.
  void Feed(std::string_view chunk);

  /// Flushes the final record (if any) and validates terminal state.
  Status Finish();

  /// Parsed records, one vector of fields per record.
  const std::vector<std::vector<std::string>>& rows() const { return rows_; }

  /// Moves the rows out (after Finish()).
  std::vector<std::vector<std::string>> TakeRows() { return std::move(rows_); }

 private:
  enum class State {
    kRecordStart,   // nothing of the current record seen yet
    kFieldStart,    // directly after a comma
    kUnquoted,      // inside an unquoted field
    kQuoted,        // inside a quoted field
    kQuoteInQuoted  // just saw a '"' inside a quoted field ("" vs close)
  };

  void EndField();
  void EndRecord();

  State state_ = State::kRecordStart;
  bool pending_cr_ = false;  // last char of the previous chunk was a bare CR
  std::string field_;
  std::vector<std::string> record_;
  std::vector<std::vector<std::string>> rows_;
};

/// One-shot CsvParser over a whole document held in memory.
Result<std::vector<std::vector<std::string>>> ParseCsv(std::string_view text);

/// Reads a CSV file through the streaming CsvParser (fixed-size chunks, so
/// the parse never needs line-sized lookahead). One row per record; quoted
/// fields may span lines; empty records are preserved.
Result<std::vector<std::vector<std::string>>> ReadCsvFile(
    const std::string& path);

/// Writes rows to `path`, overwriting. Each record is terminated with LF;
/// WriteCsvFile → ReadCsvFile is the identity on any field bytes.
Status WriteCsvFile(const std::string& path,
                    const std::vector<std::vector<std::string>>& rows);

/// Persists a dataset plus ground truth in the library's interchange format:
/// header `entity,source,field...` followed by one row per record. Fields
/// are the record's raw fields when present, else the raw text as a single
/// field.
Status SaveDatasetCsv(const std::string& path, const Dataset& dataset,
                      const GroundTruth& truth);

/// Loads a dataset saved by SaveDatasetCsv. All fields are joined with
/// spaces to form the record text. Entity/source columns are parsed
/// strictly — a malformed number is InvalidArgument, not silently zero.
/// Every record is counted into `ctx.metrics` as it is added.
Result<std::pair<Dataset, GroundTruth>> LoadDatasetCsv(
    const std::string& path, const std::string& dataset_name,
    uint32_t num_sources, const ExecContext& ctx = DefaultExecContext());

}  // namespace gter

#endif  // GTER_ER_CSV_H_
