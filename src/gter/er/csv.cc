#include "gter/er/csv.h"

#include <fstream>

#include "gter/common/parse_number.h"

namespace gter {

std::string FormatCsvLine(const std::vector<std::string>& fields) {
  std::string out;
  for (size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out.push_back(',');
    const std::string& f = fields[i];
    // CR is quoted too: an unquoted CR would read back as a record
    // terminator (CRLF files), corrupting the round-trip.
    bool needs_quotes = f.find_first_of(",\"\n\r") != std::string::npos;
    if (needs_quotes) {
      out.push_back('"');
      for (char c : f) {
        if (c == '"') out.push_back('"');
        out.push_back(c);
      }
      out.push_back('"');
    } else {
      out += f;
    }
  }
  return out;
}

void CsvParser::EndField() {
  record_.push_back(std::move(field_));
  field_.clear();
}

void CsvParser::EndRecord() {
  EndField();
  rows_.push_back(std::move(record_));
  record_.clear();
  state_ = State::kRecordStart;
}

void CsvParser::Feed(std::string_view chunk) {
  for (char c : chunk) {
    // A CRLF pair that acted as a terminator consumes both bytes, even
    // when the chunk boundary falls between them.
    if (pending_cr_) {
      pending_cr_ = false;
      if (c == '\n') continue;
    }
    switch (state_) {
      case State::kRecordStart:
      case State::kFieldStart:
        if (c == '"') {
          state_ = State::kQuoted;
        } else if (c == ',') {
          EndField();
          state_ = State::kFieldStart;
        } else if (c == '\n' || c == '\r') {
          // A bare terminator is a record with one empty field — preserved,
          // not skipped (a skip renumbers every later record).
          pending_cr_ = (c == '\r');
          EndRecord();
        } else {
          field_.push_back(c);
          state_ = State::kUnquoted;
        }
        break;
      case State::kUnquoted:
        if (c == ',') {
          EndField();
          state_ = State::kFieldStart;
        } else if (c == '\n' || c == '\r') {
          pending_cr_ = (c == '\r');
          EndRecord();
        } else {
          // Includes '"': a quote inside an unquoted field is kept literal
          // (FormatCsvLine never emits one, so this is read-side leniency).
          field_.push_back(c);
        }
        break;
      case State::kQuoted:
        if (c == '"') {
          state_ = State::kQuoteInQuoted;
        } else {
          field_.push_back(c);  // commas, LF, CR: all literal when quoted
        }
        break;
      case State::kQuoteInQuoted:
        if (c == '"') {
          field_.push_back('"');  // "" escape
          state_ = State::kQuoted;
        } else if (c == ',') {
          EndField();
          state_ = State::kFieldStart;
        } else if (c == '\n' || c == '\r') {
          pending_cr_ = (c == '\r');
          EndRecord();
        } else {
          // Text after a closing quote: lenient, continue unquoted.
          field_.push_back(c);
          state_ = State::kUnquoted;
        }
        break;
    }
  }
}

Status CsvParser::Finish() {
  switch (state_) {
    case State::kQuoted:
      return Status::InvalidArgument(
          "unterminated quoted field at end of CSV input (record " +
          std::to_string(rows_.size() + 1) + ")");
    case State::kRecordStart:
      // A trailing terminator already flushed the last record; nothing
      // pending, so no phantom empty record is emitted.
      break;
    case State::kFieldStart:
    case State::kUnquoted:
    case State::kQuoteInQuoted:
      EndRecord();  // final record without a trailing newline
      break;
  }
  return Status::OK();
}

Result<std::vector<std::vector<std::string>>> ParseCsv(std::string_view text) {
  CsvParser parser;
  parser.Feed(text);
  Status s = parser.Finish();
  if (!s.ok()) return s;
  return parser.TakeRows();
}

Result<std::vector<std::vector<std::string>>> ReadCsvFile(
    const std::string& path) {
  // Binary mode: the parser owns CRLF handling; no newline translation.
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  CsvParser parser;
  char buffer[1 << 16];
  while (in.read(buffer, sizeof(buffer)) || in.gcount() > 0) {
    parser.Feed(std::string_view(buffer, static_cast<size_t>(in.gcount())));
  }
  if (in.bad()) return Status::IOError("error reading " + path);
  Status s = parser.Finish();
  if (!s.ok()) return s;
  return parser.TakeRows();
}

Status WriteCsvFile(const std::string& path,
                    const std::vector<std::vector<std::string>>& rows) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  for (const auto& row : rows) {
    out << FormatCsvLine(row) << "\n";
  }
  if (!out) return Status::IOError("write failure on " + path);
  return Status::OK();
}

Status SaveDatasetCsv(const std::string& path, const Dataset& dataset,
                      const GroundTruth& truth) {
  if (truth.num_records() != dataset.size()) {
    return Status::InvalidArgument("ground truth size mismatch");
  }
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"entity", "source", "text"});
  for (const Record& rec : dataset.records()) {
    std::vector<std::string> row;
    row.push_back(std::to_string(truth.entity_of(rec.id)));
    row.push_back(std::to_string(rec.source));
    if (rec.fields.empty()) {
      row.push_back(rec.raw_text);
    } else {
      for (const auto& f : rec.fields) row.push_back(f);
    }
    rows.push_back(std::move(row));
  }
  return WriteCsvFile(path, rows);
}

Result<std::pair<Dataset, GroundTruth>> LoadDatasetCsv(
    const std::string& path, const std::string& dataset_name,
    uint32_t num_sources, const ExecContext& ctx) {
  auto rows_result = ReadCsvFile(path);
  if (!rows_result.ok()) return rows_result.status();
  const auto& rows = rows_result.value();
  if (rows.empty()) return Status::InvalidArgument("empty CSV: " + path);
  Dataset dataset(dataset_name, num_sources);
  std::vector<EntityId> entity_of;
  for (size_t i = 1; i < rows.size(); ++i) {
    const auto& row = rows[i];
    if (row.size() < 3) {
      return Status::InvalidArgument("row " + std::to_string(i) +
                                     " has fewer than 3 columns");
    }
    auto entity = ParseUint32(row[0]);
    if (!entity.ok()) {
      return Status::InvalidArgument("row " + std::to_string(i) +
                                     " entity: " + entity.status().message());
    }
    auto source = ParseUint32(row[1]);
    if (!source.ok()) {
      return Status::InvalidArgument("row " + std::to_string(i) +
                                     " source: " + source.status().message());
    }
    if (source.value() >= num_sources) {
      return Status::InvalidArgument("row " + std::to_string(i) +
                                     " has out-of-range source");
    }
    std::vector<std::string> fields(row.begin() + 2, row.end());
    std::string text;
    for (const auto& f : fields) {
      if (!text.empty()) text.push_back(' ');
      text += f;
    }
    dataset.AddRecord(source.value(), std::move(text), std::move(fields), ctx);
    entity_of.push_back(entity.value());
  }
  return std::make_pair(std::move(dataset), GroundTruth(std::move(entity_of)));
}

}  // namespace gter
