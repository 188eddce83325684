#ifndef GTER_ER_DATASET_H_
#define GTER_ER_DATASET_H_

#include <string>
#include <vector>

#include "gter/common/exec_context.h"
#include "gter/er/record.h"
#include "gter/text/tokenizer.h"
#include "gter/text/vocabulary.h"

namespace gter {

/// A named collection of records sharing one vocabulary. This is the input
/// type of every resolver in the library.
class Dataset {
 public:
  explicit Dataset(std::string name = "dataset", uint32_t num_sources = 1)
      : name_(std::move(name)), num_sources_(num_sources) {}

  /// Tokenizes `raw_text`, interns the tokens, and appends a record.
  /// `fields` is kept verbatim for field-aware baselines; pass {} when the
  /// dataset has no field structure. Counts the record, its tokens and the
  /// vocabulary size into `ctx.metrics`. Returns the new record's id.
  RecordId AddRecord(uint32_t source, std::string raw_text,
                     std::vector<std::string> fields = {},
                     const ExecContext& ctx = DefaultExecContext());

  /// Tokenizer used by AddRecord; set before adding records.
  void set_tokenizer_options(TokenizerOptions options) {
    tokenizer_options_ = std::move(options);
  }
  /// Text meant to match this dataset's terms (queries, later records)
  /// tokenizes with these.
  const TokenizerOptions& tokenizer_options() const {
    return tokenizer_options_;
  }

  const std::string& name() const { return name_; }
  uint32_t num_sources() const { return num_sources_; }
  size_t size() const { return records_.size(); }

  const Record& record(RecordId id) const { return records_[id]; }
  const std::vector<Record>& records() const { return records_; }

  const Vocabulary& vocabulary() const { return vocab_; }

  /// Document frequency of every term: df[t] = number of records whose term
  /// set contains t.
  std::vector<uint32_t> ComputeDocumentFrequencies() const;

  /// Inverted index: for every term, the sorted list of record ids whose
  /// term set contains it.
  std::vector<std::vector<RecordId>> BuildInvertedIndex() const;

  /// Token lists of every record (document order, duplicates allowed) —
  /// the corpus format TfIdfModel expects.
  std::vector<std::vector<TermId>> TokenCorpus() const;

  /// Direct access for the preprocessing pipeline (rebuilds term sets).
  std::vector<Record>* mutable_records() { return &records_; }

 private:
  std::string name_;
  uint32_t num_sources_;
  TokenizerOptions tokenizer_options_;
  Vocabulary vocab_;
  std::vector<Record> records_;
};

}  // namespace gter

#endif  // GTER_ER_DATASET_H_
