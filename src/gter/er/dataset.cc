#include "gter/er/dataset.h"

#include <algorithm>

#include "gter/common/metrics.h"
#include "gter/common/status.h"

namespace gter {

RecordId Dataset::AddRecord(uint32_t source, std::string raw_text,
                            std::vector<std::string> fields,
                            const ExecContext& ctx) {
  GTER_CHECK(source < num_sources_);
  Record rec;
  rec.id = static_cast<RecordId>(records_.size());
  rec.source = source;
  rec.raw_text = std::move(raw_text);
  rec.fields = std::move(fields);
  for (const std::string& token : Tokenize(rec.raw_text, tokenizer_options_)) {
    rec.tokens.push_back(vocab_.Intern(token));
  }
  rec.terms = rec.tokens;
  std::sort(rec.terms.begin(), rec.terms.end());
  rec.terms.erase(std::unique(rec.terms.begin(), rec.terms.end()),
                  rec.terms.end());
  if (MetricsRegistry* metrics = ctx.metrics) {
    metrics->AddCounter("dataset/records");
    metrics->AddCounter("dataset/tokens", rec.tokens.size());
    // Last write wins — ends up as the final vocabulary size.
    metrics->SetGauge("dataset/vocabulary", static_cast<double>(vocab_.size()));
  }
  records_.push_back(std::move(rec));
  return records_.back().id;
}

std::vector<uint32_t> Dataset::ComputeDocumentFrequencies() const {
  std::vector<uint32_t> df(vocab_.size(), 0);
  for (const Record& rec : records_) {
    for (TermId t : rec.terms) ++df[t];
  }
  return df;
}

std::vector<std::vector<RecordId>> Dataset::BuildInvertedIndex() const {
  std::vector<std::vector<RecordId>> index(vocab_.size());
  for (const Record& rec : records_) {
    for (TermId t : rec.terms) index[t].push_back(rec.id);
  }
  return index;
}

std::vector<std::vector<TermId>> Dataset::TokenCorpus() const {
  std::vector<std::vector<TermId>> corpus;
  corpus.reserve(records_.size());
  for (const Record& rec : records_) corpus.push_back(rec.tokens);
  return corpus;
}

}  // namespace gter
