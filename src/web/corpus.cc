#include "web/corpus.h"

#include <algorithm>
#include <set>

#include "common/strings.h"
#include "web/inverted_index.h"

namespace wsq {

namespace {

// Pronounceable synthetic words: alternating consonant/vowel syllables.
std::string MakeWord(Rng& rng) {
  static constexpr char kConsonants[] = "bcdfghjklmnprstvwz";
  static constexpr char kVowels[] = "aeiou";
  size_t syllables = 2 + rng.Uniform(3);
  std::string word;
  for (size_t s = 0; s < syllables; ++s) {
    word.push_back(kConsonants[rng.Uniform(sizeof(kConsonants) - 1)]);
    word.push_back(kVowels[rng.Uniform(sizeof(kVowels) - 1)]);
  }
  return word;
}

// Weighted pick over specs; `total` is the precomputed weight sum.
template <typename Spec>
const Spec& PickWeighted(const std::vector<Spec>& specs, double total,
                         Rng& rng) {
  double u = rng.NextDouble() * total;
  for (const Spec& s : specs) {
    u -= s.weight;
    if (u <= 0) return s;
  }
  return specs.back();
}

void InsertPhraseAt(std::vector<TermId>* terms, size_t pos,
                    const std::vector<TermId>& phrase) {
  pos = std::min(pos, terms->size());
  terms->insert(terms->begin() + static_cast<ptrdiff_t>(pos),
                phrase.begin(), phrase.end());
}

}  // namespace

std::vector<std::string> MakeSyntheticVocabulary(size_t n, uint64_t seed) {
  Rng rng(seed ^ 0x5eedbeef);
  std::set<std::string> unique;
  std::vector<std::string> vocab;
  vocab.reserve(n);
  while (vocab.size() < n) {
    std::string w = MakeWord(rng);
    if (unique.insert(w).second) vocab.push_back(std::move(w));
  }
  return vocab;
}

TermId Corpus::Dictionary::Intern(const std::string& token) {
  auto [it, inserted] =
      ids.try_emplace(token, static_cast<TermId>(text.size()));
  if (inserted) text.push_back(token);
  return it->second;
}

std::vector<TermId> Corpus::Dictionary::InternText(std::string_view phrase) {
  std::vector<TermId> out;
  for (const std::string& token : TokenizeText(phrase)) {
    out.push_back(Intern(token));
  }
  return out;
}

std::optional<TermId> Corpus::Dictionary::Find(
    const std::string& token) const {
  auto it = ids.find(token);
  if (it == ids.end()) return std::nullopt;
  return it->second;
}

std::optional<TermId> Corpus::FindTerm(const std::string& token) const {
  return dictionary_->Find(token);
}

Corpus Corpus::Generate(
    const CorpusConfig& config, const std::vector<EntitySpec>& entities,
    const std::vector<CooccurrenceSpec>& cooccurrences) {
  Corpus corpus;
  auto dict = std::make_shared<Dictionary>();
  // The vocabulary words are distinct, so word i becomes term i.
  for (const std::string& word :
       MakeSyntheticVocabulary(config.vocab_size, config.seed)) {
    dict->Intern(word);
  }
  corpus.vocab_size_ = config.vocab_size;
  Rng rng(config.seed);
  ZipfDistribution zipf(config.vocab_size, config.zipf_skew);

  double entity_total = 0;
  for (const EntitySpec& e : entities) entity_total += e.weight;
  double cooc_total = 0;
  for (const CooccurrenceSpec& c : cooccurrences) cooc_total += c.weight;

  // Pre-tokenize and intern all planted phrases once.
  std::vector<std::vector<TermId>> entity_tokens;
  entity_tokens.reserve(entities.size());
  for (const EntitySpec& e : entities) {
    entity_tokens.push_back(dict->InternText(e.phrase));
  }
  struct CoocTokens {
    std::vector<TermId> a;
    std::vector<TermId> b;
    std::vector<TermId> c;  // empty for pairs
  };
  std::vector<CoocTokens> cooc_tokens;
  cooc_tokens.reserve(cooccurrences.size());
  for (const CooccurrenceSpec& c : cooccurrences) {
    cooc_tokens.push_back(CoocTokens{dict->InternText(c.a),
                                     dict->InternText(c.b),
                                     dict->InternText(c.c)});
  }

  std::vector<Document> documents;
  documents.reserve(config.num_documents);
  for (size_t d = 0; d < config.num_documents; ++d) {
    Document doc;
    doc.id = static_cast<DocId>(d);

    size_t length = config.min_doc_length +
                    rng.Uniform(config.max_doc_length -
                                config.min_doc_length + 1);
    doc.terms.reserve(length + 8);
    for (size_t i = 0; i < length; ++i) {
      doc.terms.push_back(static_cast<TermId>(zipf.Sample(rng)));
    }

    // Plant entity mentions.
    if (!entities.empty()) {
      for (int m = 0; m < config.max_entity_mentions; ++m) {
        if (!rng.Bernoulli(config.entity_rate)) continue;
        size_t idx = static_cast<size_t>(
            &PickWeighted(entities, entity_total, rng) - entities.data());
        InsertPhraseAt(&doc.terms, rng.Uniform(doc.terms.size() + 1),
                       entity_tokens[idx]);
      }
    }

    // Plant one NEAR co-occurrence in a fraction of documents.
    if (!cooccurrences.empty() && rng.Bernoulli(config.cooc_rate)) {
      size_t idx = static_cast<size_t>(
          &PickWeighted(cooccurrences, cooc_total, rng) -
          cooccurrences.data());
      const CoocTokens& tokens = cooc_tokens[idx];
      size_t window = config.near_window > 1 ? config.near_window - 1 : 1;
      size_t pos = rng.Uniform(doc.terms.size() + 1);
      InsertPhraseAt(&doc.terms, pos, tokens.a);
      size_t gap = 1 + rng.Uniform(window);
      size_t b_pos = pos + tokens.a.size() + gap;
      InsertPhraseAt(&doc.terms, b_pos, tokens.b);
      if (!tokens.c.empty()) {
        size_t gap2 = 1 + rng.Uniform(window);
        InsertPhraseAt(&doc.terms, b_pos + tokens.b.size() + gap2,
                       tokens.c);
      }
    }

    // Deterministic URL and date.
    const std::string& site = dict->text[rng.Uniform(config.vocab_size)];
    const std::string& path = dict->text[rng.Uniform(config.vocab_size)];
    doc.url = StrFormat("www.%s%llu.com/%s/p%u.html", site.c_str(),
                        static_cast<unsigned long long>(rng.Uniform(100)),
                        path.c_str(), doc.id);
    doc.date = StrFormat("1999-%02llu-%02llu",
                         static_cast<unsigned long long>(1 +
                                                         rng.Uniform(12)),
                         static_cast<unsigned long long>(1 +
                                                         rng.Uniform(28)));

    documents.push_back(std::move(doc));
  }
  corpus.documents_ =
      std::make_shared<const std::vector<Document>>(std::move(documents));
  corpus.dictionary_ = std::move(dict);
  corpus.index_ = std::make_shared<const InvertedIndex>(corpus);
  return corpus;
}

size_t Corpus::ShardOf(DocId id, size_t num_shards) const {
  if (num_shards <= 1 || size() == 0) return 0;
  // floor(id*N/D) is the s with ceil(s*D/N) <= id < ceil((s+1)*D/N).
  return static_cast<size_t>(uint64_t{id} * num_shards / size());
}

Corpus Corpus::ShardSlice(const Corpus& full, size_t shard,
                          size_t num_shards) {
  num_shards = std::max<size_t>(num_shards, 1);
  // Shard s's first id: ceil(s*D/N).
  auto first_id = [&](uint64_t s) {
    return static_cast<DocId>((s * full.size() + num_shards - 1) /
                              num_shards);
  };
  Corpus slice = full;
  slice.index_.reset(
      new InvertedIndex(*full.index_, first_id(shard), first_id(shard + 1)));
  return slice;
}

}  // namespace wsq
