#ifndef WSQ_WEB_CORPUS_H_
#define WSQ_WEB_CORPUS_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "web/document.h"

namespace wsq {

class InvertedIndex;  // web/inverted_index.h

/// A named phrase to plant in the corpus; `weight` scales how often it
/// is mentioned relative to other entities (any positive scale).
struct EntitySpec {
  std::string phrase;
  double weight = 1.0;
};

/// Requests that `a` appear NEAR `b` (and optionally NEAR `c`) in a
/// share of documents proportional to `weight` — this is how the
/// synthetic Web gets the paper's "Colorado near four corners" signal
/// (§3.1 Query 3) and the DSQ state/movie/phrase triples (§1).
struct CooccurrenceSpec {
  std::string a;
  std::string b;
  double weight = 1.0;
  /// Optional third phrase planted NEAR `b` (empty = pair only).
  std::string c;
};

struct CorpusConfig {
  /// Number of documents to generate.
  size_t num_documents = 20000;
  /// Token count per document is uniform in [min, max].
  size_t min_doc_length = 40;
  size_t max_doc_length = 200;
  /// Background vocabulary: synthetic words drawn Zipf(zipf_skew).
  size_t vocab_size = 4000;
  double zipf_skew = 1.05;
  /// Per-document entity injection: up to `max_entity_mentions` rounds,
  /// each happening with probability `entity_rate`.
  double entity_rate = 0.55;
  int max_entity_mentions = 3;
  /// Fraction of documents that realize one co-occurrence spec.
  double cooc_rate = 0.08;
  /// Tokens within which NEAR co-occurrences are planted.
  size_t near_window = 6;
  uint64_t seed = 42;
};

/// A deterministic synthetic Web: documents with Zipf background text
/// and planted entity mentions / co-occurrences.
///
/// This substitutes for the live 1999 Web crawled by AltaVista/Google
/// (see DESIGN.md §2): it supplies what WSQ actually consumes — skewed
/// mention counts, NEAR co-occurrence structure, and stable URLs.
///
/// Tokens are interned into one dictionary: background word i is term
/// i, followed by the tokens of the planted phrases. The corpus owns its
/// positional index, built once with it, so every engine over one
/// corpus shares that index, and a shard slice reads a window of it.
/// The documents, the dictionary and the index sit behind shared
/// pointers: moving or copying a Corpus keeps their addresses. A corpus
/// is immutable once built, so its const methods are safe from any
/// thread.
class Corpus {
 public:
  /// Generates a corpus. Entity phrases are tokenized with the same
  /// normalization as queries, so lookups match exactly.
  static Corpus Generate(
      const CorpusConfig& config,
      const std::vector<EntitySpec>& entities,
      const std::vector<CooccurrenceSpec>& cooccurrences = {});

  /// A view of shard `shard` of `num_shards` over `full`: it shares
  /// `full`'s documents, dictionary and index, so DocIds stay dense
  /// (per-shard scores and ranks merge byte-identically with the
  /// unsharded engine) and term ids agree across shards. Its index is a
  /// window onto `full`'s that shows only the postings of the documents
  /// the shard owns (see ShardOf), so the others match nothing. The
  /// windows of the N shards are disjoint and together show exactly
  /// `full`'s postings. O(1): nothing is copied or indexed.
  static Corpus ShardSlice(const Corpus& full, size_t shard,
                           size_t num_shards);

  /// Which shard owns document `id` when the corpus's D documents are
  /// range-partitioned `num_shards` (N) ways: shard s owns the
  /// contiguous ids [ceil(s*D/N), ceil((s+1)*D/N)), so shard sizes
  /// differ by at most one, and when N > D some shards own nothing.
  size_t ShardOf(DocId id, size_t num_shards) const;

  size_t size() const { return documents_->size(); }
  const Document& document(DocId id) const { return (*documents_)[id]; }
  const std::vector<Document>& documents() const { return *documents_; }

  /// The positional index over this corpus's documents (a slice's: a
  /// window onto the full corpus's index over the documents it owns).
  const InvertedIndex& index() const { return *index_; }

  /// Text of interned token `id`.
  const std::string& term(TermId id) const { return dictionary_->text[id]; }
  /// Id of `token`, or nullopt when the corpus never interned it.
  std::optional<TermId> FindTerm(const std::string& token) const;
  /// Number of interned tokens; ids run from 0 to num_terms() - 1.
  size_t num_terms() const { return dictionary_->text.size(); }

  /// The background vocabulary (for tests and workload generators):
  /// word i is term i.
  std::span<const std::string> vocabulary() const {
    return {dictionary_->text.data(), vocab_size_};
  }

 private:
  friend class InvertedIndex;  // looks terms up in the dictionary

  /// Interned token text, shared by a corpus and its shard slices.
  struct Dictionary {
    std::vector<std::string> text;  // indexed by TermId
    std::unordered_map<std::string, TermId> ids;

    TermId Intern(const std::string& token);
    /// Id of `token`, or nullopt when it was never interned.
    std::optional<TermId> Find(const std::string& token) const;
    /// Tokenizes `phrase` (TokenizeText) and interns every token.
    std::vector<TermId> InternText(std::string_view phrase);
  };

  Corpus() = default;

  std::shared_ptr<const std::vector<Document>> documents_;
  std::shared_ptr<const Dictionary> dictionary_;
  std::shared_ptr<const InvertedIndex> index_;
  size_t vocab_size_ = 0;
};

/// Builds the `n`-word synthetic background vocabulary used by
/// Corpus::Generate; exposed for tests and workload constant pools.
std::vector<std::string> MakeSyntheticVocabulary(size_t n, uint64_t seed);

}  // namespace wsq

#endif  // WSQ_WEB_CORPUS_H_
