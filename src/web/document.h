#ifndef WSQ_WEB_DOCUMENT_H_
#define WSQ_WEB_DOCUMENT_H_

#include <cstdint>
#include <string>
#include <vector>

namespace wsq {

/// Document id within a corpus; dense from 0.
using DocId = uint32_t;

/// Interned token id within a corpus's dictionary; dense from 0
/// (Corpus::term maps it back to text).
using TermId = uint32_t;

/// One synthetic Web page: a URL, a last-modified date, and a token
/// stream (already lower-cased, tokenized and interned — the corpus
/// generator produces tokens directly instead of rendering HTML and
/// re-parsing it).
struct Document {
  DocId id = 0;
  std::string url;
  std::string date;  // "1999-10-17" style
  std::vector<TermId> terms;
};

/// Lower-cases and splits `text` into alphanumeric tokens, the same
/// normalization applied to documents at indexing time.
std::vector<std::string> TokenizeText(std::string_view text);

}  // namespace wsq

#endif  // WSQ_WEB_DOCUMENT_H_
