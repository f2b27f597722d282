#include "search/search_expr.h"

#include "common/strings.h"
#include "web/document.h"

namespace wsq {

std::string SearchQuery::ToString() const {
  std::string out;
  for (size_t i = 0; i < phrases.size(); ++i) {
    if (i > 0) out += use_near ? " NEAR " : " AND ";
    out += StrFormat("\"%s\"", Join(phrases[i].terms, " ").c_str());
  }
  return out;
}

Result<std::string> ExpandSearchTemplate(
    std::string_view search_exp, const std::vector<std::string>& terms) {
  std::string out;
  out.reserve(search_exp.size() + 16);
  for (size_t i = 0; i < search_exp.size(); ++i) {
    char c = search_exp[i];
    if (c == '%' && i + 1 < search_exp.size() &&
        search_exp[i + 1] >= '1' && search_exp[i + 1] <= '9') {
      size_t idx = static_cast<size_t>(search_exp[i + 1] - '1');
      if (idx >= terms.size()) {
        return Status::InvalidArgument(
            StrFormat("search expression references %%%zu but only %zu "
                      "terms are bound",
                      idx + 1, terms.size()));
      }
      out += terms[idx];
      ++i;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string DefaultSearchTemplate(size_t n, bool supports_near) {
  std::string out;
  for (size_t i = 1; i <= n; ++i) {
    if (i > 1) out += supports_near ? " near " : " ";
    out += StrFormat("%%%zu", i);
  }
  return out;
}

Result<SearchQuery> ParseSearchQuery(std::string_view text) {
  std::vector<std::string> tokens = TokenizeText(text);
  if (tokens.empty()) {
    return Status::InvalidArgument("empty search query");
  }

  SearchQuery query;
  bool has_near = false;
  for (const std::string& t : tokens) {
    if (t == "near") {
      has_near = true;
      break;
    }
  }
  query.use_near = has_near;

  // Double-quoted phrase groups ("four corners") bind adjacent words
  // into one phrase for engines without NEAR. In NEAR queries the
  // operator already delimits phrases, so quotes are ignored there.
  if (!has_near && text.find('"') != std::string_view::npos) {
    bool inside = false;
    size_t start = 0;
    for (size_t i = 0; i <= text.size(); ++i) {
      if (i < text.size() && text[i] != '"') continue;
      std::string_view segment = text.substr(start, i - start);
      if (inside) {
        std::vector<std::string> phrase = TokenizeText(segment);
        if (phrase.empty()) {
          return Status::InvalidArgument("empty quoted phrase");
        }
        query.phrases.push_back(SearchPhrase{std::move(phrase)});
      } else {
        for (std::string& t : TokenizeText(segment)) {
          query.phrases.push_back(SearchPhrase{{std::move(t)}});
        }
      }
      if (i == text.size()) {
        if (inside) {
          return Status::InvalidArgument("unterminated quoted phrase");
        }
        break;
      }
      inside = !inside;
      start = i + 1;
    }
    if (query.phrases.empty()) {
      return Status::InvalidArgument("empty search query");
    }
    return query;
  }

  if (has_near) {
    SearchPhrase current;
    for (std::string& t : tokens) {
      if (t == "near") {
        if (current.terms.empty()) {
          return Status::InvalidArgument(
              "NEAR operator with empty operand");
        }
        query.phrases.push_back(std::move(current));
        current = SearchPhrase{};
      } else {
        current.terms.push_back(std::move(t));
      }
    }
    if (current.terms.empty()) {
      return Status::InvalidArgument("NEAR operator with empty operand");
    }
    query.phrases.push_back(std::move(current));
  } else {
    for (std::string& t : tokens) {
      query.phrases.push_back(SearchPhrase{{std::move(t)}});
    }
  }
  return query;
}

}  // namespace wsq
