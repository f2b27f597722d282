#ifndef WSQ_PERFBENCH_BENCH_UTIL_H_
#define WSQ_PERFBENCH_BENCH_UTIL_H_

// Small helpers shared by the benchmark's workloads and its runner:
// nanosecond clock, order statistics, result hashing, and a compact
// JSON writer that keeps every measured digit.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "exec/executor.h"

namespace wsqperf {

inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank percentile of an ascending sample (0 when empty).
inline double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  size_t rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(sorted.size())));
  if (rank == 0) rank = 1;
  return sorted[std::min(rank, sorted.size()) - 1];
}

/// Median (mean of the middle pair for even sizes; 0 when empty).
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

inline double Ratio(double num, double den) {
  return den == 0 ? 0.0 : num / den;
}

/// FNV-1a over 64-bit words.
class Fnv {
 public:
  void Mix(uint64_t v) { hash_ = (hash_ ^ v) * 1099511628211ULL; }
  void Mix(const std::string& s) {
    for (unsigned char c : s) Mix(static_cast<uint64_t>(c));
    Mix(s.size());
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 14695981039346656037ULL;
};

/// Hash of a result in emission order: equal iff same rows, same order.
inline uint64_t OrderedHash(const wsq::ResultSet& result) {
  Fnv fnv;
  fnv.Mix(result.rows.size());
  for (const wsq::Row& row : result.rows) fnv.Mix(row.Hash());
  return fnv.value();
}

/// Order-independent hash: equal iff the same multiset of rows.
inline uint64_t MultisetHash(const wsq::ResultSet& result) {
  std::vector<uint64_t> hashes;
  hashes.reserve(result.rows.size());
  for (const wsq::Row& row : result.rows) hashes.push_back(row.Hash());
  std::sort(hashes.begin(), hashes.end());
  Fnv fnv;
  fnv.Mix(hashes.size());
  for (uint64_t h : hashes) fnv.Mix(h);
  return fnv.value();
}

/// Builds one JSON value as text. Numbers print with ten significant
/// digits (never rounded to a fixed number of decimals), and
/// non-finite values print as 0 so the document always parses.
class Json {
 public:
  static Json Object() { return Json('{', '}'); }
  static Json Array() { return Json('[', ']'); }

  Json& Set(const std::string& key, const Json& v) {
    return Raw(Quote(key) + ":" + v.str());
  }
  Json& Set(const std::string& key, const std::string& v) {
    return Raw(Quote(key) + ":" + Quote(v));
  }
  Json& Set(const std::string& key, const char* v) {
    return Set(key, std::string(v));
  }
  Json& Set(const std::string& key, bool v) {
    return Raw(Quote(key) + ":" + (v ? "true" : "false"));
  }
  Json& Set(const std::string& key, double v) {
    return Raw(Quote(key) + ":" + Number(v));
  }
  Json& Set(const std::string& key, int64_t v) {
    return Raw(Quote(key) + ":" + std::to_string(v));
  }
  Json& Set(const std::string& key, uint64_t v) {
    return Raw(Quote(key) + ":" + std::to_string(v));
  }
  Json& Set(const std::string& key, int v) {
    return Set(key, static_cast<int64_t>(v));
  }
  Json& Push(const Json& v) { return Raw(v.str()); }
  Json& Push(double v) { return Raw(Number(v)); }

  std::string str() const { return open_ + body_ + close_; }

  static std::string Quote(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
          } else {
            out.push_back(c);
          }
      }
    }
    return out + "\"";
  }

  static std::string Number(double v) {
    if (!std::isfinite(v)) return "0";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.10g", v);
    return buf;
  }

 private:
  Json(char open, char close) : open_(1, open), close_(1, close) {}

  Json& Raw(const std::string& text) {
    if (!body_.empty()) body_ += ",";
    body_ += text;
    return *this;
  }

  std::string open_;
  std::string close_;
  std::string body_;
};

}  // namespace wsqperf

#endif  // WSQ_PERFBENCH_BENCH_UTIL_H_
