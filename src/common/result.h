#ifndef WSQ_COMMON_RESULT_H_
#define WSQ_COMMON_RESULT_H_

#include <cassert>
#include <optional>
#include <utility>

#include "common/status.h"

namespace wsq {

/// Holds either a value of type T or an error Status.
///
/// Mirrors arrow::Result / absl::StatusOr. Accessing the value of an
/// errored Result is a programming error (asserted in debug builds).
///
/// [[nodiscard]] like Status: a returned Result must be consumed or
/// explicitly discarded via WSQ_IGNORE_STATUS(expr).
template <typename T>
class [[nodiscard]] Result {
 public:
  /// Implicit from value — lets functions `return value;`.
  Result(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)
  /// Implicit from error status — lets functions `return status;`.
  Result(Status status) : status_(std::move(status)) {  // NOLINT
    assert(!status_.ok() && "Result constructed from OK status");
  }

  Result(const Result&) = default;
  Result& operator=(const Result&) = default;
  Result(Result&&) = default;
  Result& operator=(Result&&) = default;

  bool ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    assert(ok());
    return *value_;
  }
  T& value() & {
    assert(ok());
    return *value_;
  }
  /// By value: a reference into a temporary Result would dangle once
  /// the full expression ends, e.g. in `for (auto& x : *MakeResult())`.
  T value() && {
    assert(ok());
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  T operator*() && { return std::move(*this).value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  /// Returns the value or `fallback` when errored.
  T value_or(T fallback) const {
    return ok() ? *value_ : std::move(fallback);
  }

 private:
  std::optional<T> value_;
  Status status_;
};

}  // namespace wsq

#endif  // WSQ_COMMON_RESULT_H_
