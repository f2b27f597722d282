#include "expr/expr.h"

#include <cmath>

#include "common/strings.h"

namespace wsq {

Result<Value> BoundColumnRef::Eval(const Row& row) const {
  if (index_ >= row.size()) {
    return Status::ExecutionError(
        StrFormat("column index %zu out of range (row has %zu values)",
                  index_, row.size()));
  }
  return row.value(index_);
}

Status BoundColumnRef::RemapColumns(const std::vector<int>& mapping) {
  if (index_ >= mapping.size() || mapping[index_] < 0) {
    return Status::Internal("column " + column_.QualifiedName() +
                            " unavailable after plan rewrite");
  }
  index_ = static_cast<size_t>(mapping[index_]);
  return Status::OK();
}

Result<Value> BoundLiteral::Eval(const Row&) const { return value_; }

Result<Value> BoundUnary::Eval(const Row& row) const {
  WSQ_ASSIGN_OR_RETURN(Value v, operand_->Eval(row));
  if (v.is_null()) return Value::Null();
  if (v.is_placeholder()) {
    return Status::ExecutionError(
        "operation on incomplete (placeholder) value");
  }
  switch (op_) {
    case UnaryOp::kNeg:
      if (v.is_int()) return Value::Int(-v.AsInt());
      if (v.is_double()) return Value::Real(-v.AsDouble());
      return Status::TypeError("unary '-' requires a numeric operand");
    case UnaryOp::kNot: {
      WSQ_ASSIGN_OR_RETURN(bool b, ValueIsTrue(v));
      return Value::Int(b ? 0 : 1);
    }
  }
  return Status::Internal("unknown unary operator");
}

TypeId BoundUnary::OutputType() const {
  switch (op_) {
    case UnaryOp::kNeg:
      return operand_->OutputType();
    case UnaryOp::kNot:
      return TypeId::kInt64;
  }
  return TypeId::kNull;
}

std::string BoundUnary::ToString() const {
  return std::string(UnaryOpToString(op_)) + "(" + operand_->ToString() +
         ")";
}

namespace {

Result<Value> EvalArithmetic(BinaryOp op, const Value& l, const Value& r) {
  if (!l.is_numeric() || !r.is_numeric()) {
    return Status::TypeError(
        StrFormat("arithmetic '%s' requires numeric operands",
                  std::string(BinaryOpToString(op)).c_str()));
  }
  if (l.is_int() && r.is_int()) {
    int64_t a = l.AsInt();
    int64_t b = r.AsInt();
    switch (op) {
      case BinaryOp::kAdd: return Value::Int(a + b);
      case BinaryOp::kSub: return Value::Int(a - b);
      case BinaryOp::kMul: return Value::Int(a * b);
      case BinaryOp::kDiv:
        if (b == 0) return Status::ExecutionError("division by zero");
        return Value::Int(a / b);
      case BinaryOp::kMod:
        if (b == 0) return Status::ExecutionError("modulo by zero");
        return Value::Int(a % b);
      default:
        break;
    }
  }
  double a = l.NumericAsDouble();
  double b = r.NumericAsDouble();
  switch (op) {
    case BinaryOp::kAdd: return Value::Real(a + b);
    case BinaryOp::kSub: return Value::Real(a - b);
    case BinaryOp::kMul: return Value::Real(a * b);
    case BinaryOp::kDiv:
      if (b == 0) return Status::ExecutionError("division by zero");
      return Value::Real(a / b);
    case BinaryOp::kMod:
      if (b == 0) return Status::ExecutionError("modulo by zero");
      return Value::Real(std::fmod(a, b));
    default:
      break;
  }
  return Status::Internal("unknown arithmetic operator");
}

Result<Value> EvalComparison(BinaryOp op, const Value& l, const Value& r) {
  // Comparing a string with a numeric is almost certainly a query bug.
  if ((l.is_string() && r.is_numeric()) ||
      (l.is_numeric() && r.is_string())) {
    return Status::TypeError("cannot compare STRING with numeric");
  }
  int c = l.Compare(r);
  bool result;
  switch (op) {
    case BinaryOp::kEq: result = c == 0; break;
    case BinaryOp::kNe: result = c != 0; break;
    case BinaryOp::kLt: result = c < 0; break;
    case BinaryOp::kLe: result = c <= 0; break;
    case BinaryOp::kGt: result = c > 0; break;
    case BinaryOp::kGe: result = c >= 0; break;
    default:
      return Status::Internal("unknown comparison operator");
  }
  return Value::Int(result ? 1 : 0);
}

}  // namespace

Result<Value> BoundBinary::Eval(const Row& row) const {
  WSQ_ASSIGN_OR_RETURN(Value l, left_->Eval(row));

  // Short-circuit logic (NULL treated as false).
  if (op_ == BinaryOp::kAnd || op_ == BinaryOp::kOr) {
    bool lt = false;
    if (!l.is_null()) {
      WSQ_ASSIGN_OR_RETURN(lt, ValueIsTrue(l));
    }
    if (op_ == BinaryOp::kAnd && !lt) return Value::Int(0);
    if (op_ == BinaryOp::kOr && lt) return Value::Int(1);
    WSQ_ASSIGN_OR_RETURN(Value r, right_->Eval(row));
    bool rt = false;
    if (!r.is_null()) {
      WSQ_ASSIGN_OR_RETURN(rt, ValueIsTrue(r));
    }
    return Value::Int(rt ? 1 : 0);
  }

  WSQ_ASSIGN_OR_RETURN(Value r, right_->Eval(row));
  if (l.is_null() || r.is_null()) return Value::Null();
  if (l.is_placeholder() || r.is_placeholder()) {
    return Status::ExecutionError(
        "operation on incomplete (placeholder) value");
  }
  if (op_ == BinaryOp::kLike) {
    if (!l.is_string() || !r.is_string()) {
      return Status::TypeError("LIKE requires STRING operands");
    }
    return Value::Int(LikeMatch(l.AsString(), r.AsString()) ? 1 : 0);
  }
  if (IsComparisonOp(op_)) return EvalComparison(op_, l, r);
  return EvalArithmetic(op_, l, r);
}

TypeId BoundBinary::OutputType() const {
  if (IsComparisonOp(op_) || op_ == BinaryOp::kAnd ||
      op_ == BinaryOp::kOr || op_ == BinaryOp::kLike) {
    return TypeId::kInt64;
  }
  TypeId l = left_->OutputType();
  TypeId r = right_->OutputType();
  if (l == TypeId::kDouble || r == TypeId::kDouble) return TypeId::kDouble;
  if (l == TypeId::kInt64 && r == TypeId::kInt64) return TypeId::kInt64;
  return TypeId::kNull;
}

std::string BoundBinary::ToString() const {
  return StrFormat("(%s %s %s)", left_->ToString().c_str(),
                   std::string(BinaryOpToString(op_)).c_str(),
                   right_->ToString().c_str());
}

std::string_view ScalarFuncToString(ScalarFunc f) {
  switch (f) {
    case ScalarFunc::kUpper: return "UPPER";
    case ScalarFunc::kLower: return "LOWER";
    case ScalarFunc::kLength: return "LENGTH";
    case ScalarFunc::kAbs: return "ABS";
  }
  return "?";
}

bool LookupScalarFunc(const std::string& name, ScalarFunc* out) {
  std::string upper = ToUpper(name);
  if (upper == "UPPER") {
    *out = ScalarFunc::kUpper;
  } else if (upper == "LOWER") {
    *out = ScalarFunc::kLower;
  } else if (upper == "LENGTH") {
    *out = ScalarFunc::kLength;
  } else if (upper == "ABS") {
    *out = ScalarFunc::kAbs;
  } else {
    return false;
  }
  return true;
}

bool LikeMatch(std::string_view text, std::string_view pattern) {
  // Iterative two-pointer matcher with backtracking on the last '%'.
  size_t t = 0, p = 0;
  size_t star_p = std::string_view::npos, star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '_' || pattern[p] == text[t])) {
      ++t;
      ++p;
    } else if (p < pattern.size() && pattern[p] == '%') {
      star_p = p++;
      star_t = t;
    } else if (star_p != std::string_view::npos) {
      p = star_p + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

Result<Value> BoundFunction::Eval(const Row& row) const {
  std::vector<Value> args;
  args.reserve(args_.size());
  for (const auto& a : args_) {
    WSQ_ASSIGN_OR_RETURN(Value v, a->Eval(row));
    if (v.is_placeholder()) {
      return Status::ExecutionError(
          "function over an incomplete (placeholder) value");
    }
    args.push_back(std::move(v));
  }
  if (args.size() != 1) {
    return Status::TypeError(
        std::string(ScalarFuncToString(func_)) +
        " takes exactly one argument");
  }
  const Value& v = args[0];
  if (v.is_null()) return Value::Null();
  switch (func_) {
    case ScalarFunc::kUpper:
      if (!v.is_string()) {
        return Status::TypeError("UPPER requires a STRING argument");
      }
      return Value::Str(ToUpper(v.AsString()));
    case ScalarFunc::kLower:
      if (!v.is_string()) {
        return Status::TypeError("LOWER requires a STRING argument");
      }
      return Value::Str(ToLower(v.AsString()));
    case ScalarFunc::kLength:
      if (!v.is_string()) {
        return Status::TypeError("LENGTH requires a STRING argument");
      }
      return Value::Int(static_cast<int64_t>(v.AsString().size()));
    case ScalarFunc::kAbs:
      if (v.is_int()) {
        return Value::Int(v.AsInt() < 0 ? -v.AsInt() : v.AsInt());
      }
      if (v.is_double()) {
        return Value::Real(v.AsDouble() < 0 ? -v.AsDouble()
                                            : v.AsDouble());
      }
      return Status::TypeError("ABS requires a numeric argument");
  }
  return Status::Internal("unknown scalar function");
}

TypeId BoundFunction::OutputType() const {
  switch (func_) {
    case ScalarFunc::kUpper:
    case ScalarFunc::kLower:
      return TypeId::kString;
    case ScalarFunc::kLength:
      return TypeId::kInt64;
    case ScalarFunc::kAbs:
      return args_.empty() ? TypeId::kNull : args_[0]->OutputType();
  }
  return TypeId::kNull;
}

std::string BoundFunction::ToString() const {
  std::string out(ScalarFuncToString(func_));
  out += "(";
  for (size_t i = 0; i < args_.size(); ++i) {
    if (i > 0) out += ", ";
    out += args_[i]->ToString();
  }
  out += ")";
  return out;
}

BoundExprPtr BoundFunction::Clone() const {
  std::vector<BoundExprPtr> args;
  args.reserve(args_.size());
  for (const auto& a : args_) args.push_back(a->Clone());
  return std::make_unique<BoundFunction>(func_, std::move(args));
}

Result<bool> ValueIsTrue(const Value& v) {
  switch (v.type()) {
    case TypeId::kNull:
      return false;
    case TypeId::kInt64:
      return v.AsInt() != 0;
    case TypeId::kDouble:
      return v.AsDouble() != 0;
    case TypeId::kString:
      return Status::TypeError("STRING is not a valid predicate value");
    case TypeId::kPlaceholder:
      return Status::ExecutionError(
          "predicate on incomplete (placeholder) value");
  }
  return false;
}

Result<bool> EvalPredicate(const BoundExpr& expr, const Row& row) {
  WSQ_ASSIGN_OR_RETURN(Value v, expr.Eval(row));
  if (v.is_null()) return false;
  return ValueIsTrue(v);
}

}  // namespace wsq
