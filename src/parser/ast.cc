#include "parser/ast.h"

#include "common/strings.h"

namespace wsq {

std::string_view BinaryOpToString(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd: return "+";
    case BinaryOp::kSub: return "-";
    case BinaryOp::kMul: return "*";
    case BinaryOp::kDiv: return "/";
    case BinaryOp::kMod: return "%";
    case BinaryOp::kEq: return "=";
    case BinaryOp::kNe: return "<>";
    case BinaryOp::kLt: return "<";
    case BinaryOp::kLe: return "<=";
    case BinaryOp::kGt: return ">";
    case BinaryOp::kGe: return ">=";
    case BinaryOp::kLike: return "LIKE";
    case BinaryOp::kAnd: return "AND";
    case BinaryOp::kOr: return "OR";
  }
  return "?";
}

std::string_view UnaryOpToString(UnaryOp op) {
  switch (op) {
    case UnaryOp::kNeg: return "-";
    case UnaryOp::kNot: return "NOT ";
  }
  return "?";
}

bool IsComparisonOp(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      return true;
    default:
      return false;
  }
}

std::string ColumnRefExpr::ToString() const {
  if (qualifier_.empty()) return name_;
  return qualifier_ + "." + name_;
}

std::string UnaryExpr::ToString() const {
  return std::string(UnaryOpToString(op_)) + "(" + operand_->ToString() +
         ")";
}

std::string BinaryExpr::ToString() const {
  return StrFormat("(%s %s %s)", left_->ToString().c_str(),
                   std::string(BinaryOpToString(op_)).c_str(),
                   right_->ToString().c_str());
}

std::string FuncExpr::ToString() const {
  std::string out = name_ + "(";
  for (size_t i = 0; i < args_.size(); ++i) {
    if (i > 0) out += ", ";
    out += args_[i]->ToString();
  }
  out += ")";
  return out;
}

ParsedExprPtr FuncExpr::Clone() const {
  std::vector<ParsedExprPtr> args;
  args.reserve(args_.size());
  for (const auto& a : args_) args.push_back(a->Clone());
  return std::make_unique<FuncExpr>(name_, std::move(args));
}

}  // namespace wsq
