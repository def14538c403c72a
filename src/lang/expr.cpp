#include "lang/expr.hpp"

#include <stdexcept>

#include "common/check.hpp"

namespace selfsched::lang {

i64 Expr::eval(const IndexVec& ivec, i64 j) const {
  switch (op_) {
    case Op::kConst: return value_;
    case Op::kVar:
      if (slot_ == kLeafVar) return j;
      SS_DCHECK(static_cast<std::size_t>(slot_) < ivec.size());
      return ivec[static_cast<std::size_t>(slot_)];
    case Op::kNeg: return -a_->eval(ivec, j);
    case Op::kNot: return a_->eval(ivec, j) == 0 ? 1 : 0;
    default: break;
  }
  const i64 a = a_->eval(ivec, j);
  // Short-circuit the logical connectives.
  if (op_ == Op::kAnd) return (a != 0 && b_->eval(ivec, j) != 0) ? 1 : 0;
  if (op_ == Op::kOr) return (a != 0 || b_->eval(ivec, j) != 0) ? 1 : 0;
  const i64 b = b_->eval(ivec, j);
  switch (op_) {
    case Op::kAdd: return a + b;
    case Op::kSub: return a - b;
    case Op::kMul: return a * b;
    case Op::kDiv:
      if (b == 0) throw std::logic_error("division by zero in loop program");
      return a / b;
    case Op::kMod:
      if (b == 0) throw std::logic_error("modulo by zero in loop program");
      return ((a % b) + b) % b;  // mathematical mod: non-negative result
    case Op::kEq: return a == b ? 1 : 0;
    case Op::kNe: return a != b ? 1 : 0;
    case Op::kLt: return a < b ? 1 : 0;
    case Op::kLe: return a <= b ? 1 : 0;
    case Op::kGt: return a > b ? 1 : 0;
    case Op::kGe: return a >= b ? 1 : 0;
    default: break;
  }
  SS_FATAL("unreachable expression op");
}

bool Expr::is_constant() const {
  switch (op_) {
    case Op::kConst: return true;
    case Op::kVar: return false;
    case Op::kNeg:
    case Op::kNot: return a_->is_constant();
    default: return a_->is_constant() && b_->is_constant();
  }
}

ExprPtr Expr::constant(i64 v) {
  return ExprPtr(new Expr(Op::kConst, v, 0, {}, nullptr, nullptr));
}

ExprPtr Expr::var(i32 slot, std::string name) {
  return ExprPtr(
      new Expr(Op::kVar, 0, slot, std::move(name), nullptr, nullptr));
}

ExprPtr Expr::unary(Op op, ExprPtr a) {
  SS_CHECK(op == Op::kNeg || op == Op::kNot);
  return ExprPtr(new Expr(op, 0, 0, {}, std::move(a), nullptr));
}

ExprPtr Expr::binary(Op op, ExprPtr a, ExprPtr b) {
  return ExprPtr(new Expr(op, 0, 0, {}, std::move(a), std::move(b)));
}

std::string Expr::to_string() const {
  // append, not "literal" + std::string: GCC 12's -O3 -Wrestrict reports
  // a false positive on the latter.
  const auto bin = [this](const char* sym) {
    return std::string("(")
        .append(a_->to_string())
        .append(" ")
        .append(sym)
        .append(" ")
        .append(b_->to_string())
        .append(")");
  };
  const auto un = [this](const char* prefix) {
    return std::string(prefix).append(a_->to_string()).append(")");
  };
  switch (op_) {
    case Op::kConst: return std::to_string(value_);
    case Op::kVar: return name_;
    case Op::kNeg: return un("(-");
    case Op::kNot: return un("(NOT ");
    case Op::kAdd: return bin("+");
    case Op::kSub: return bin("-");
    case Op::kMul: return bin("*");
    case Op::kDiv: return bin("/");
    case Op::kMod: return bin("%");
    case Op::kEq: return bin("==");
    case Op::kNe: return bin("!=");
    case Op::kLt: return bin("<");
    case Op::kLe: return bin("<=");
    case Op::kGt: return bin(">");
    case Op::kGe: return bin(">=");
    case Op::kAnd: return bin("&&");
    case Op::kOr: return bin("||");
  }
  return "?";
}

}  // namespace selfsched::lang
