#include "source/interp.h"

#include <cstring>
#include <stdexcept>

#include "isa/runtime_scalar.h"

namespace patchecko {

namespace {

// Thrown internally to unwind on traps; converted to ExecResult at the top.
struct Trap {
  ExecStatus status;
};

// Thrown to implement `return` from nested statement bodies.
struct ReturnSignal {
  Value value;
};

class Interpreter {
 public:
  Interpreter(const SourceLibrary& library, CallEnv& env,
              std::uint64_t step_limit)
      : library_(library), env_(env), step_limit_(step_limit) {}

  ExecResult run(std::size_t function_index) {
    ExecResult result;
    try {
      const Value ret = call_function(function_index, env_.args);
      result.ret = ret;
      result.status = ExecStatus::ok;
    } catch (const Trap& trap) {
      result.status = trap.status;
    }
    result.steps = steps_;
    return result;
  }

 private:
  struct Frame {
    const SourceFunction* function = nullptr;
    std::vector<Value> params;
    std::vector<Value> locals;
  };

  void tick() {
    if (++steps_ > step_limit_) throw Trap{ExecStatus::trap_step_limit};
  }

  Value call_function(std::size_t index, const std::vector<Value>& args) {
    if (index >= library_.functions.size())
      throw Trap{ExecStatus::trap_type};
    if (call_depth_ > 64) throw Trap{ExecStatus::trap_step_limit};
    ++call_depth_;
    const SourceFunction& fn = library_.functions[index];
    Frame frame;
    frame.function = &fn;
    frame.params = args;
    frame.params.resize(fn.param_types.size());  // missing args default to 0
    frame.locals.assign(fn.local_types.size(), Value{});
    for (std::size_t i = 0; i < fn.local_types.size(); ++i)
      frame.locals[i].type = fn.local_types[i];

    Value ret = Value::from_int(0);
    try {
      exec_body(fn.body, frame);
    } catch (ReturnSignal& signal) {
      ret = signal.value;
    }
    --call_depth_;
    return ret;
  }

  void exec_body(const std::vector<StmtPtr>& body, Frame& frame) {
    for (const auto& stmt : body) exec_stmt(*stmt, frame);
  }

  void exec_stmt(const Stmt& stmt, Frame& frame) {
    tick();
    switch (stmt.kind) {
      case Stmt::Kind::assign: {
        Value v = eval(*stmt.expr, frame);
        if (stmt.local_index < 0 ||
            static_cast<std::size_t>(stmt.local_index) >=
                frame.locals.size())
          throw Trap{ExecStatus::trap_type};
        frame.locals[static_cast<std::size_t>(stmt.local_index)] = v;
        break;
      }
      case Stmt::Kind::index_store: {
        const Value base = eval(*stmt.base, frame);
        const Value index = eval(*stmt.index, frame);
        const Value value = eval(*stmt.value, frame);
        store_indexed(base, as_int(index), as_int(value), stmt.byte_access);
        break;
      }
      case Stmt::Kind::if_else: {
        const Value cond = eval(*stmt.expr, frame);
        if (as_int(cond) != 0)
          exec_body(stmt.then_body, frame);
        else
          exec_body(stmt.else_body, frame);
        break;
      }
      case Stmt::Kind::for_loop: {
        const std::int64_t init = as_int(eval(*stmt.init, frame));
        const std::int64_t bound = as_int(eval(*stmt.bound, frame));
        const std::size_t slot = static_cast<std::size_t>(stmt.local_index);
        if (slot >= frame.locals.size()) throw Trap{ExecStatus::trap_type};
        // Mirrors the compiled loop exactly: the counter local is set to
        // init before the first test, tracks the body's view each iteration,
        // and holds the first value >= bound after exit.
        std::int64_t i = init;
        frame.locals[slot] = Value::from_int(i);
        while (i < bound) {
          tick();
          exec_body(stmt.then_body, frame);
          i = as_int(frame.locals[slot]);  // body may rewrite the counter
          i = rt::wrap_add(i, stmt.step_value);
          frame.locals[slot] = Value::from_int(i);
        }
        break;
      }
      case Stmt::Kind::ret: {
        ReturnSignal signal;
        signal.value =
            stmt.expr ? eval(*stmt.expr, frame) : Value::from_int(0);
        throw signal;
      }
      case Stmt::Kind::expr_stmt:
        (void)eval(*stmt.expr, frame);
        break;
      case Stmt::Kind::syscall_stmt:
        (void)eval(*stmt.expr, frame);  // argument evaluated; call is a no-op
        break;
      case Stmt::Kind::switch_stmt: {
        const std::int64_t selector = as_int(eval(*stmt.expr, frame));
        if (!stmt.cases.empty()) {
          std::int64_t idx = selector % static_cast<std::int64_t>(
                                            stmt.cases.size());
          if (idx < 0) idx += static_cast<std::int64_t>(stmt.cases.size());
          exec_body(stmt.cases[static_cast<std::size_t>(idx)], frame);
        }
        break;
      }
    }
  }

  Value eval(const Expr& expr, Frame& frame) {
    tick();
    switch (expr.kind) {
      case Expr::Kind::int_const:
        return Value::from_int(expr.int_value);
      case Expr::Kind::fp_const:
        return Value::from_fp(expr.fp_value);
      case Expr::Kind::param_ref: {
        const auto idx = static_cast<std::size_t>(expr.int_value);
        if (idx >= frame.params.size()) throw Trap{ExecStatus::trap_type};
        return frame.params[idx];
      }
      case Expr::Kind::local_ref: {
        const auto idx = static_cast<std::size_t>(expr.int_value);
        if (idx >= frame.locals.size()) throw Trap{ExecStatus::trap_type};
        return frame.locals[idx];
      }
      case Expr::Kind::binop:
        return eval_binop(expr, frame);
      case Expr::Kind::unop:
        return eval_unop(expr, frame);
      case Expr::Kind::index_load: {
        const Value base = eval(*expr.args[0], frame);
        const Value index = eval(*expr.args[1], frame);
        return Value::from_int(
            load_indexed(base, as_int(index), expr.byte_access));
      }
      case Expr::Kind::libcall:
        return eval_libcall(expr, frame);
      case Expr::Kind::strref:
        return Value::from_ptr(-2 - static_cast<int>(expr.int_value), 0);
      case Expr::Kind::ptr_offset: {
        Value base = eval(*expr.args[0], frame);
        const Value disp = eval(*expr.args[1], frame);
        if (base.type != ValueType::ptr) throw Trap{ExecStatus::trap_type};
        base.offset += as_int(disp);
        return base;
      }
      case Expr::Kind::fn_call: {
        std::vector<Value> args;
        args.reserve(expr.args.size());
        for (const auto& arg : expr.args) args.push_back(eval(*arg, frame));
        return call_function(static_cast<std::size_t>(expr.callee), args);
      }
      case Expr::Kind::indirect_call: {
        const std::int64_t selector = as_int(eval(*expr.args[0], frame));
        const std::int64_t target =
            (selector & 1) != 0 ? expr.int_value : expr.callee;
        std::vector<Value> args;
        args.reserve(expr.args.size() - 1);
        for (std::size_t a = 1; a < expr.args.size(); ++a)
          args.push_back(eval(*expr.args[a], frame));
        return call_function(static_cast<std::size_t>(target), args);
      }
    }
    throw Trap{ExecStatus::trap_type};
  }

  Value eval_binop(const Expr& expr, Frame& frame) {
    // Short-circuit logical operators, matching the branch-based lowering
    // the compiler emits.
    if (expr.bin_op == BinOp::land) {
      if (as_int(eval(*expr.args[0], frame)) == 0) return Value::from_int(0);
      return Value::from_int(as_int(eval(*expr.args[1], frame)) != 0 ? 1 : 0);
    }
    if (expr.bin_op == BinOp::lor) {
      if (as_int(eval(*expr.args[0], frame)) != 0) return Value::from_int(1);
      return Value::from_int(as_int(eval(*expr.args[1], frame)) != 0 ? 1 : 0);
    }
    const Value lhs = eval(*expr.args[0], frame);
    const Value rhs = eval(*expr.args[1], frame);
    if (binop_is_fp(expr.bin_op)) {
      const double a = as_fp(lhs);
      const double b = as_fp(rhs);
      switch (expr.bin_op) {
        case BinOp::fadd: return Value::from_fp(a + b);
        case BinOp::fsub: return Value::from_fp(a - b);
        case BinOp::fmul: return Value::from_fp(a * b);
        case BinOp::fdiv:
          return Value::from_fp(b == 0.0 ? 0.0 : a / b);
        case BinOp::flt: return Value::from_int(a < b ? 1 : 0);
        case BinOp::fgt: return Value::from_int(a > b ? 1 : 0);
        default: break;
      }
      throw Trap{ExecStatus::trap_type};
    }
    const std::int64_t a = as_int(lhs);
    const std::int64_t b = as_int(rhs);
    switch (expr.bin_op) {
      case BinOp::add: return Value::from_int(rt::wrap_add(a, b));
      case BinOp::sub: return Value::from_int(rt::wrap_sub(a, b));
      case BinOp::mul: return Value::from_int(rt::wrap_mul(a, b));
      case BinOp::divi:
        if (b == 0) throw Trap{ExecStatus::trap_div_zero};
        if (a == std::numeric_limits<std::int64_t>::min() && b == -1)
          return Value::from_int(a);
        return Value::from_int(a / b);
      case BinOp::modi:
        if (b == 0) throw Trap{ExecStatus::trap_div_zero};
        if (a == std::numeric_limits<std::int64_t>::min() && b == -1)
          return Value::from_int(0);
        return Value::from_int(a % b);
      case BinOp::band: return Value::from_int(a & b);
      case BinOp::bor: return Value::from_int(a | b);
      case BinOp::bxor: return Value::from_int(a ^ b);
      case BinOp::shl: return Value::from_int(rt::wrap_shl(a, b));
      case BinOp::shr: return Value::from_int(rt::wrap_shr(a, b));
      case BinOp::lt: return Value::from_int(a < b ? 1 : 0);
      case BinOp::le: return Value::from_int(a <= b ? 1 : 0);
      case BinOp::gt: return Value::from_int(a > b ? 1 : 0);
      case BinOp::ge: return Value::from_int(a >= b ? 1 : 0);
      case BinOp::eq: return Value::from_int(a == b ? 1 : 0);
      case BinOp::ne: return Value::from_int(a != b ? 1 : 0);
      default: break;
    }
    throw Trap{ExecStatus::trap_type};
  }

  Value eval_unop(const Expr& expr, Frame& frame) {
    const Value operand = eval(*expr.args[0], frame);
    switch (expr.un_op) {
      case UnOp::neg:
        return Value::from_int(rt::wrap_sub(0, as_int(operand)));
      case UnOp::lnot:
        return Value::from_int(as_int(operand) == 0 ? 1 : 0);
      case UnOp::fneg:
        return Value::from_fp(-as_fp(operand));
      case UnOp::to_f64:
        return Value::from_fp(static_cast<double>(as_int(operand)));
      case UnOp::to_i64: {
        const double v = as_fp(operand);
        if (!(v >= -9.0e18 && v <= 9.0e18)) return Value::from_int(0);
        return Value::from_int(static_cast<std::int64_t>(v));
      }
    }
    throw Trap{ExecStatus::trap_type};
  }

  Value eval_libcall(const Expr& expr, Frame& frame) {
    std::vector<Value> args;
    args.reserve(expr.args.size());
    for (const auto& arg : expr.args) args.push_back(eval(*arg, frame));
    auto arg_int = [&](std::size_t i) {
      return i < args.size() ? as_int(args[i]) : 0;
    };
    auto arg_fp = [&](std::size_t i) {
      return i < args.size() ? as_fp(args[i]) : 0.0;
    };
    switch (expr.lib_fn) {
      case LibFn::memmove:
      case LibFn::memcpy: {
        // Identical overlap-safe semantics (the VM mirrors this).
        mem_copy(args.at(0), args.at(1), arg_int(2));
        return args.at(0);
      }
      case LibFn::memset: {
        auto [buf, off] = writable(args.at(0));
        const std::int64_t n = arg_int(2);
        check_range(*buf, off, n);
        std::memset(buf->data() + off, static_cast<int>(arg_int(1) & 0xff),
                    static_cast<std::size_t>(n));
        return args.at(0);
      }
      case LibFn::strlen: {
        return Value::from_int(str_length(args.at(0)));
      }
      case LibFn::strcmp: {
        return Value::from_int(str_compare(args.at(0), args.at(1)));
      }
      case LibFn::strcpy: {
        const std::int64_t n = str_length(args.at(1));
        mem_copy(args.at(0), args.at(1), n + 1);
        return args.at(0);
      }
      case LibFn::malloc: {
        const std::int64_t n = rt::clamp64(arg_int(0), 0, rt::malloc_max);
        heap_bytes_ += rt::heap_footprint(n);
        if (heap_bytes_ > rt::heap_limit) throw Trap{ExecStatus::trap_oob};
        env_.buffers.emplace_back(static_cast<std::size_t>(n), 0);
        return Value::from_ptr(static_cast<int>(env_.buffers.size()) - 1, 0);
      }
      case LibFn::free:
        return Value::from_int(0);
      case LibFn::abs64:
        return Value::from_int(rt::abs64(arg_int(0)));
      case LibFn::imin:
        return Value::from_int(rt::imin(arg_int(0), arg_int(1)));
      case LibFn::imax:
        return Value::from_int(rt::imax(arg_int(0), arg_int(1)));
      case LibFn::clamp:
        return Value::from_int(
            rt::clamp64(arg_int(0), arg_int(1), arg_int(2)));
      case LibFn::fsqrt:
        return Value::from_fp(rt::fsqrt(arg_fp(0)));
      case LibFn::fpow:
        return Value::from_fp(rt::fpow(arg_fp(0), arg_fp(1)));
      case LibFn::ffloor:
        return Value::from_fp(rt::ffloor(arg_fp(0)));
      case LibFn::crc32: {
        std::uint32_t crc = 0xffffffffu;
        const std::int64_t n = arg_int(1);
        const Value& ptr = args.at(0);
        for (std::int64_t i = 0; i < n; ++i)
          crc = rt::crc32_step(crc, read_byte(ptr, i));
        return Value::from_int(static_cast<std::int64_t>(crc ^ 0xffffffffu));
      }
      case LibFn::byte_swap:
        return Value::from_int(static_cast<std::int64_t>(
            rt::byte_swap(static_cast<std::uint64_t>(arg_int(0)))));
      case LibFn::checked_add:
        return Value::from_int(rt::checked_add(arg_int(0), arg_int(1)));
      case LibFn::count:
        break;
    }
    throw Trap{ExecStatus::trap_type};
  }

  // ---- memory helpers -----------------------------------------------------

  static std::int64_t as_int(const Value& v) {
    if (v.type == ValueType::f64) return static_cast<std::int64_t>(v.f);
    if (v.type == ValueType::ptr) return v.offset;  // arithmetic on pointers
    return v.i;
  }

  static double as_fp(const Value& v) {
    if (v.type == ValueType::f64) return v.f;
    return static_cast<double>(v.i);
  }

  /// Resolves a pointer value to a writable buffer; string pool and invalid
  /// ids trap.
  std::pair<std::vector<std::uint8_t>*, std::int64_t> writable(
      const Value& ptr) {
    if (ptr.type != ValueType::ptr) throw Trap{ExecStatus::trap_type};
    if (ptr.buffer < 0 ||
        static_cast<std::size_t>(ptr.buffer) >= env_.buffers.size())
      throw Trap{ExecStatus::trap_oob};
    return {&env_.buffers[static_cast<std::size_t>(ptr.buffer)], ptr.offset};
  }

  void check_range(const std::vector<std::uint8_t>& buf, std::int64_t off,
                   std::int64_t len) {
    if (off < 0 || len < 0 ||
        off + len > static_cast<std::int64_t>(buf.size()))
      throw Trap{ExecStatus::trap_oob};
  }

  std::uint8_t read_byte(const Value& ptr, std::int64_t index) {
    if (ptr.type != ValueType::ptr) throw Trap{ExecStatus::trap_type};
    const std::int64_t off = ptr.offset + index;
    if (ptr.buffer <= -2) {
      const int sid = -2 - ptr.buffer;
      if (sid < 0 || static_cast<std::size_t>(sid) >= library_.strings.size())
        throw Trap{ExecStatus::trap_oob};
      const std::string& s = library_.strings[static_cast<std::size_t>(sid)];
      // NUL terminator is addressable, matching C string literals.
      if (off < 0 || off > static_cast<std::int64_t>(s.size()))
        throw Trap{ExecStatus::trap_oob};
      return off == static_cast<std::int64_t>(s.size())
                 ? 0
                 : static_cast<std::uint8_t>(s[static_cast<std::size_t>(off)]);
    }
    if (ptr.buffer < 0 ||
        static_cast<std::size_t>(ptr.buffer) >= env_.buffers.size())
      throw Trap{ExecStatus::trap_oob};
    const auto& buf = env_.buffers[static_cast<std::size_t>(ptr.buffer)];
    if (off < 0 || off >= static_cast<std::int64_t>(buf.size()))
      throw Trap{ExecStatus::trap_oob};
    return buf[static_cast<std::size_t>(off)];
  }

  void write_byte(const Value& ptr, std::int64_t index, std::uint8_t byte) {
    auto [buf, base] = writable(ptr);
    const std::int64_t off = base + index;
    if (off < 0 || off >= static_cast<std::int64_t>(buf->size()))
      throw Trap{ExecStatus::trap_oob};
    (*buf)[static_cast<std::size_t>(off)] = byte;
  }

  std::int64_t load_indexed(const Value& base, std::int64_t index,
                            bool byte_access) {
    if (byte_access) return read_byte(base, index);
    std::uint64_t word = 0;
    for (int b = 0; b < 8; ++b)
      word |= static_cast<std::uint64_t>(read_byte(base, index * 8 + b))
              << (8 * b);
    return static_cast<std::int64_t>(word);
  }

  void store_indexed(const Value& base, std::int64_t index,
                     std::int64_t value, bool byte_access) {
    if (byte_access) {
      write_byte(base, index, static_cast<std::uint8_t>(value & 0xff));
      return;
    }
    for (int b = 0; b < 8; ++b)
      write_byte(base, index * 8 + b,
                 static_cast<std::uint8_t>(
                     (static_cast<std::uint64_t>(value) >> (8 * b)) & 0xff));
  }

  void mem_copy(const Value& dst, const Value& src, std::int64_t n) {
    if (n < 0) throw Trap{ExecStatus::trap_oob};
    // Read everything first, then write: overlap-safe like memmove.
    std::vector<std::uint8_t> staged(static_cast<std::size_t>(n));
    for (std::int64_t i = 0; i < n; ++i) staged[static_cast<std::size_t>(i)] =
        read_byte(src, i);
    for (std::int64_t i = 0; i < n; ++i)
      write_byte(dst, i, staged[static_cast<std::size_t>(i)]);
  }

  std::int64_t str_length(const Value& ptr) {
    for (std::int64_t i = 0;; ++i) {
      tick();
      std::uint8_t byte = 0;
      try {
        byte = read_byte(ptr, i);
      } catch (const Trap&) {
        return i;  // unterminated buffer: length = remaining bytes
      }
      if (byte == 0) return i;
    }
  }

  std::int64_t str_compare(const Value& a, const Value& b) {
    const std::int64_t la = str_length(a);
    const std::int64_t lb = str_length(b);
    const std::int64_t n = rt::imin(la, lb);
    for (std::int64_t i = 0; i < n; ++i) {
      const int ca = read_byte(a, i);
      const int cb = read_byte(b, i);
      if (ca != cb) return ca < cb ? -1 : 1;
    }
    if (la == lb) return 0;
    return la < lb ? -1 : 1;
  }

  const SourceLibrary& library_;
  CallEnv& env_;
  std::uint64_t step_limit_;
  std::uint64_t steps_ = 0;
  int call_depth_ = 0;
  std::int64_t heap_bytes_ = 0;  ///< malloc'd this run (see rt::heap_limit)
};

}  // namespace

ExecResult interpret(const SourceLibrary& library, std::size_t function_index,
                     CallEnv& env, std::uint64_t step_limit) {
  Interpreter interp(library, env, step_limit);
  return interp.run(function_index);
}

}  // namespace patchecko
