// A frozen copy of the VM's original execution engine: one heap-allocated
// memory image, register vector, and set of hash-mapped site counters per
// run. It is the behavioural reference for Machine::run, which keeps its
// execution state in per-thread scratch instead; tests compare the two
// field by field. Do not optimize or "fix" this file: its value is that it
// does not change.
#include "vm_reference.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <unordered_map>

#include "isa/runtime_scalar.h"

namespace patchecko::vm_reference {

namespace {

struct Trap {
  ExecStatus status;
};

enum class RegionKind : std::uint8_t { lib, anon, heap, stack };

struct MemObject {
  std::int64_t base = 0;
  std::int64_t size = 0;
  bool writable = true;
  RegionKind kind = RegionKind::anon;
  std::vector<std::uint8_t> bytes;
};

constexpr std::int64_t lib_base = 0x10000000;
constexpr std::int64_t heap_base = 0x50000000;
constexpr std::int64_t anon_base = 0x60000000;
constexpr std::int64_t stack_base = 0x70000000;

class Execution {
 public:
  Execution(const LibraryBinary& library, const MachineConfig& config,
            const CallEnv& env)
      : library_(library), config_(config) {
    build_memory(env);
  }

  RunResult run(std::size_t function_index, const CallEnv& env) {
    RunResult result;
    try {
      setup_entry(function_index, env);
      result.ret = execute();
      result.status = ExecStatus::ok;
    } catch (const Trap& trap) {
      result.status = trap.status;
    }
    result.steps = steps_;
    finalize_features();
    result.features = features_;
    // Return mutated environment buffers (index-aligned with env.buffers).
    for (std::size_t i = 0; i < env_buffer_objects_.size(); ++i)
      result.buffers_after.push_back(
          objects_[env_buffer_objects_[i]].bytes);
    return result;
  }

 private:
  // --- memory ---------------------------------------------------------------

  void add_object(MemObject object) {
    objects_.push_back(std::move(object));
  }

  void build_memory(const CallEnv& env) {
    // String pool: one read-only object per string, NUL included.
    std::int64_t cursor = lib_base;
    string_bases_.reserve(library_.strings.size());
    for (const std::string& s : library_.strings) {
      MemObject object;
      object.base = cursor;
      object.size = static_cast<std::int64_t>(s.size()) + 1;
      object.writable = false;
      object.kind = RegionKind::lib;
      object.bytes.assign(s.begin(), s.end());
      object.bytes.push_back(0);
      string_bases_.push_back(cursor);
      cursor += object.size + 63;
      cursor &= ~std::int64_t{63};
      add_object(std::move(object));
    }
    // Environment buffers: anonymous mappings with guard gaps.
    cursor = anon_base;
    for (const auto& buffer : env.buffers) {
      MemObject object;
      object.base = cursor;
      object.size = static_cast<std::int64_t>(buffer.size());
      object.kind = RegionKind::anon;
      object.bytes = buffer;
      env_buffer_objects_.push_back(objects_.size());
      buffer_bases_.push_back(cursor);
      cursor += object.size + 4095;
      cursor &= ~std::int64_t{4095};
      if (object.size == 0) cursor += 4096;
      add_object(std::move(object));
    }
    // Stack.
    MemObject stack;
    stack.base = stack_base;
    stack.size = config_.stack_size;
    stack.kind = RegionKind::stack;
    stack.bytes.assign(static_cast<std::size_t>(config_.stack_size), 0);
    add_object(std::move(stack));

    heap_cursor_ = heap_base;
  }

  MemObject& object_at(std::int64_t addr) {
    for (MemObject& object : objects_) {
      if (addr >= object.base && addr < object.base + object.size)
        return object;
    }
    throw Trap{ExecStatus::trap_oob};
  }

  void count_access(RegionKind kind, std::uint64_t n = 1) {
    if (!config_.collect_features) return;
    switch (kind) {
      case RegionKind::heap: features_.mem_heap += n; break;
      case RegionKind::stack: features_.mem_stack += n; break;
      case RegionKind::lib: features_.mem_lib += n; break;
      case RegionKind::anon: features_.mem_anon += n; break;
    }
  }

  std::uint8_t read_byte(std::int64_t addr, bool count = true) {
    MemObject& object = object_at(addr);
    if (count) count_access(object.kind);
    return object.bytes[static_cast<std::size_t>(addr - object.base)];
  }

  void write_byte(std::int64_t addr, std::uint8_t byte, bool count = true) {
    MemObject& object = object_at(addr);
    if (!object.writable) throw Trap{ExecStatus::trap_oob};
    if (count) count_access(object.kind);
    object.bytes[static_cast<std::size_t>(addr - object.base)] = byte;
  }

  std::int64_t read_word(std::int64_t addr) {
    MemObject& object = object_at(addr);
    if (addr + 8 > object.base + object.size)
      throw Trap{ExecStatus::trap_oob};
    count_access(object.kind);
    std::uint64_t word = 0;
    const auto off = static_cast<std::size_t>(addr - object.base);
    for (int b = 0; b < 8; ++b)
      word |= static_cast<std::uint64_t>(object.bytes[off + b]) << (8 * b);
    return static_cast<std::int64_t>(word);
  }

  void write_word(std::int64_t addr, std::int64_t value) {
    MemObject& object = object_at(addr);
    if (!object.writable) throw Trap{ExecStatus::trap_oob};
    if (addr + 8 > object.base + object.size)
      throw Trap{ExecStatus::trap_oob};
    count_access(object.kind);
    const auto off = static_cast<std::size_t>(addr - object.base);
    for (int b = 0; b < 8; ++b)
      object.bytes[off + b] = static_cast<std::uint8_t>(
          (static_cast<std::uint64_t>(value) >> (8 * b)) & 0xff);
  }

  // --- execution state --------------------------------------------------------

  struct Frame {
    std::vector<std::int64_t> regs;
    std::size_t fn = 0;
    std::int64_t pc = 0;
    std::int64_t saved_sp = 0;
    std::int64_t saved_fp = 0;
    std::int64_t ret_pc = 0;
  };

  void setup_entry(std::size_t function_index, const CallEnv& env) {
    if (function_index >= library_.functions.size())
      throw Trap{ExecStatus::trap_type};
    sp_ = stack_base + config_.stack_size;
    fp_ = sp_;
    Frame frame;
    frame.fn = function_index;
    frame.pc = 0;
    frame.regs.assign(
        static_cast<std::size_t>(register_count(library_.arch)), 0);
    for (std::size_t i = 0; i < env.args.size() && i < 4; ++i)
      frame.regs[i] = arg_value(env.args[i]);
    frames_.push_back(std::move(frame));
  }

  std::int64_t arg_value(const Value& value) {
    switch (value.type) {
      case ValueType::i64:
        return value.i;
      case ValueType::f64:
        return std::bit_cast<std::int64_t>(value.f);
      case ValueType::ptr: {
        if (value.buffer <= -2) {
          const int sid = -2 - value.buffer;
          if (sid < 0 ||
              static_cast<std::size_t>(sid) >= string_bases_.size())
            throw Trap{ExecStatus::trap_type};
          return string_bases_[static_cast<std::size_t>(sid)] + value.offset;
        }
        if (value.buffer < 0 ||
            static_cast<std::size_t>(value.buffer) >= buffer_bases_.size())
          throw Trap{ExecStatus::trap_type};
        return buffer_bases_[static_cast<std::size_t>(value.buffer)] +
               value.offset;
      }
    }
    throw Trap{ExecStatus::trap_type};
  }

  std::int64_t read_reg(const Frame& frame, std::uint8_t index) {
    if (index == reg::sp) return sp_;
    if (index == reg::fp) return fp_;
    if (index >= frame.regs.size()) throw Trap{ExecStatus::trap_type};
    return frame.regs[index];
  }

  void write_reg(Frame& frame, std::uint8_t index, std::int64_t value) {
    if (index >= frame.regs.size()) throw Trap{ExecStatus::trap_type};
    frame.regs[index] = value;
  }

  // --- feature bookkeeping ----------------------------------------------------

  void observe(const Frame& frame, const Instruction& inst) {
    ++steps_;
    if (steps_ > config_.step_limit) throw Trap{ExecStatus::trap_step_limit};
    if (!config_.collect_features) return;

    DynamicFeatures& f = features_;
    ++f.instructions;

    // Unique sites.
    auto& visited = visited_[frame.fn];
    if (visited.empty())
      visited.assign(library_.functions[frame.fn].code.size(), 0);
    const auto pc = static_cast<std::size_t>(frame.pc);
    if (visited[pc] == 0) {
      visited[pc] = 1;
      ++f.unique_instructions;
    }

    // Stack depth sample: the paper's traces bottom out at 2 (debugger +
    // target frame), which our single entry frame reproduces as frames+1.
    const double depth = static_cast<double>(frames_.size()) + 1.0;
    depth_min_ = depth_count_ == 0 ? depth : std::min(depth_min_, depth);
    depth_max_ = std::max(depth_max_, depth);
    depth_sum_ += depth;
    depth_sq_sum_ += depth * depth;
    ++depth_count_;

    const Opcode op = inst.op;
    if (is_arith(op)) {
      ++f.arith_instructions;
      const std::uint64_t key =
          (static_cast<std::uint64_t>(frame.fn) << 32) |
          static_cast<std::uint64_t>(frame.pc);
      const std::uint64_t hits = ++arith_counts_[key];
      f.max_arith_frequency = std::max(f.max_arith_frequency, hits);
    }
    if (is_branch(op)) {
      ++f.branch_instructions;
      const std::uint64_t key =
          (static_cast<std::uint64_t>(frame.fn) << 32) |
          static_cast<std::uint64_t>(frame.pc);
      const std::uint64_t hits = ++branch_counts_[key];
      f.max_branch_frequency = std::max(f.max_branch_frequency, hits);
    }
    if (is_load(op)) ++f.load_instructions;
    if (is_store(op)) ++f.store_instructions;
    if (is_call(op) || op == Opcode::libcall || op == Opcode::syscall)
      ++f.call_instructions;
    if (is_call(op)) ++f.binary_fun_calls;
    if (op == Opcode::libcall) ++f.library_calls;
    if (op == Opcode::syscall) ++f.syscalls;
  }

  void finalize_features() {
    if (depth_count_ == 0) return;
    features_.min_stack_depth = depth_min_;
    features_.max_stack_depth = depth_max_;
    const double mean = depth_sum_ / static_cast<double>(depth_count_);
    features_.avg_stack_depth = mean;
    const double var =
        depth_sq_sum_ / static_cast<double>(depth_count_) - mean * mean;
    features_.std_stack_depth = var > 0.0 ? std::sqrt(var) : 0.0;
  }

  // --- runtime library ----------------------------------------------------------

  std::int64_t strlen_at(std::int64_t addr) {
    MemObject& object = object_at(addr);
    std::int64_t n = 0;
    auto off = static_cast<std::size_t>(addr - object.base);
    while (off < object.bytes.size() && object.bytes[off] != 0) {
      ++n;
      ++off;
    }
    count_access(object.kind, static_cast<std::uint64_t>(n) + 1);
    return n;
  }

  void mem_copy(std::int64_t dst, std::int64_t src, std::int64_t n) {
    if (n < 0) throw Trap{ExecStatus::trap_oob};
    std::vector<std::uint8_t> staged(static_cast<std::size_t>(n));
    for (std::int64_t i = 0; i < n; ++i)
      staged[static_cast<std::size_t>(i)] = read_byte(src + i);
    for (std::int64_t i = 0; i < n; ++i)
      write_byte(dst + i, staged[static_cast<std::size_t>(i)]);
  }

  std::int64_t run_libcall(Frame& frame, LibFn fn) {
    auto arg = [&](std::size_t i) {
      return frame.regs.size() > i ? frame.regs[i] : 0;
    };
    auto farg = [&](std::size_t i) { return std::bit_cast<double>(arg(i)); };
    auto fret = [](double v) { return std::bit_cast<std::int64_t>(v); };
    switch (fn) {
      case LibFn::memmove:
      case LibFn::memcpy:
        mem_copy(arg(0), arg(1), arg(2));
        return arg(0);
      case LibFn::memset: {
        const std::int64_t n = arg(2);
        if (n < 0) throw Trap{ExecStatus::trap_oob};
        MemObject& object = object_at(arg(0));
        if (!object.writable) throw Trap{ExecStatus::trap_oob};
        if (arg(0) + n > object.base + object.size)
          throw Trap{ExecStatus::trap_oob};
        count_access(object.kind, static_cast<std::uint64_t>(n));
        std::fill_n(
            object.bytes.begin() +
                static_cast<std::ptrdiff_t>(arg(0) - object.base),
            n, static_cast<std::uint8_t>(arg(1) & 0xff));
        return arg(0);
      }
      case LibFn::strlen:
        return strlen_at(arg(0));
      case LibFn::strcmp: {
        const std::int64_t la = strlen_at(arg(0));
        const std::int64_t lb = strlen_at(arg(1));
        const std::int64_t n = rt::imin(la, lb);
        for (std::int64_t i = 0; i < n; ++i) {
          const int ca = read_byte(arg(0) + i);
          const int cb = read_byte(arg(1) + i);
          if (ca != cb) return ca < cb ? -1 : 1;
        }
        if (la == lb) return 0;
        return la < lb ? -1 : 1;
      }
      case LibFn::strcpy: {
        const std::int64_t n = strlen_at(arg(1));
        mem_copy(arg(0), arg(1), n + 1);
        return arg(0);
      }
      case LibFn::malloc: {
        const std::int64_t n = rt::clamp64(arg(0), 0, 1 << 16);
        MemObject object;
        object.base = heap_cursor_;
        object.size = n;
        object.kind = RegionKind::heap;
        object.bytes.assign(static_cast<std::size_t>(n), 0);
        heap_cursor_ += n + 63;
        heap_cursor_ &= ~std::int64_t{63};
        if (n == 0) heap_cursor_ += 64;
        const std::int64_t base = object.base;
        add_object(std::move(object));
        return base;
      }
      case LibFn::free:
        return 0;
      case LibFn::abs64: return rt::abs64(arg(0));
      case LibFn::imin: return rt::imin(arg(0), arg(1));
      case LibFn::imax: return rt::imax(arg(0), arg(1));
      case LibFn::clamp: return rt::clamp64(arg(0), arg(1), arg(2));
      case LibFn::fsqrt: return fret(rt::fsqrt(farg(0)));
      case LibFn::fpow: return fret(rt::fpow(farg(0), farg(1)));
      case LibFn::ffloor: return fret(rt::ffloor(farg(0)));
      case LibFn::crc32: {
        std::uint32_t crc = 0xffffffffu;
        const std::int64_t n = arg(1);
        for (std::int64_t i = 0; i < n; ++i)
          crc = rt::crc32_step(crc, read_byte(arg(0) + i));
        return static_cast<std::int64_t>(crc ^ 0xffffffffu);
      }
      case LibFn::byte_swap:
        return static_cast<std::int64_t>(
            rt::byte_swap(static_cast<std::uint64_t>(arg(0))));
      case LibFn::checked_add:
        return rt::checked_add(arg(0), arg(1));
      case LibFn::count:
        break;
    }
    throw Trap{ExecStatus::trap_type};
  }

  std::int64_t run_syscall(Sys sys) {
    switch (sys) {
      case Sys::sys_write: return 0;
      case Sys::sys_read: return 0;
      case Sys::sys_getpid: return 4242;
      case Sys::sys_time: return 0;  // fixed clock: determinism first
      case Sys::sys_mmap: return 0;
      case Sys::sys_log: return 0;
      case Sys::count: break;
    }
    throw Trap{ExecStatus::trap_type};
  }

  // --- main loop --------------------------------------------------------------

  std::int64_t execute() {
    while (true) {
      Frame& frame = frames_.back();
      const auto& code = library_.functions[frame.fn].code;
      if (frame.pc < 0 ||
          frame.pc >= static_cast<std::int64_t>(code.size()))
        throw Trap{ExecStatus::trap_type};  // fell past the function end
      const Instruction inst = code[static_cast<std::size_t>(frame.pc)];
      observe(frame, inst);

      std::int64_t next_pc = frame.pc + 1;
      switch (inst.op) {
        case Opcode::nop:
          break;
        case Opcode::mov:
          write_reg(frame, inst.dst, read_reg(frame, inst.src1));
          break;
        case Opcode::ldi:
          write_reg(frame, inst.dst, inst.imm);
          break;
        case Opcode::ldstr: {
          const auto sid = static_cast<std::size_t>(inst.imm);
          if (sid >= string_bases_.size()) throw Trap{ExecStatus::trap_type};
          write_reg(frame, inst.dst, string_bases_[sid]);
          break;
        }
        case Opcode::load:
          write_reg(frame, inst.dst,
                    read_word(read_reg(frame, inst.src1) + inst.imm));
          break;
        case Opcode::loadb:
          write_reg(frame, inst.dst,
                    read_byte(read_reg(frame, inst.src1) + inst.imm));
          break;
        case Opcode::store:
          write_word(read_reg(frame, inst.src1) + inst.imm,
                     read_reg(frame, inst.src2));
          break;
        case Opcode::storeb:
          write_byte(read_reg(frame, inst.src1) + inst.imm,
                     static_cast<std::uint8_t>(
                         read_reg(frame, inst.src2) & 0xff));
          break;
        case Opcode::push:
          sp_ -= 8;
          write_word(sp_, read_reg(frame, inst.src1));
          break;
        case Opcode::pop:
          write_reg(frame, inst.dst, read_word(sp_));
          sp_ += 8;
          break;
        case Opcode::add:
          write_reg(frame, inst.dst,
                    rt::wrap_add(read_reg(frame, inst.src1),
                                 read_reg(frame, inst.src2)));
          break;
        case Opcode::sub:
          write_reg(frame, inst.dst,
                    rt::wrap_sub(read_reg(frame, inst.src1),
                                 read_reg(frame, inst.src2)));
          break;
        case Opcode::mul:
          write_reg(frame, inst.dst,
                    rt::wrap_mul(read_reg(frame, inst.src1),
                                 read_reg(frame, inst.src2)));
          break;
        case Opcode::divi: {
          const std::int64_t a = read_reg(frame, inst.src1);
          const std::int64_t b = read_reg(frame, inst.src2);
          if (b == 0) throw Trap{ExecStatus::trap_div_zero};
          if (a == std::numeric_limits<std::int64_t>::min() && b == -1)
            write_reg(frame, inst.dst, a);
          else
            write_reg(frame, inst.dst, a / b);
          break;
        }
        case Opcode::modi: {
          const std::int64_t a = read_reg(frame, inst.src1);
          const std::int64_t b = read_reg(frame, inst.src2);
          if (b == 0) throw Trap{ExecStatus::trap_div_zero};
          if (a == std::numeric_limits<std::int64_t>::min() && b == -1)
            write_reg(frame, inst.dst, 0);
          else
            write_reg(frame, inst.dst, a % b);
          break;
        }
        case Opcode::neg:
          write_reg(frame, inst.dst,
                    rt::wrap_sub(0, read_reg(frame, inst.src1)));
          break;
        case Opcode::andi:
          write_reg(frame, inst.dst, read_reg(frame, inst.src1) &
                                         read_reg(frame, inst.src2));
          break;
        case Opcode::ori:
          write_reg(frame, inst.dst, read_reg(frame, inst.src1) |
                                         read_reg(frame, inst.src2));
          break;
        case Opcode::xori:
          write_reg(frame, inst.dst, read_reg(frame, inst.src1) ^
                                         read_reg(frame, inst.src2));
          break;
        case Opcode::shl:
          write_reg(frame, inst.dst,
                    rt::wrap_shl(read_reg(frame, inst.src1),
                                 read_reg(frame, inst.src2)));
          break;
        case Opcode::shr:
          write_reg(frame, inst.dst,
                    rt::wrap_shr(read_reg(frame, inst.src1),
                                 read_reg(frame, inst.src2)));
          break;
        case Opcode::cmp: {
          const std::int64_t a = read_reg(frame, inst.src1);
          const std::int64_t b = read_reg(frame, inst.src2);
          std::int64_t c;
          if (inst.imm != 0) {  // fp-compare flag (see lower.cpp)
            const double fa = std::bit_cast<double>(a);
            const double fb = std::bit_cast<double>(b);
            c = fa < fb ? -1 : (fa > fb ? 1 : 0);
          } else {
            c = a < b ? -1 : (a > b ? 1 : 0);
          }
          write_reg(frame, inst.dst, c);
          break;
        }
        case Opcode::fadd:
        case Opcode::fsub:
        case Opcode::fmul:
        case Opcode::fdiv: {
          const double a =
              std::bit_cast<double>(read_reg(frame, inst.src1));
          const double b =
              std::bit_cast<double>(read_reg(frame, inst.src2));
          double r = 0.0;
          switch (inst.op) {
            case Opcode::fadd: r = a + b; break;
            case Opcode::fsub: r = a - b; break;
            case Opcode::fmul: r = a * b; break;
            case Opcode::fdiv: r = b == 0.0 ? 0.0 : a / b; break;
            default: break;
          }
          write_reg(frame, inst.dst, std::bit_cast<std::int64_t>(r));
          break;
        }
        case Opcode::fneg:
          write_reg(frame, inst.dst,
                    std::bit_cast<std::int64_t>(-std::bit_cast<double>(
                        read_reg(frame, inst.src1))));
          break;
        case Opcode::cvtif:
          write_reg(frame, inst.dst,
                    std::bit_cast<std::int64_t>(static_cast<double>(
                        read_reg(frame, inst.src1))));
          break;
        case Opcode::cvtfi: {
          const double v =
              std::bit_cast<double>(read_reg(frame, inst.src1));
          std::int64_t r = 0;
          if (v >= -9.0e18 && v <= 9.0e18) r = static_cast<std::int64_t>(v);
          write_reg(frame, inst.dst, r);
          break;
        }
        case Opcode::jmp:
          next_pc = inst.target;
          break;
        case Opcode::beq: case Opcode::bne: case Opcode::blt:
        case Opcode::bge: case Opcode::bgt: case Opcode::ble: {
          const std::int64_t c = read_reg(frame, inst.src1);
          bool taken = false;
          switch (inst.op) {
            case Opcode::beq: taken = c == 0; break;
            case Opcode::bne: taken = c != 0; break;
            case Opcode::blt: taken = c < 0; break;
            case Opcode::bge: taken = c >= 0; break;
            case Opcode::bgt: taken = c > 0; break;
            case Opcode::ble: taken = c <= 0; break;
            default: break;
          }
          if (taken) next_pc = inst.target;
          break;
        }
        case Opcode::jmpi: {
          const auto& fn = library_.functions[frame.fn];
          const auto table_id = static_cast<std::size_t>(inst.imm);
          if (table_id >= fn.jump_tables.size())
            throw Trap{ExecStatus::trap_type};
          const auto& table = fn.jump_tables[table_id];
          const std::int64_t idx = read_reg(frame, inst.src1);
          if (idx < 0 || idx >= static_cast<std::int64_t>(table.size()))
            throw Trap{ExecStatus::trap_type};
          next_pc = table[static_cast<std::size_t>(idx)];
          break;
        }
        case Opcode::frame:
          sp_ -= inst.imm;
          fp_ = sp_;
          break;
        case Opcode::call:
        case Opcode::callr: {
          const std::int64_t callee =
              inst.op == Opcode::call ? inst.imm
                                      : read_reg(frame, inst.src1);
          if (callee < 0 ||
              callee >= static_cast<std::int64_t>(
                            library_.functions.size()))
            throw Trap{ExecStatus::trap_type};
          if (static_cast<int>(frames_.size()) > config_.max_call_depth)
            throw Trap{ExecStatus::trap_step_limit};
          Frame callee_frame;
          callee_frame.fn = static_cast<std::size_t>(callee);
          callee_frame.pc = 0;
          callee_frame.saved_sp = sp_;
          callee_frame.saved_fp = fp_;
          callee_frame.ret_pc = frame.pc + 1;
          callee_frame.regs.assign(
              static_cast<std::size_t>(register_count(library_.arch)), 0);
          for (std::size_t i = 0; i < 4 && i < frame.regs.size(); ++i)
            callee_frame.regs[i] = frame.regs[i];
          frames_.push_back(std::move(callee_frame));
          continue;  // frame reference invalidated; restart the loop
        }
        case Opcode::libcall:
          write_reg(frame, 0,
                    run_libcall(frame, static_cast<LibFn>(inst.imm)));
          break;
        case Opcode::syscall:
          write_reg(frame, 0, run_syscall(static_cast<Sys>(inst.imm)));
          break;
        case Opcode::ret: {
          const std::int64_t value = frame.regs.empty() ? 0 : frame.regs[0];
          if (frames_.size() == 1) return value;
          sp_ = frame.saved_sp;
          fp_ = frame.saved_fp;
          const std::int64_t resume = frame.ret_pc;
          frames_.pop_back();
          Frame& caller = frames_.back();
          caller.regs[0] = value;
          caller.pc = resume;
          continue;
        }
      }
      frame.pc = next_pc;
    }
  }

  const LibraryBinary& library_;
  const MachineConfig& config_;

  std::vector<MemObject> objects_;
  std::vector<std::size_t> env_buffer_objects_;
  std::vector<std::int64_t> string_bases_;
  std::vector<std::int64_t> buffer_bases_;
  std::int64_t heap_cursor_ = heap_base;

  std::vector<Frame> frames_;
  std::int64_t sp_ = 0;
  std::int64_t fp_ = 0;

  std::uint64_t steps_ = 0;
  DynamicFeatures features_;
  std::unordered_map<std::size_t, std::vector<std::uint8_t>> visited_;
  std::unordered_map<std::uint64_t, std::uint64_t> branch_counts_;
  std::unordered_map<std::uint64_t, std::uint64_t> arith_counts_;
  double depth_min_ = 0.0, depth_max_ = 0.0, depth_sum_ = 0.0,
         depth_sq_sum_ = 0.0;
  std::uint64_t depth_count_ = 0;
};

}  // namespace

RunResult run(const LibraryBinary& library, const MachineConfig& config,
              std::size_t function_index, const CallEnv& env) {
  Execution execution(library, config, env);
  return execution.run(function_index, env);
}

}  // namespace patchecko::vm_reference
