// Tests for the VM: trap semantics, the memory model, the runtime library,
// and exact dynamic-feature accounting on hand-assembled code.
#include <gtest/gtest.h>

#include <bit>
#include <string>
#include <thread>

#include "compiler/compiler.h"
#include "fuzz/fuzzer.h"
#include "isa/runtime_scalar.h"
#include "source/generator.h"
#include "vm/machine.h"
#include "vm_reference.h"

namespace patchecko {
namespace {

// Hand-assembles a library with one function made of `code`.
LibraryBinary asm_lib(std::vector<Instruction> code,
                      std::vector<ValueType> params = {},
                      std::vector<std::string> strings = {}) {
  LibraryBinary lib;
  lib.name = "asm";
  lib.arch = Arch::amd64;
  lib.strings = std::move(strings);
  FunctionBinary fn;
  fn.name = "f";
  fn.arch = Arch::amd64;
  fn.code = std::move(code);
  fn.param_types = std::move(params);
  lib.functions.push_back(std::move(fn));
  return lib;
}

Instruction I(Opcode op, std::uint8_t dst = reg::none,
              std::uint8_t a = reg::none, std::uint8_t b = reg::none,
              std::int64_t imm = 0, std::int32_t target = -1) {
  Instruction inst;
  inst.op = op;
  inst.dst = dst;
  inst.src1 = a;
  inst.src2 = b;
  inst.imm = imm;
  inst.target = target;
  return inst;
}

TEST(Vm, ReturnsR0) {
  const auto lib = asm_lib({I(Opcode::ldi, 0, reg::none, reg::none, 99),
                            I(Opcode::ret)});
  const Machine machine(lib);
  CallEnv env;
  const RunResult r = machine.run(0, env);
  ASSERT_EQ(r.status, ExecStatus::ok);
  EXPECT_EQ(r.ret, 99);
}

TEST(Vm, ArgumentsArriveInRegisters) {
  const auto lib = asm_lib({I(Opcode::add, 0, 0, 1), I(Opcode::ret)},
                           {ValueType::i64, ValueType::i64});
  const Machine machine(lib);
  CallEnv env;
  env.args = {Value::from_int(30), Value::from_int(12)};
  EXPECT_EQ(machine.run(0, env).ret, 42);
}

TEST(Vm, DivByZeroTraps) {
  const auto lib = asm_lib({I(Opcode::ldi, 0, reg::none, reg::none, 5),
                            I(Opcode::ldi, 1, reg::none, reg::none, 0),
                            I(Opcode::divi, 2, 0, 1), I(Opcode::ret)});
  const Machine machine(lib);
  CallEnv env;
  EXPECT_EQ(machine.run(0, env).status, ExecStatus::trap_div_zero);
}

TEST(Vm, RunningPastEndTraps) {
  const auto lib = asm_lib({I(Opcode::nop)});
  const Machine machine(lib);
  CallEnv env;
  EXPECT_EQ(machine.run(0, env).status, ExecStatus::trap_type);
}

TEST(Vm, StepLimitStopsInfiniteLoop) {
  const auto lib =
      asm_lib({I(Opcode::jmp, reg::none, reg::none, reg::none, 0, 0)});
  MachineConfig config;
  config.step_limit = 500;
  const Machine machine(lib, config);
  CallEnv env;
  const RunResult r = machine.run(0, env);
  EXPECT_EQ(r.status, ExecStatus::trap_step_limit);
  EXPECT_EQ(r.steps, 501u);
}

TEST(Vm, BufferAccessAndPersistence) {
  // storeb buf[2] = 7; return loadb buf[2].
  const auto lib = asm_lib(
      {I(Opcode::ldi, 1, reg::none, reg::none, 7),
       I(Opcode::storeb, reg::none, 0, 1, 2),
       I(Opcode::loadb, 0, 0, reg::none, 2), I(Opcode::ret)},
      {ValueType::ptr});
  const Machine machine(lib);
  CallEnv env;
  env.buffers.push_back({0, 0, 0, 0});
  env.args.push_back(Value::from_ptr(0));
  const RunResult r = machine.run(0, env);
  ASSERT_EQ(r.status, ExecStatus::ok);
  EXPECT_EQ(r.ret, 7);
  EXPECT_EQ(r.buffers_after[0][2], 7);
}

TEST(Vm, BufferOverrunTraps) {
  const auto lib = asm_lib(
      {I(Opcode::loadb, 0, 0, reg::none, 64), I(Opcode::ret)},
      {ValueType::ptr});
  const Machine machine(lib);
  CallEnv env;
  env.buffers.push_back({1, 2, 3});
  env.args.push_back(Value::from_ptr(0));
  EXPECT_EQ(machine.run(0, env).status, ExecStatus::trap_oob);
}

TEST(Vm, GuardGapBetweenBuffersTraps) {
  // Even with two buffers mapped, overrunning the first lands in a guard
  // gap, not in the second buffer.
  const auto lib = asm_lib(
      {I(Opcode::loadb, 0, 0, reg::none, 8), I(Opcode::ret)},
      {ValueType::ptr, ValueType::ptr});
  const Machine machine(lib);
  CallEnv env;
  env.buffers.push_back({1, 2, 3, 4, 5, 6, 7, 8});
  env.buffers.push_back({9, 9});
  env.args.push_back(Value::from_ptr(0));
  env.args.push_back(Value::from_ptr(1));
  EXPECT_EQ(machine.run(0, env).status, ExecStatus::trap_oob);
}

TEST(Vm, StringPoolIsReadOnly) {
  const auto lib = asm_lib(
      {I(Opcode::ldstr, 0, reg::none, reg::none, 0),
       I(Opcode::ldi, 1, reg::none, reg::none, 65),
       I(Opcode::storeb, reg::none, 0, 1, 0), I(Opcode::ret)},
      {}, {"const"});
  const Machine machine(lib);
  CallEnv env;
  EXPECT_EQ(machine.run(0, env).status, ExecStatus::trap_oob);
}

TEST(Vm, StringPoolReadableWithNul) {
  const auto lib = asm_lib(
      {I(Opcode::ldstr, 0, reg::none, reg::none, 0),
       I(Opcode::loadb, 0, 0, reg::none, 2), I(Opcode::ret)},
      {}, {"abc"});
  const Machine machine(lib);
  CallEnv env;
  EXPECT_EQ(machine.run(0, env).ret, 'c');
}

TEST(Vm, PushPopRoundTrip) {
  const auto lib = asm_lib({I(Opcode::ldi, 0, reg::none, reg::none, 314),
                            I(Opcode::push, reg::none, 0),
                            I(Opcode::ldi, 0, reg::none, reg::none, 0),
                            I(Opcode::pop, 0), I(Opcode::ret)});
  const Machine machine(lib);
  CallEnv env;
  EXPECT_EQ(machine.run(0, env).ret, 314);
}

TEST(Vm, StackOverflowTraps) {
  // frame larger than the whole stack, then a spill store.
  const auto lib = asm_lib(
      {I(Opcode::frame, reg::none, reg::none, reg::none, 1 << 20),
       I(Opcode::store, reg::none, reg::fp, 0, 0), I(Opcode::ret)});
  const Machine machine(lib);
  CallEnv env;
  EXPECT_EQ(machine.run(0, env).status, ExecStatus::trap_oob);
}

TEST(Vm, MallocGivesZeroedHeap) {
  const auto lib = asm_lib(
      {I(Opcode::ldi, 0, reg::none, reg::none, 32),
       I(Opcode::libcall, reg::none, reg::none, reg::none,
         static_cast<std::int64_t>(LibFn::malloc)),
       I(Opcode::loadb, 0, 0, reg::none, 31), I(Opcode::ret)});
  const Machine machine(lib);
  CallEnv env;
  const RunResult r = machine.run(0, env);
  ASSERT_EQ(r.status, ExecStatus::ok);
  EXPECT_EQ(r.ret, 0);
  EXPECT_GT(r.features.mem_heap, 0u);
}

TEST(Vm, CallPreservesCallerRegisters) {
  // Callee (fn 1) clobbers its own r5; caller keeps its r5.
  LibraryBinary lib = asm_lib({});
  lib.functions.clear();
  FunctionBinary caller;
  caller.name = "caller";
  caller.code = {I(Opcode::ldi, 5, reg::none, reg::none, 111),
                 I(Opcode::call, reg::none, reg::none, reg::none, 1),
                 I(Opcode::mov, 0, 5), I(Opcode::ret)};
  FunctionBinary callee;
  callee.name = "callee";
  callee.code = {I(Opcode::ldi, 5, reg::none, reg::none, 222),
                 I(Opcode::ldi, 0, reg::none, reg::none, 0),
                 I(Opcode::ret)};
  lib.functions = {caller, callee};
  const Machine machine(lib);
  CallEnv env;
  EXPECT_EQ(machine.run(0, env).ret, 111);
}

TEST(Vm, CallReturnsValueInR0) {
  LibraryBinary lib = asm_lib({});
  lib.functions.clear();
  FunctionBinary caller;
  caller.code = {I(Opcode::call, reg::none, reg::none, reg::none, 1),
                 I(Opcode::ret)};
  FunctionBinary callee;
  callee.code = {I(Opcode::ldi, 0, reg::none, reg::none, 77),
                 I(Opcode::ret)};
  lib.functions = {caller, callee};
  const Machine machine(lib);
  CallEnv env;
  EXPECT_EQ(machine.run(0, env).ret, 77);
}

TEST(Vm, RecursionDepthBounded) {
  LibraryBinary lib = asm_lib({});
  lib.functions.clear();
  FunctionBinary self;
  self.code = {I(Opcode::call, reg::none, reg::none, reg::none, 0),
               I(Opcode::ret)};
  lib.functions = {self};
  const Machine machine(lib);
  CallEnv env;
  EXPECT_EQ(machine.run(0, env).status, ExecStatus::trap_step_limit);
}

TEST(Vm, InvalidCalleeTraps) {
  const auto lib = asm_lib(
      {I(Opcode::call, reg::none, reg::none, reg::none, 42),
       I(Opcode::ret)});
  const Machine machine(lib);
  CallEnv env;
  EXPECT_EQ(machine.run(0, env).status, ExecStatus::trap_type);
}


TEST(Vm, CallrDispatchesThroughRegister) {
  LibraryBinary lib = asm_lib({});
  lib.functions.clear();
  FunctionBinary dispatcher;
  // r1 holds callee id (arg 1); callr r1.
  dispatcher.code = {I(Opcode::mov, 2, 1),
                     I(Opcode::callr, reg::none, 2),
                     I(Opcode::ret)};
  dispatcher.param_types = {ValueType::i64, ValueType::i64};
  FunctionBinary a, b;
  a.code = {I(Opcode::ldi, 0, reg::none, reg::none, 10), I(Opcode::ret)};
  b.code = {I(Opcode::ldi, 0, reg::none, reg::none, 20), I(Opcode::ret)};
  lib.functions = {dispatcher, a, b};
  const Machine machine(lib);
  CallEnv env;
  env.args = {Value::from_int(0), Value::from_int(1)};
  EXPECT_EQ(machine.run(0, env).ret, 10);
  env.args = {Value::from_int(0), Value::from_int(2)};
  EXPECT_EQ(machine.run(0, env).ret, 20);
  env.args = {Value::from_int(0), Value::from_int(99)};  // bad id
  EXPECT_EQ(machine.run(0, env).status, ExecStatus::trap_type);
}

// --- dynamic feature accounting --------------------------------------------------

TEST(VmFeatures, InstructionAndClassCounts) {
  const auto lib = asm_lib({I(Opcode::ldi, 0, reg::none, reg::none, 1),
                            I(Opcode::ldi, 1, reg::none, reg::none, 2),
                            I(Opcode::add, 2, 0, 1),
                            I(Opcode::mul, 2, 2, 1),
                            I(Opcode::ret)});
  const Machine machine(lib);
  CallEnv env;
  const RunResult r = machine.run(0, env);
  EXPECT_EQ(r.features.instructions, 5u);
  EXPECT_EQ(r.features.unique_instructions, 5u);
  EXPECT_EQ(r.features.arith_instructions, 2u);
  EXPECT_EQ(r.features.branch_instructions, 0u);
}

TEST(VmFeatures, UniqueVsTotalInLoop) {
  // Loop body of 3 instructions executed 4 times.
  const auto lib = asm_lib({
      I(Opcode::ldi, 0, reg::none, reg::none, 4),    // 0: counter
      I(Opcode::ldi, 1, reg::none, reg::none, 1),    // 1
      I(Opcode::sub, 0, 0, 1),                       // 2
      I(Opcode::bne, reg::none, 0, reg::none, 0, 2), // 3: loop to 2
      I(Opcode::ret),                                // 4
  });
  const Machine machine(lib);
  CallEnv env;
  const RunResult r = machine.run(0, env);
  EXPECT_EQ(r.features.unique_instructions, 5u);
  EXPECT_EQ(r.features.instructions, 2u + 4u * 2u + 1u);
  EXPECT_EQ(r.features.branch_instructions, 4u);
  EXPECT_EQ(r.features.max_branch_frequency, 4u);
  EXPECT_EQ(r.features.max_arith_frequency, 4u);  // the sub
}

TEST(VmFeatures, MemoryRegionAttribution) {
  const auto lib = asm_lib(
      {I(Opcode::loadb, 1, 0, reg::none, 0),         // anon
       I(Opcode::push, reg::none, 1),                // stack write
       I(Opcode::pop, 1),                            // stack read
       I(Opcode::ldstr, 2, reg::none, reg::none, 0),
       I(Opcode::loadb, 3, 2, reg::none, 0),         // lib
       I(Opcode::ret)},
      {ValueType::ptr}, {"s"});
  const Machine machine(lib);
  CallEnv env;
  env.buffers.push_back({42});
  env.args.push_back(Value::from_ptr(0));
  const RunResult r = machine.run(0, env);
  ASSERT_EQ(r.status, ExecStatus::ok);
  EXPECT_EQ(r.features.mem_anon, 1u);
  EXPECT_EQ(r.features.mem_stack, 2u);
  EXPECT_EQ(r.features.mem_lib, 1u);
  EXPECT_EQ(r.features.mem_heap, 0u);
  EXPECT_EQ(r.features.load_instructions, 3u);  // loadb + pop + loadb
  EXPECT_EQ(r.features.store_instructions, 1u); // push
}

TEST(VmFeatures, CallAndSyscallCounters) {
  LibraryBinary lib = asm_lib({});
  lib.functions.clear();
  FunctionBinary caller;
  caller.code = {
      I(Opcode::call, reg::none, reg::none, reg::none, 1),
      I(Opcode::libcall, reg::none, reg::none, reg::none,
        static_cast<std::int64_t>(LibFn::abs64)),
      I(Opcode::syscall, reg::none, reg::none, reg::none,
        static_cast<std::int64_t>(Sys::sys_getpid)),
      I(Opcode::ret)};
  FunctionBinary callee;
  callee.code = {I(Opcode::ret)};
  lib.functions = {caller, callee};
  const Machine machine(lib);
  CallEnv env;
  const RunResult r = machine.run(0, env);
  EXPECT_EQ(r.features.binary_fun_calls, 1u);
  EXPECT_EQ(r.features.library_calls, 1u);
  EXPECT_EQ(r.features.syscalls, 1u);
  EXPECT_EQ(r.features.call_instructions, 3u);
}

TEST(VmFeatures, StackDepthBottomsAtTwo) {
  const auto lib = asm_lib({I(Opcode::ldi, 0, reg::none, reg::none, 0),
                            I(Opcode::ret)});
  const Machine machine(lib);
  CallEnv env;
  const RunResult r = machine.run(0, env);
  EXPECT_DOUBLE_EQ(r.features.min_stack_depth, 2.0);
  EXPECT_DOUBLE_EQ(r.features.max_stack_depth, 2.0);
  EXPECT_DOUBLE_EQ(r.features.std_stack_depth, 0.0);
}

TEST(VmFeatures, NestedCallRaisesDepth) {
  LibraryBinary lib = asm_lib({});
  lib.functions.clear();
  FunctionBinary caller;
  caller.code = {I(Opcode::call, reg::none, reg::none, reg::none, 1),
                 I(Opcode::ret)};
  FunctionBinary callee;
  callee.code = {I(Opcode::nop), I(Opcode::ret)};
  lib.functions = {caller, callee};
  const Machine machine(lib);
  CallEnv env;
  const RunResult r = machine.run(0, env);
  EXPECT_DOUBLE_EQ(r.features.min_stack_depth, 2.0);
  EXPECT_DOUBLE_EQ(r.features.max_stack_depth, 3.0);
}

TEST(VmFeatures, DisablingCollectionZeroesCounters) {
  const auto lib = asm_lib({I(Opcode::ldi, 0, reg::none, reg::none, 1),
                            I(Opcode::ret)});
  MachineConfig config;
  config.collect_features = false;
  const Machine machine(lib, config);
  CallEnv env;
  const RunResult r = machine.run(0, env);
  ASSERT_EQ(r.status, ExecStatus::ok);
  EXPECT_EQ(r.features.instructions, 0u);
}

TEST(VmFeatures, DeterministicAcrossRuns) {
  const SourceLibrary src = generate_library("det", 0xD, 8);
  const LibraryBinary lib = compile_library(src, Arch::arm64, OptLevel::O2);
  const Machine machine(lib);
  CallEnv env;
  env.buffers.push_back(std::vector<std::uint8_t>(32, 5));
  env.args.push_back(Value::from_ptr(0));
  env.args.push_back(Value::from_int(32));
  env.args.push_back(Value::from_int(3));
  const RunResult a = machine.run(2, env);
  const RunResult b = machine.run(2, env);
  EXPECT_EQ(static_cast<int>(a.status), static_cast<int>(b.status));
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.features.to_vector(), b.features.to_vector());
}

// --- equivalence with the reference engine -----------------------------------
//
// Machine::run keeps its execution state in per-thread scratch reused across
// runs; vm_reference::run is the original engine that built everything per
// run. Every observable field must agree, whatever ran before on the thread.

void expect_same_run(const RunResult& expected, const RunResult& actual,
                     const std::string& what) {
  EXPECT_EQ(expected.status, actual.status) << what;
  EXPECT_EQ(expected.ret, actual.ret) << what;
  EXPECT_EQ(expected.steps, actual.steps) << what;
  const auto e = expected.features.to_array();
  const auto a = actual.features.to_array();
  for (std::size_t i = 0; i < e.size(); ++i)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(e[i]),
              std::bit_cast<std::uint64_t>(a[i]))
        << what << ": " << DynamicFeatures::name(i);
  EXPECT_EQ(expected.buffers_after, actual.buffers_after) << what;
}

/// Runs `fn` on both engines and compares; returns the Machine's result.
RunResult check_run(const LibraryBinary& lib, const MachineConfig& config,
                    std::size_t fn, const CallEnv& env,
                    const std::string& what) {
  const RunResult actual = Machine(lib, config).run(fn, env);
  expect_same_run(vm_reference::run(lib, config, fn, env), actual, what);
  return actual;
}

TEST(VmEquivalence, GeneratedLibrariesMatchReferenceOnFuzzedEnvironments) {
  FuzzConfig fuzz;
  fuzz.attempts = 24;
  for (const Arch arch : {Arch::x86, Arch::amd64, Arch::arm32, Arch::arm64}) {
    const SourceLibrary src = generate_library("veq", 0x5EED, 24);
    const LibraryBinary lib = compile_library(src, arch, OptLevel::O2);
    const MachineConfig config;
    const Machine machine(lib, config);
    Rng rng(0xC0FFEE + static_cast<std::uint64_t>(arch));
    std::size_t trapped = 0;
    for (std::size_t f = 0; f < lib.functions.size(); ++f) {
      std::vector<CallEnv> envs = generate_environments(lib, f, rng, fuzz);
      const auto& params = lib.functions[f].param_types;
      for (int k = 0; k < 3; ++k) envs.push_back(random_env(rng, params, fuzz));
      if (!envs.empty())
        envs.push_back(mutate_env(rng, envs.front(), params, fuzz));
      // Another function's environment: mismatched signatures trap.
      const auto& other = lib.functions[(f + 1) % lib.functions.size()];
      envs.push_back(random_env(rng, other.param_types, fuzz));
      for (std::size_t e = 0; e < envs.size(); ++e) {
        const RunResult actual = machine.run(f, envs[e]);
        expect_same_run(vm_reference::run(lib, config, f, envs[e]), actual,
                        std::string(arch_name(arch)) + " fn " +
                            std::to_string(f) + " env " + std::to_string(e));
        if (actual.status != ExecStatus::ok) ++trapped;
      }
    }
    EXPECT_GT(trapped, 0u) << arch_name(arch);  // traps were exercised
  }
}

/// A library of hand-assembled functions, each run with r0 and r1 pointing
/// at two buffers (16 and 40 bytes).
struct Adversarial {
  LibraryBinary lib;
  std::vector<std::string> names;

  void add(const std::string& name, std::vector<Instruction> code,
           std::vector<std::vector<std::int32_t>> jump_tables = {}) {
    FunctionBinary fn;
    fn.arch = lib.arch;
    fn.code = std::move(code);
    fn.jump_tables = std::move(jump_tables);
    fn.param_types = {ValueType::ptr, ValueType::ptr};
    lib.functions.push_back(std::move(fn));
    names.push_back(name);
  }
};

Instruction libcall(LibFn fn) {
  return I(Opcode::libcall, reg::none, reg::none, reg::none,
           static_cast<std::int64_t>(fn));
}
Instruction ldi(std::uint8_t dst, std::int64_t imm) {
  return I(Opcode::ldi, dst, reg::none, reg::none, imm);
}

Adversarial adversarial_library() {
  Adversarial a;
  a.lib.name = "adversarial";
  a.lib.arch = Arch::amd64;
  // The second string is 63 bytes + NUL: it ends exactly where the next
  // 64-byte slot starts, so the two strings are adjacent.
  a.lib.strings = {"hello", std::string(63, 'z'), "tail"};
  const Instruction ret = I(Opcode::ret);
  // Call depth: unbounded self-recursion.
  a.add("recurse", {I(Opcode::call, reg::none, reg::none, reg::none, 0), ret});
  a.add("spin", {I(Opcode::jmp, reg::none, reg::none, reg::none, 0, 0)});
  // Anonymous buffer edges (r0 -> 16-byte buffer).
  a.add("anon_last_byte", {I(Opcode::loadb, 0, 0, reg::none, 15), ret});
  a.add("anon_past_end", {I(Opcode::loadb, 0, 0, reg::none, 16), ret});
  a.add("anon_before", {I(Opcode::loadb, 0, 0, reg::none, -1), ret});
  a.add("anon_last_word", {I(Opcode::load, 0, 0, reg::none, 8), ret});
  a.add("anon_straddle", {I(Opcode::load, 0, 0, reg::none, 9), ret});
  a.add("anon_guard_gap", {I(Opcode::storeb, reg::none, 0, 1, 4095), ret});
  a.add("anon_second", {I(Opcode::store, reg::none, 1, 0, 32),
                        I(Opcode::load, 0, 1, reg::none, 32), ret});
  // Stack edges: sp starts one past the top.
  a.add("stack_top", {I(Opcode::load, 0, reg::sp, reg::none, 0), ret});
  a.add("stack_below_top", {I(Opcode::load, 0, reg::sp, reg::none, -8), ret});
  a.add("stack_bottom", {I(Opcode::frame, reg::none, reg::none, reg::none,
                           1 << 16),
                         I(Opcode::store, reg::none, reg::fp, 0, 0),
                         I(Opcode::load, 0, reg::fp, reg::none, 0), ret});
  a.add("stack_under", {I(Opcode::frame, reg::none, reg::none, reg::none,
                          (1 << 16) + 1),
                        I(Opcode::store, reg::none, reg::fp, 0, 0), ret});
  a.add("push_pop", {I(Opcode::push, reg::none, 0), I(Opcode::push, reg::none, 1),
                     I(Opcode::pop, 2), I(Opcode::pop, 0), ret});
  // Heap edges: a 32-byte chunk.
  a.add("heap_last_word", {ldi(0, 32), libcall(LibFn::malloc),
                           I(Opcode::load, 0, 0, reg::none, 24), ret});
  a.add("heap_straddle", {ldi(0, 32), libcall(LibFn::malloc),
                          I(Opcode::load, 0, 0, reg::none, 25), ret});
  a.add("heap_past_end", {ldi(0, 32), libcall(LibFn::malloc),
                          I(Opcode::loadb, 0, 0, reg::none, 32), ret});
  a.add("heap_zero_chunk", {ldi(0, 0), libcall(LibFn::malloc),
                            I(Opcode::loadb, 0, 0, reg::none, 0), ret});
  // String pool edges and writes.
  a.add("lib_nul", {I(Opcode::ldstr, 0, reg::none, reg::none, 0),
                    I(Opcode::loadb, 0, 0, reg::none, 5), ret});
  a.add("lib_padding", {I(Opcode::ldstr, 0, reg::none, reg::none, 0),
                        I(Opcode::loadb, 0, 0, reg::none, 6), ret});
  a.add("lib_word_past_nul", {I(Opcode::ldstr, 0, reg::none, reg::none, 0),
                              I(Opcode::load, 0, 0, reg::none, 0), ret});
  a.add("lib_adjacent_strlen",
        {I(Opcode::ldstr, 0, reg::none, reg::none, 1), libcall(LibFn::strlen),
         ret});
  a.add("lib_adjacent_copy",  // 24 bytes of string 1, then 1 of string 2
        {I(Opcode::mov, 0, 1), I(Opcode::ldstr, 1, reg::none, reg::none, 1),
         ldi(4, 39), I(Opcode::add, 1, 1, 4), ldi(2, 25),
         libcall(LibFn::memcpy), I(Opcode::loadb, 0, 0, reg::none, 24), ret});
  a.add("lib_write", {I(Opcode::ldstr, 0, reg::none, reg::none, 0),
                      I(Opcode::storeb, reg::none, 0, 1, 0), ret});
  a.add("lib_memset", {I(Opcode::ldstr, 0, reg::none, reg::none, 2),
                       ldi(1, 65), ldi(2, 2), libcall(LibFn::memset), ret});
  a.add("lib_strcpy_into", {I(Opcode::ldstr, 0, reg::none, reg::none, 0),
                            libcall(LibFn::strcpy), ret});
  a.add("ldstr_unknown", {I(Opcode::ldstr, 0, reg::none, reg::none, 9), ret});
  // Runtime library with partial effects before a trap.
  a.add("memcpy_read_overrun", {I(Opcode::mov, 2, 0), I(Opcode::mov, 0, 1),
                                I(Opcode::mov, 1, 2), ldi(2, 24),
                                libcall(LibFn::memcpy), ret});
  a.add("memcpy_partial_write", {ldi(2, 24), libcall(LibFn::memcpy), ret});
  a.add("memset_overrun", {ldi(1, 7), ldi(2, 17), libcall(LibFn::memset), ret});
  a.add("memset_negative", {ldi(1, 7), ldi(2, -1), libcall(LibFn::memset), ret});
  a.add("memset_stack", {I(Opcode::frame, reg::none, reg::none, reg::none, 64),
                         I(Opcode::mov, 0, reg::fp), ldi(1, 9), ldi(2, 64),
                         libcall(LibFn::memset),
                         I(Opcode::load, 0, reg::fp, reg::none, 56), ret});
  a.add("strcmp", {libcall(LibFn::strcmp), ret});
  a.add("crc_overrun", {ldi(1, 17), libcall(LibFn::crc32), ret});
  a.add("bad_libcall", {I(Opcode::libcall, reg::none, reg::none, reg::none,
                          200), ret});
  a.add("bad_syscall", {I(Opcode::syscall, reg::none, reg::none, reg::none,
                          200), ret});
  // Control flow.
  a.add("jmpi_in_range", {ldi(1, 1), I(Opcode::jmpi, reg::none, 1, reg::none, 0),
                          ldi(0, 1), ret, ldi(0, 2), ret},
        {{2, 4}});
  a.add("jmpi_past_end", {ldi(1, 2), I(Opcode::jmpi, reg::none, 1, reg::none, 0),
                          ret},
        {{2, 2}});
  a.add("jmpi_negative", {ldi(1, -1),
                          I(Opcode::jmpi, reg::none, 1, reg::none, 0), ret},
        {{2}});
  a.add("jmpi_no_table", {I(Opcode::jmpi, reg::none, 1, reg::none, 3), ret},
        {{1}});
  a.add("jump_out_of_code", {I(Opcode::jmp, reg::none, reg::none, reg::none,
                               0, 99)});
  a.add("bad_register", {I(Opcode::mov, 0, 20), ret});
  a.add("bad_callee", {I(Opcode::call, reg::none, reg::none, reg::none, 999),
                       ret});
  a.add("div_zero", {ldi(1, 0), I(Opcode::divi, 0, 0, 1), ret});
  return a;
}

CallEnv two_buffers() {
  CallEnv env;
  env.buffers.push_back({1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15,
                         16});
  env.buffers.push_back(std::vector<std::uint8_t>(40, 0x41));
  env.buffers.back()[39] = 0;
  env.args = {Value::from_ptr(0), Value::from_ptr(1)};
  return env;
}

TEST(VmEquivalence, AdversarialCodeMatchesReference) {
  const Adversarial a = adversarial_library();
  MachineConfig config;
  config.step_limit = 5000;
  const CallEnv env = two_buffers();
  std::size_t oob = 0, type = 0, limit = 0;
  for (std::size_t f = 0; f < a.lib.functions.size(); ++f) {
    const RunResult r = check_run(a.lib, config, f, env, a.names[f]);
    oob += r.status == ExecStatus::trap_oob;
    type += r.status == ExecStatus::trap_type;
    limit += r.status == ExecStatus::trap_step_limit;
  }
  EXPECT_GE(oob, 10u);
  EXPECT_GE(type, 6u);
  EXPECT_EQ(limit, 2u);  // recurse (call depth) and spin (step limit)
}

// --- per-thread reuse ----------------------------------------------------------

TEST(VmReuse, DirtyStackIsZeroForTheNextRun) {
  const Instruction whole_stack =
      I(Opcode::frame, reg::none, reg::none, reg::none, 1 << 16);
  LibraryBinary lib = asm_lib({});
  lib.functions.clear();
  // fn 0 stores to the deepest stack word and one near the top; fn 1
  // memsets 16 bytes in the middle; fn 2 reads all three back
  // uninitialized.
  const std::vector<std::vector<Instruction>> code = {
      {whole_stack, ldi(1, -1), I(Opcode::store, reg::none, reg::fp, 1, 0),
       I(Opcode::store, reg::none, reg::fp, 1, 65000), I(Opcode::ret)},
      {whole_stack, ldi(4, 32000), I(Opcode::add, 0, reg::fp, 4), ldi(1, -1),
       ldi(2, 16), libcall(LibFn::memset), I(Opcode::ret)},
      {whole_stack, I(Opcode::load, 0, reg::fp, reg::none, 0),
       I(Opcode::load, 1, reg::fp, reg::none, 65000), I(Opcode::add, 0, 0, 1),
       I(Opcode::load, 1, reg::fp, reg::none, 32008), I(Opcode::add, 0, 0, 1),
       I(Opcode::ret)}};
  for (const auto& body : code) {
    FunctionBinary fn;
    fn.arch = Arch::amd64;
    fn.code = body;
    lib.functions.push_back(std::move(fn));
  }
  const MachineConfig config;
  const CallEnv env;
  for (int round = 0; round < 2; ++round)
    for (const std::size_t writer : {0u, 1u}) {
      EXPECT_EQ(check_run(lib, config, writer, env, "dirty").status,
                ExecStatus::ok);
      const RunResult clean = check_run(lib, config, 2, env, "read");
      ASSERT_EQ(clean.status, ExecStatus::ok);
      EXPECT_EQ(clean.ret, 0) << "after writer " << writer;
    }
}

TEST(VmReuse, AlternatingLibrariesOfDifferentSizes) {
  const SourceLibrary big_src = generate_library("big", 0xB16, 40);
  const LibraryBinary big = compile_library(big_src, Arch::arm64, OptLevel::O1);
  const SourceLibrary small_src = generate_library("small", 0x5A, 3);
  const LibraryBinary small = compile_library(small_src, Arch::x86, OptLevel::O0);
  FuzzConfig fuzz;
  Rng rng(77);
  const MachineConfig config;
  for (int round = 0; round < 4; ++round) {
    for (std::size_t f = 0; f < big.functions.size(); f += 5) {
      const CallEnv big_env =
          random_env(rng, big.functions[f].param_types, fuzz);
      check_run(big, config, f, big_env, "big fn " + std::to_string(f));
      const std::size_t g = f % small.functions.size();
      const CallEnv small_env =
          random_env(rng, small.functions[g].param_types, fuzz);
      check_run(small, config, g, small_env, "small fn " + std::to_string(g));
    }
  }
}

TEST(VmReuse, AlternatingStackSizes) {
  // Writes a word at fp+offset under a frame of `frame` bytes, reads back the
  // same slot's neighbour, then returns the pushed value.
  const auto lib = asm_lib(
      {I(Opcode::frame, reg::none, reg::none, reg::none, 4000),
       I(Opcode::load, 2, reg::fp, reg::none, 8),
       I(Opcode::store, reg::none, reg::fp, 0, 0),
       I(Opcode::push, reg::none, 0), I(Opcode::pop, 0),
       I(Opcode::add, 0, 0, 2), I(Opcode::ret)},
      {ValueType::i64});
  CallEnv env;
  env.args = {Value::from_int(5)};
  MachineConfig configs[3];
  configs[0].stack_size = 1 << 16;
  configs[1].stack_size = 512;  // frame does not fit: traps
  configs[2].stack_size = 4096;
  for (int round = 0; round < 3; ++round)
    for (const MachineConfig& config : configs)
      check_run(lib, config, 0, env,
                "stack " + std::to_string(config.stack_size));
}

TEST(VmReuse, TrapMidRunThenCleanRun) {
  LibraryBinary lib = asm_lib({});
  lib.functions.clear();
  FunctionBinary dirty;
  dirty.arch = Arch::amd64;
  // Deep call chain writing the stack, mallocing, and dividing by zero.
  dirty.code = {I(Opcode::frame, reg::none, reg::none, reg::none, 128),
                I(Opcode::store, reg::none, reg::fp, 0, 0),
                ldi(0, 64), libcall(LibFn::malloc),
                I(Opcode::call, reg::none, reg::none, reg::none, 1),
                I(Opcode::ret)};
  FunctionBinary trap;
  trap.arch = Arch::amd64;
  trap.code = {I(Opcode::push, reg::none, 0), ldi(1, 0),
               I(Opcode::divi, 0, 0, 1), I(Opcode::ret)};
  FunctionBinary clean;
  clean.arch = Arch::amd64;
  clean.code = {I(Opcode::frame, reg::none, reg::none, reg::none, 128),
                I(Opcode::load, 0, reg::fp, reg::none, 0),
                I(Opcode::load, 1, reg::sp, reg::none, -8),
                I(Opcode::add, 0, 0, 1), I(Opcode::ret)};
  lib.functions = {dirty, trap, clean};
  const MachineConfig config;
  CallEnv env;
  env.args = {Value::from_int(99)};
  for (int round = 0; round < 2; ++round) {
    EXPECT_EQ(check_run(lib, config, 0, env, "trap").status,
              ExecStatus::trap_div_zero);
    const RunResult r = check_run(lib, config, 2, env, "clean");
    ASSERT_EQ(r.status, ExecStatus::ok);
    EXPECT_EQ(r.ret, 0);
  }
}

TEST(VmReuse, ThreadsKeepSeparateScratch) {
  const SourceLibrary src = generate_library("threads", 0x7D, 12);
  const LibraryBinary lib = compile_library(src, Arch::arm32, OptLevel::O2);
  const Machine machine(lib);
  FuzzConfig fuzz;
  Rng rng(5);
  std::vector<CallEnv> envs;
  for (std::size_t f = 0; f < lib.functions.size(); ++f)
    envs.push_back(random_env(rng, lib.functions[f].param_types, fuzz));
  std::vector<RunResult> expected;
  for (std::size_t f = 0; f < lib.functions.size(); ++f)
    expected.push_back(vm_reference::run(lib, MachineConfig{}, f, envs[f]));
  std::vector<std::vector<RunResult>> got(4);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < got.size(); ++t)
    threads.emplace_back([&, t] {
      for (int round = 0; round < 20; ++round)
        for (std::size_t f = 0; f < lib.functions.size(); ++f)
          got[t].push_back(machine.run((f + t) % lib.functions.size(),
                                       envs[(f + t) % lib.functions.size()]));
    });
  for (std::thread& thread : threads) thread.join();
  for (std::size_t t = 0; t < got.size(); ++t)
    for (std::size_t i = 0; i < got[t].size(); ++i) {
      const std::size_t f = (i % lib.functions.size() + t) % lib.functions.size();
      expect_same_run(expected[f], got[t][i],
                      "thread " + std::to_string(t) + " fn " +
                          std::to_string(f));
    }
}

// --- bounded host memory ---------------------------------------------------------

TEST(VmHeap, MallocLoopTrapsAtTheHeapLimit) {
  // ldi r0, 65536; libcall malloc; jmp 0 — without a cap every iteration
  // would pin another 64 KiB of host memory until the step limit.
  const auto lib = asm_lib(
      {ldi(0, 1 << 16), libcall(LibFn::malloc),
       I(Opcode::jmp, reg::none, reg::none, reg::none, 0, 0)});
  MachineConfig config;
  config.step_limit = 30000;
  const RunResult r = Machine(lib, config).run(0, CallEnv{});
  EXPECT_EQ(r.status, ExecStatus::trap_oob);
  // 16 chunks of 64 KiB fill the 1 MiB heap; the 17th malloc traps.
  EXPECT_EQ(rt::heap_limit / rt::malloc_max, 16);
  EXPECT_EQ(r.steps, 16u * 3 + 2);
  EXPECT_LE(Machine::thread_scratch_bytes(), Machine::max_retained_scratch);
}

TEST(VmHeap, ZeroByteMallocsAreChargedToo) {
  const auto lib = asm_lib(
      {ldi(0, 0), libcall(LibFn::malloc),
       I(Opcode::jmp, reg::none, reg::none, reg::none, 0, 0)});
  const RunResult r = Machine(lib).run(0, CallEnv{});
  EXPECT_EQ(r.status, ExecStatus::trap_oob);
  EXPECT_EQ(r.steps, static_cast<std::uint64_t>(rt::heap_limit / 64) * 3 + 2);
}

TEST(VmHeap, HeapUpToTheLimitStillWorks) {
  // Sixteen 64 KiB chunks, then a read of the last chunk's last byte.
  const auto lib = asm_lib(
      {ldi(5, 16),                                   // 0: counter
       ldi(0, 1 << 16), libcall(LibFn::malloc),      // 1, 2
       ldi(6, 1), I(Opcode::sub, 5, 5, 6),           // 3, 4
       I(Opcode::cmp, 7, 5, 8),                      // 5: r8 == 0
       I(Opcode::bgt, reg::none, 7, reg::none, 0, 1),  // 6
       I(Opcode::loadb, 0, 0, reg::none, (1 << 16) - 1), I(Opcode::ret)});
  const RunResult r = check_run(lib, MachineConfig{}, 0, CallEnv{}, "heap");
  EXPECT_EQ(r.status, ExecStatus::ok);
  EXPECT_EQ(r.features.mem_heap, 1u);
}

TEST(VmHeap, RetainedScratchIsBounded) {
  // A 4 MiB stack written at both ends, a full heap, and a long memcpy:
  // every scratch container outgrows its retention share in one run.
  const auto lib = asm_lib(
      {I(Opcode::frame, reg::none, reg::none, reg::none, 4 << 20),
       I(Opcode::store, reg::none, reg::fp, 0, 0),
       ldi(0, 1 << 16), libcall(LibFn::malloc), I(Opcode::mov, 3, 0),
       ldi(0, 1 << 16), libcall(LibFn::malloc),
       I(Opcode::mov, 1, 3), ldi(2, 1 << 16), libcall(LibFn::memcpy),
       I(Opcode::ret)});
  MachineConfig big;
  big.stack_size = 8 << 20;
  const RunResult r = check_run(lib, big, 0, CallEnv{}, "big");
  EXPECT_EQ(r.status, ExecStatus::ok);
  EXPECT_LE(Machine::thread_scratch_bytes(), Machine::max_retained_scratch);
  // The next run on the thread starts from the released state correctly.
  const auto small = asm_lib({I(Opcode::load, 0, reg::sp, reg::none, -8),
                              I(Opcode::ret)});
  EXPECT_EQ(check_run(small, MachineConfig{}, 0, CallEnv{}, "small").ret, 0);
}

}  // namespace
}  // namespace patchecko
