// The central compiler/VM correctness property: for every architecture and
// optimization level, executing the compiled function on the VM produces
// exactly the reference interpreter's result — same termination status, same
// return value, same final buffer contents. Parameterized over the full
// (arch, opt) build matrix, over many generated functions and inputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <tuple>

#include "compiler/compiler.h"
#include "fuzz/fuzzer.h"
#include "source/generator.h"
#include "source/interp.h"
#include "source/mutate.h"
#include "vm/machine.h"

namespace patchecko {
namespace {

CallEnv env_for(Rng& rng, const std::vector<ValueType>& params) {
  FuzzConfig config;
  return random_env(rng, params, config);
}

// for (i = 0; i < iterations; ++i) p = malloc(64 KiB); return 0;
SourceLibrary malloc_loop(std::int64_t iterations) {
  SourceLibrary library;
  library.name = "heap";
  SourceFunction fn;
  fn.name = "grow";
  fn.local_types = {ValueType::i64, ValueType::ptr};
  std::vector<ExprPtr> args;
  args.push_back(make_int(1 << 16));
  std::vector<StmtPtr> loop;
  loop.push_back(make_assign(
      1, make_libcall(LibFn::malloc, std::move(args), ValueType::ptr)));
  fn.body.push_back(
      make_for(0, make_int(0), make_int(iterations), std::move(loop)));
  fn.body.push_back(make_ret(make_int(0)));
  library.functions.push_back(std::move(fn));
  return library;
}

TEST(HeapLimit, InterpreterAndVmTrapAtTheSameMalloc) {
  // 16 chunks of 64 KiB fill the per-run heap exactly; the 17th traps on
  // both execution paths, at every architecture and optimization level.
  for (const std::int64_t iterations : {16, 17, 1 << 30}) {
    const SourceLibrary source = malloc_loop(iterations);
    CallEnv interp_env;
    const ExecStatus expected = interpret(source, 0, interp_env).status;
    EXPECT_EQ(expected, iterations <= 16 ? ExecStatus::ok
                                         : ExecStatus::trap_oob);
    for (const Arch arch :
         {Arch::x86, Arch::amd64, Arch::arm32, Arch::arm64})
      for (const OptLevel opt : {OptLevel::O0, OptLevel::O2}) {
        const LibraryBinary binary = compile_library(source, arch, opt);
        EXPECT_EQ(Machine(binary).run(0, CallEnv{}).status, expected)
            << iterations << " mallocs, " << arch_name(arch) << " "
            << opt_level_name(opt);
      }
  }
}

class SemanticsEquivalence
    : public ::testing::TestWithParam<std::tuple<Arch, OptLevel>> {};

TEST_P(SemanticsEquivalence, CompiledMatchesInterpreter) {
  const auto [arch, opt] = GetParam();
  const SourceLibrary source = generate_library("equiv", 0xE011, 40);
  const LibraryBinary binary = compile_library(source, arch, opt, 5000);

  const Machine machine(binary);
  Rng rng(0xD1CE0000 + (static_cast<std::uint64_t>(arch) << 8) +
          static_cast<std::uint64_t>(opt));

  std::size_t checked = 0;
  for (std::size_t f = 0; f < source.functions.size(); ++f) {
    for (int trial = 0; trial < 4; ++trial) {
      CallEnv env = env_for(rng, source.functions[f].param_types);
      CallEnv interp_env = env;  // interpreter mutates in place

      const ExecResult expected = interpret(source, f, interp_env);
      const RunResult actual = machine.run(f, env);

      ASSERT_EQ(static_cast<int>(expected.status),
                static_cast<int>(actual.status))
          << "function " << source.functions[f].name << " trial " << trial
          << " arch " << arch_name(arch) << " opt " << opt_level_name(opt);
      if (expected.status == ExecStatus::ok) {
        // Return values: i64 results compare directly; f64 results compare
        // by bit pattern.
        std::int64_t expected_ret = expected.ret.i;
        if (expected.ret.type == ValueType::f64) {
          std::int64_t bits;
          static_assert(sizeof(bits) == sizeof(expected.ret.f));
          std::memcpy(&bits, &expected.ret.f, sizeof(bits));
          expected_ret = bits;
        }
        EXPECT_EQ(expected_ret, actual.ret)
            << "function " << source.functions[f].name << " trial " << trial;
        // Buffer effects must agree byte for byte (only the original
        // buffers; the interpreter may append malloc'd ones).
        ASSERT_GE(interp_env.buffers.size(), actual.buffers_after.size());
        for (std::size_t b = 0; b < actual.buffers_after.size(); ++b)
          EXPECT_EQ(interp_env.buffers[b], actual.buffers_after[b])
              << "buffer " << b << " of " << source.functions[f].name;
      }
      ++checked;
    }
  }
  EXPECT_EQ(checked, source.functions.size() * 4);
}

TEST_P(SemanticsEquivalence, VulnPatchPairsMatchInterpreter) {
  const auto [arch, opt] = GetParam();
  Rng rng(0xBEEF);
  SourceLibrary library = generate_library("pairlib", 0xAB, 12);
  // The replaced slot must not be callable by later dispatchers (same rule
  // the evaluation corpus applies): pick one with a ptr parameter.
  std::size_t slot = 10;
  for (std::size_t probe = 0; probe < library.functions.size(); ++probe) {
    const auto& types = library.functions[(10 + probe) % 12].param_types;
    if (std::find(types.begin(), types.end(), ValueType::ptr) !=
        types.end()) {
      slot = (10 + probe) % 12;
      break;
    }
  }
  for (int k = 0; k < static_cast<int>(PatchKind::count); ++k) {
    Rng pair_rng = rng.fork(100 + k);
    const VulnPatchPair pair = generate_vuln_patch_pair(
        static_cast<PatchKind>(k), pair_rng, static_cast<int>(slot));
    for (const SourceFunction* version : {&pair.vulnerable, &pair.patched}) {
      library.functions[slot] = *version;
      const LibraryBinary binary = compile_library(library, arch, opt, 900);
      const Machine machine(binary);
      for (int trial = 0; trial < 3; ++trial) {
        Rng env_rng = pair_rng.fork(trial);
        CallEnv env = env_for(env_rng, version->param_types);
        CallEnv interp_env = env;
        const ExecResult expected = interpret(library, slot, interp_env);
        const RunResult actual = machine.run(slot, env);
        ASSERT_EQ(static_cast<int>(expected.status),
                  static_cast<int>(actual.status))
            << patch_kind_name(static_cast<PatchKind>(k)) << " "
            << version->name;
        if (expected.status == ExecStatus::ok) {
          EXPECT_EQ(expected.ret.i, actual.ret);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllArchOpt, SemanticsEquivalence,
    ::testing::Combine(::testing::Values(Arch::x86, Arch::amd64, Arch::arm32,
                                         Arch::arm64),
                       ::testing::Values(OptLevel::O0, OptLevel::O1,
                                         OptLevel::O2, OptLevel::O3,
                                         OptLevel::Oz, OptLevel::Ofast)),
    [](const ::testing::TestParamInfo<std::tuple<Arch, OptLevel>>& info) {
      return std::string(arch_name(std::get<0>(info.param))) + "_" +
             std::string(opt_level_name(std::get<1>(info.param)));
    });

}  // namespace
}  // namespace patchecko
