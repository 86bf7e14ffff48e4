// The dynamic-analysis execution engine.
//
// The paper instruments candidate functions on-device through GDB/gdbserver
// (Android) or debugserver (iOS) after exporting them as function-level
// executables via DLL injection + LIEF. Our Machine provides the same
// capability for the synthetic ISA: execute *one* function of a library,
// without loading anything else, on a caller-chosen execution environment,
// while tracing every instruction to produce the Table II dynamic features.
//
// Memory is a table of bounds-checked objects:
//   * lib   — the library string pool (read-only; laid out once, when the
//             Machine is constructed, and shared by every run)
//   * anon  — the environment's byte buffers (the paper counts fuzzer-
//             provided inputs as anonymous mappings)
//   * heap  — malloc'd chunks, at most rt::heap_limit bytes per run
//   * stack — one contiguous region holding frames, spills and push/pop
// Any access outside an object traps, which matches the reference
// interpreter's per-buffer bounds exactly.
//
// A run's mutable state (buffer copies, heap, stack, frames, per-site
// counters) lives in scratch owned by the calling thread and reused by its
// next run, so a warm run allocates only its RunResult. run() is const and
// safe to call from many threads at once.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "binary/binary.h"
#include "source/interp.h"  // CallEnv, ExecStatus
#include "vm/dynamic_features.h"

namespace patchecko {

struct MachineConfig {
  std::uint64_t step_limit = 1u << 20;
  std::int64_t stack_size = 1 << 16;
  int max_call_depth = 64;
  /// When false, skips the per-instruction feature bookkeeping (used by the
  /// throughput benchmarks to isolate interpreter cost).
  bool collect_features = true;
};

struct RunResult {
  ExecStatus status = ExecStatus::ok;
  std::int64_t ret = 0;          ///< r0 on return (valid when status == ok)
  std::uint64_t steps = 0;
  DynamicFeatures features;
  /// Environment buffers after execution (writes persist), index-aligned
  /// with CallEnv::buffers. Used by the semantic-equivalence tests.
  std::vector<std::vector<std::uint8_t>> buffers_after;
};

/// Executes functions of one library. Construction builds the string-pool
/// image; each run() copies the environment into the calling thread's
/// scratch and executes there. `library` must outlive the Machine.
class Machine {
 public:
  explicit Machine(const LibraryBinary& library, MachineConfig config = {});

  /// Runs library.functions[function_index] on `env`. `env` is not modified;
  /// buffer mutations are returned in RunResult::buffers_after.
  RunResult run(std::size_t function_index, const CallEnv& env) const;

  const LibraryBinary& library() const { return *library_; }

  /// Bytes of execution scratch the calling thread keeps between runs. A
  /// run that needed more releases the excess before it returns, so this
  /// never exceeds max_retained_scratch.
  static std::size_t thread_scratch_bytes();
  static constexpr std::size_t max_retained_scratch = std::size_t{1} << 20;

 private:
  const LibraryBinary* library_;
  MachineConfig config_;
  /// String i lives at string_bases_[i]; string_image_ holds the lib region
  /// from its base up to the last string's NUL, padding zeroed.
  std::vector<std::int64_t> string_bases_;
  std::vector<std::uint8_t> string_image_;
};

}  // namespace patchecko
