// Reference execution engine for the VM equivalence tests (see
// vm_reference.cpp).
#pragma once

#include <cstddef>

#include "binary/binary.h"
#include "source/interp.h"
#include "vm/machine.h"

namespace patchecko::vm_reference {

/// Runs library.functions[function_index] on `env` exactly as the original
/// Machine::run did, minus the metrics.
RunResult run(const LibraryBinary& library, const MachineConfig& config,
              std::size_t function_index, const CallEnv& env);

}  // namespace patchecko::vm_reference
