// Interpreter engine selection, shared between the uvm layer (which
// implements the engines) and the kernel config / CLI (which pick one).
//
// Three tiers, strongest contract in the middle:
//   kSwitch   -- the portable fetch/decode/switch loop. Reference semantics.
//   kThreaded -- computed-goto dispatch over the predecoded side-table with
//                superinstruction fusion; bit-identical to kSwitch.
//   kJit      -- per-basic-block template JIT emitting host code into a W^X
//                arena; bit-identical to kSwitch, deopting to the switch
//                core at block boundaries for anything non-straight-line.
//
// kJit is the kernel's default (KernelConfig::interp_engine). Engines degrade
// gracefully: kThreaded without computed-goto support runs kSwitch; kJit on
// a host without executable pages (or a non-x86-64 build) runs kThreaded,
// with a one-time logged warning only when kJit was asked for by name.
// Degradation never changes observable execution -- only host speed and
// host-side jit_*/interp_* counters.

#ifndef SRC_UVM_ENGINE_H_
#define SRC_UVM_ENGINE_H_

namespace fluke {

enum class InterpEngine : int {
  kSwitch = 0,
  kThreaded = 1,
  kJit = 2,
};

inline const char* InterpEngineName(InterpEngine e) {
  switch (e) {
    case InterpEngine::kSwitch:
      return "switch";
    case InterpEngine::kThreaded:
      return "threaded";
    case InterpEngine::kJit:
      return "jit";
  }
  return "?";
}

}  // namespace fluke

#endif  // SRC_UVM_ENGINE_H_
