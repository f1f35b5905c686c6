(** The deterministic cycle-cost model of the native-code simulator.

    The paper's evaluation reports relative effects (speedups in percent,
    code-size deltas); a deterministic per-instruction cost model
    reproduces those relative effects while keeping every experiment
    bit-reproducible. Costs are in abstract cycles, ordered the way the
    corresponding x86 operations are: register ALU < memory access <
    guard < allocation < call. Spill-slot operands add a fixed penalty
    per access, which is how register pressure shows up in runtime. *)

val instr : Code.ninstr -> int
(** Base cost of one native instruction (operand penalties included). *)

val call_overhead : int
(** Extra cycles per dynamic user-function call (frame setup). *)

val native_call_overhead : int
val method_call_overhead : int

val interp_per_instr : int
(** Cycles per interpreted bytecode instruction (the interpretation tax;
    roughly one order of magnitude over native register code). *)

val bailout_penalty : int
(** Frame-reconstruction cost when a guard fails. *)

val compile_per_mir_instr : int
(** Compile-time cycles charged per MIR instruction visited by a pass. *)

val compile_per_native_instr : int
(** Compile-time cycles per emitted native instruction (lowering+assembly). *)

val compile_per_interval : int
(** Compile-time cycles per live interval processed by the allocator. *)

val bytes_per_native_instr : int
(** Code-cache bytes one emitted native instruction occupies — the unit of
    the engine's [code_cache_bytes] budget. Not a cycle cost: cache
    accounting never charges model cycles. *)

val bg_compile_cost : size:int -> specialized:bool -> passes:int -> int
(** Modeled latency of one background compile: the deterministic
    completion model maps (enqueue cycle, this cost) to a ready cycle.
    [size] is the function's bytecode length, [passes] the scheduled
    pipeline pass count ({!Pipeline.npasses}), [specialized] whether the
    request burns in values/tags (halving the size term — specialized
    artifacts are pruned early and emit far fewer native instructions) —
    enqueue-time observables only, so the model never waits on (or
    varies with) the real compile running on a pool domain. *)
