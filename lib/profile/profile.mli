(** Cycle-accounting profiler.

    Attribution rides the origin tags the IRs carry ({!Mir.origin} threaded
    into {!Code.t.origins} by lowering): a {!Recorder} attached to an
    engine ([Engine.attach_profile]) charges every model cycle to the
    (function, bytecode pc, producing pass) that caused it, split by
    execution {!tier} and work {!category}. The engine passes the
    recorder's hooks to the executors in the callback records it builds
    for each run ({!Exec.callbacks}, {!Interp.hooks}); nothing is
    domain-local, so a recorder sees exactly the engine it is attached to.
    (Lifecycle spans live on the engine's {!Telemetry.t} hub.)

    Everything here is observation-only: no charge is altered, and with no
    recorder attached every hook is [None], so a profiled-off run is
    byte-identical to an unprofiled one. By construction the recorder's
    {!Recorder.total_cycles} equals the engine report's [total_cycles]
    exactly. *)

(** Execution tier a cycle was spent in. *)
type tier =
  | T_interp  (** bytecode interpretation *)
  | T_native_gen  (** generic (unspecialized) native code *)
  | T_native_spec  (** value-specialized native code *)
  | T_native_widened
      (** tag-specialized native code: a widened polyvariant version *)
  | T_compile  (** the JIT itself: pipeline + codegen *)

val tier_to_string : tier -> string

(** Kind of work a cycle paid for — the guard/ALU/memory split the paper's
    attribution argument is about. *)
type category =
  | C_guard  (** type barriers, array checks, bounds checks *)
  | C_alu  (** arithmetic, compares, moves, coercions *)
  | C_mem  (** loads/stores: elements, properties, globals, cells *)
  | C_call  (** call dispatch and its overhead *)
  | C_alloc  (** arrays, objects, closures *)
  | C_control  (** jumps, branches, returns, loop heads *)
  | C_compile  (** compile-time work ({!T_compile} only) *)

val category_to_string : category -> string
val category_of_op : Code.op -> category
val category_of_ninstr : Code.ninstr -> category
val category_of_bytecode : Bytecode.Instr.t -> category

type key = {
  k_fid : int;
  k_pc : int;  (** bytecode pc; [-1] for charges with no bytecode site *)
  k_pass : string;  (** producing stage: ["build"], a pass name, ["bytecode"]… *)
  k_tier : tier;
  k_cat : category;
  k_ver : int;
      (** version-cache id of the charging binary under the polyvariant
          policy; [0] = unversioned (paper policy, interpreter, compile) *)
}
(** One attribution cell's identity. *)

type row = { r_key : key; r_cycles : int; r_count : int }

(** The cycle-attribution accumulator. One per profiled engine; attach
    with [Engine.attach_profile]. *)
module Recorder : sig
  type t

  val create : program:Bytecode.Program.t -> t

  val exec_hook : t -> Code.t -> int -> int -> unit
  (** The [Exec.callbacks.on_charge] payload: classifies a native charge
      via [code.origins.(pc)] and the opcode. *)

  val instr_hook : t -> Code.t -> int -> unit
  (** The profile half of [Exec.callbacks.on_instr]: counts one execution
      of the opcode at [pc] with its {!Cost.instr} cycles, for
      {!op_table}. *)

  val interp_hook : t -> int -> int -> unit
  (** The profile half of [Interp.hooks.step]: one
      [Cost.interp_per_instr] charge per interpreted instruction. *)

  val note_compile : t -> fid:int -> stage:string -> int -> unit
  (** Record a compile-stage charge ([stage] is ["mir"] or ["codegen"]),
      reported by the engine adjacent to each [compile_cycles] bump —
      including aborted compiles, so attribution stays exact under
      faults. *)

  val total_cycles : t -> int
  (** Sum over all cells — equals the engine report's [total_cycles] when
      the recorder covered the whole run. *)

  val rows : t -> row list
  (** Every cell, key-sorted (deterministic). *)

  val tier_cycles : t -> tier -> int

  type func_summary = {
    fs_fid : int;
    fs_name : string;
    fs_total : int;
    fs_interp : int;
    fs_native_gen : int;
    fs_native_spec : int;
    fs_native_widened : int;
    fs_compile : int;
    fs_guard : int;  (** category fields cover the native tiers only *)
    fs_alu : int;
    fs_mem : int;
    fs_call : int;
    fs_alloc : int;
    fs_control : int;
  }

  val by_function : t -> func_summary list
  (** Per-function rollup, descending total (ties by fid). *)

  val native_category_cycles : t -> (category * int) list
  (** Native-tier cycles per category across all functions — the
      attribution figure's input. *)

  val folded : t -> string
  (** Folded-stack flamegraph text: ["fname;tier;pass;category cycles"]
      lines, sorted (deterministic across job counts). *)

  val table : ?top:int -> t -> string
  (** The [--profile] report: top-N functions by total cycles with
      per-tier columns and the native guard/alu/mem percentage split. *)

  val op_table : t -> string
  (** The [--profile] native-op table: executions and {!Cost.instr}
      cycles per native opcode, most cycles first. *)
end
