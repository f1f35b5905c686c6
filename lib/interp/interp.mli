(** The bytecode interpreter (the SpiderMonkey role in the paper's
    Figure 5).

    The interpreter is parameterized by {!hooks} so the JIT engine can
    intercept calls (to run compiled code instead) and loop headers (to
    trigger on-stack replacement), and observe every dispatched
    instruction (profile attribution, cooperative deadlines). Bailouts from native code re-enter here
    through {!resume}: the engine reconstructs a frame from the guard's
    resume-point snapshot and interpretation continues at the failing
    bytecode. *)

exception Runtime_error of string

type frame = {
  func : Bytecode.Program.func;
  args : Runtime.Value.t array;
  locals : Runtime.Value.t array;
  cells : Runtime.Value.t ref array;
  upvals : Runtime.Value.t ref array;
  stack : Runtime.Value.t array;
  mutable sp : int;
  mutable pc : int;
}

type state = {
  program : Bytecode.Program.t;
  globals : Runtime.Value.t array;
  mutable icount : int;  (** bytecode instructions interpreted (cost model) *)
  mutable depth : int;  (** live MiniJS call nesting (via {!call_value}) *)
  max_depth : int;
      (** calls beyond this raise [Runtime_error "stack overflow"] — a
          MiniJS-level error, well before the OCaml stack is at risk *)
}

type hooks = {
  call : Runtime.Value.t -> Runtime.Value.t array -> Runtime.Value.t;
      (** Dispatch a call to a closure or native function. The engine may
          run compiled code; the plain evaluator recurses into {!run}. *)
  loop_head : frame -> Runtime.Value.t option;
      (** Invoked at every [Loop_head]. Returning [Some v] means the engine
          completed the rest of the frame natively (OSR) with result [v]. *)
  step : (int -> int -> unit) option;
      (** Per-instruction observer, fired with [(fid, pc)] for every
          interpreted instruction — exactly once per [icount] increment,
          so per-pc counts sum to [icount]. The engine composes its
          profile attribution and its cooperative deadline (which raises
          [Engine.Deadline_exceeded] once the run's budget is spent) into
          this one hook; raising is safe, as the interpreter holds no
          state needing unwinding beyond the frame. [None] costs one
          match per instruction and never alters execution or the cost
          model. *)
}

val default_max_depth : int
(** The default call-depth limit (10_000). *)

val make_state : ?max_depth:int -> Bytecode.Program.t -> state
(** Fresh state with builtin globals installed. [max_depth] bounds MiniJS
    call nesting (default {!default_max_depth}). *)

val make_frame :
  Bytecode.Program.func ->
  args:Runtime.Value.t array ->
  upvals:Runtime.Value.t ref array ->
  frame
(** A frame about to execute from pc 0. Missing arguments are padded with
    [Undefined]; extra arguments are retained (JS semantics for arity
    mismatches). *)

val run : state -> hooks -> frame -> Runtime.Value.t
(** Execute the frame from its current [pc]/[sp] until it returns. *)

val default_hooks : state -> hooks
(** Pure-interpretation hooks: calls recurse into the interpreter, loop
    heads never OSR, no step observer. *)

val run_program : Bytecode.Program.t -> state * Runtime.Value.t
(** Convenience: interpret a whole program (function [main]) with
    {!default_hooks}; returns the final state and the toplevel result. *)

val call_value :
  state -> hooks -> Runtime.Value.t -> Runtime.Value.t array -> Runtime.Value.t
(** Interpret a call to a closure or native-function value (the
    [hooks.call] implementation used by {!default_hooks}). *)
