(** The native-code executor: a register machine over {!Code.t} with the
    cycle accounting of {!Cost}.

    Executing compiled code either finishes with the function's return
    value or bails out: a failing guard evaluates its snapshot into the
    interpreter-frame state (bytecode pc, argument/local/stack values) that
    the engine uses to resume interpretation — the deoptimization mechanism
    of the paper's Section 3. *)

type activation = {
  act_args : Runtime.Value.t array;  (** boxed arguments (padded to arity) *)
  act_env : Runtime.Value.t ref array;  (** the closure's captured cells *)
  act_cells : Runtime.Value.t ref array;  (** this activation's own cells *)
  act_osr_args : Runtime.Value.t array;  (** interpreter frame at OSR entry *)
  act_osr_locals : Runtime.Value.t array;
}

type bailout = {
  bo_pc : int;  (** bytecode pc to resume at *)
  bo_native_pc : int;  (** native instruction whose guard failed *)
  bo_args : Runtime.Value.t array;
  bo_locals : Runtime.Value.t array;
  bo_stack : Runtime.Value.t array;  (** operand stack, bottom first *)
  bo_reason : string;
}

type outcome = Finished of Runtime.Value.t | Bailed of bailout

type callbacks = {
  call : Runtime.Value.t -> Runtime.Value.t array -> Runtime.Value.t;
      (** engine dispatch for calls made by compiled code *)
  globals : Runtime.Value.t array;  (** the global slot table *)
  cycles : int ref;  (** cycle accumulator, shared with the engine *)
  on_charge : (Code.t -> int -> int -> unit) option;
      (** Cycle-attribution observer, fired as [hook code pc cycles] at
          every site that charges [cycles]: per-instruction cost, call
          overheads, and the bailout penalty (charged to the failing
          guard's pc). [code.origins.(pc)] recovers the provenance of
          each charge. The charges themselves are unchanged, so with
          [None] a run is byte-identical to an observed one. *)
  on_instr : (Code.t -> int -> unit) option;
      (** Per-instruction observer, fired as [hook code pc] once per
          executed instruction, right after its charge and its
          [on_charge] note (so a budget comparison sees a current
          clock). The engine's cooperative deadline raises from here;
          the raise aborts the run without evaluating a snapshot.
          [None] costs one match per instruction. *)
}
(** What the engine hands each run: call dispatch, the globals, the cycle
    accumulator and the execution observers it has attached. *)

type prepared
(** A {!Code.t} decoded once for execution: the code plus its
    per-instruction {!Cost.instr} charges, one int each. The engine builds
    it at install and keeps it on its code-cache entry. *)

val prepare : Code.t -> prepared
(** Check that every location in the code (instructions and snapshot maps)
    is an allocated register or spill slot within its frame, and compute
    the instruction costs. Runs once per install, so the dispatch loop
    reads operands unchecked. @raise Invalid_argument on unallocated code
    (virtual registers) or an out-of-range location — code that
    {!Code_verify} already rejects. *)

val run : callbacks -> prepared -> activation -> at_osr:bool -> outcome
(** Execute prepared code. [at_osr] starts at the code's OSR offset. Per
    instruction: its cached charge, the [on_charge] note, [on_instr], then
    (at the same pc) a call's overhead or a failing guard's bailout
    penalty. Dispatch allocates nothing per instruction beyond the values
    the instruction itself creates and one actuals array per call.
    @raise Runtime.Objmodel.Error for genuine JS type errors (same as the
    interpreter). *)

val make_activation :
  ?env:Runtime.Value.t ref array ->
  ?osr:Runtime.Value.t array * Runtime.Value.t array ->
  func:Bytecode.Program.func ->
  args:Runtime.Value.t array ->
  unit ->
  activation
(** Pad arguments to the arity, allocate fresh cells. *)
