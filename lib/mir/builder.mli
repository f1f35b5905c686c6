(** Translation of stack bytecode into MIR SSA graphs.

    This is where parameter-based value specialization happens (paper §3.2):
    under a value key ({!Spec_key.Key_values}), every [Parameter] the key
    burns in (and, on the OSR path, every such live argument, plus the
    locals when the snapshot is exact) is created directly as a [Constant]
    carrying the runtime value — imposing zero additional compile time, as
    the constants are made while the graph is built.

    Positions the key leaves free follow IonMonkey's baseline type
    specialization: arguments whose observed runtime tag has been stable get
    a [Type_barrier] guard and are treated as that type downstream. *)

type osr_request = {
  osr_pc : int;  (** bytecode pc of the [Loop_head] being entered *)
  osr_args : Runtime.Value.t array;  (** interpreter frame at OSR time *)
  osr_locals : Runtime.Value.t array;
  osr_bake_locals : bool;
      (** Under a value key the OSR block bakes the frame's burned-in
          arguments as constants (parameter specialization extended to the
          OSR block, paper Figure 7a); every other slot is an [Osr_value]
          load, statically typed to the observed tag — sound because an
          OSR path is entered exactly once, with exactly these values,
          right after compilation. This field says whether the baking
          extends to the locals. Synchronous OSR enters immediately with
          exactly the snapshot, so baking locals is free
          constant-propagation fodder. A deferred (background) entry
          happens after the loop has kept running — a baked loop counter
          would be stale by construction — so the engine passes [false]
          and the locals become live [Osr_value] loads, typed to the
          observed tags. Args are unaffected: their burned values must
          match the specialized body on either path. *)
}

val build :
  program:Bytecode.Program.t ->
  func:Bytecode.Program.func ->
  ?key:Spec_key.t ->
  ?arg_tags:Runtime.Value.tag option array ->
  ?osr:osr_request ->
  ?emit_guards:bool ->
  ?no_checked_int:bool ->
  ?known_globals:int option array ->
  unit ->
  Mir.func
(** Build the MIR graph for [func] under the cache [key] (default
    {!Spec_key.Key_generic}) and record it in [Mir.key]. Argument [i]
    becomes what [Spec_key.at_entry key i] says every admitted call
    passes: a [Constant] for a known value; a runtime [Parameter] typed to
    the key tag behind an entry type barrier for that tag, for a known tag
    (a widened polyvariant version — the abstract interpreter may assume,
    and elide, exactly what the tag probe establishes); otherwise a
    runtime [Parameter], behind a type barrier when [arg_tags] gives a
    stable observed tag for that position. A selective mask thus leaves
    its [false] positions as runtime parameters, and a position past a
    short value tuple burns in [Undefined].
    [known_globals] (from {!Bytecode.Program.known_global_funcs}) lets the
    builder lower a call through a write-once function global as
    [Call_known] — the callee value is still loaded and invoked, but the
    call site carries the callee's identity, which is what makes
    interprocedural argument facts observable. Default [[||]]: no
    resolution (the pre-policy lowering, byte for byte).
    [emit_guards:false] (used when building bodies for inlining) forces
    generic, guard-free element accesses, because inlined code has no
    resume points to bail through. [no_checked_int:true] records overflow
    feedback: arithmetic compiles on the double path instead of the
    overflow-guarded int32 path. *)
