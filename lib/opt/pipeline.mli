(** Optimization pipelines: the paper's configuration grid.

    A {!config} names which of the paper's five optimizations are active.
    [param_spec] is consumed by the engine when it builds the MIR (the
    specialization itself happens in {!Builder.build}); the remaining flags
    choose passes here. Global value numbering, type specialization and
    invariant code motion always run — they are IonMonkey's baseline.

    {!figure9_configs} lists the ten columns of the paper's Figure 9 in
    order; {!baseline} is plain IonMonkey (the reference all speedups are
    measured against); {!best} is the configuration the paper headlines
    (PS + CP + DCE, its strongest SunSpider column). *)

type config = {
  name : string;
  param_spec : bool;  (** §3.2 + closure inlining §3.7 *)
  constprop : bool;  (** §3.3 *)
  sccp : bool;
      (** ablation: replace the Aho constant propagation with Wegman-Zadeck
          sparse conditional constant propagation ({!Sccp}) *)
  loop_inversion : bool;  (** §3.4 *)
  dce : bool;  (** §3.5 *)
  bounds_check_elim : bool;  (** §3.6 *)
  precise_alias : bool;  (** ablation: relax the store-conservative rule *)
  overflow_elim : bool;  (** §6 future work: overflow-check elimination *)
  loop_unroll : bool;  (** §6 future work: unrolling under known trip counts *)
  licm : bool;  (** baseline invariant code motion; off only for ablations *)
  gvn : bool;  (** baseline value numbering; off only for ablations *)
  guard_elim : bool;
      (** abstract-interpretation guard elision ({!Guard_elim}); on by
          default, off only for ablations and differential testing *)
}

val baseline : config
val best : config
val all_on : config

val figure9_configs : config list
(** The ten optimization columns of Figure 9, left to right. *)

val make :
  ?ps:bool -> ?cp:bool -> ?sccp:bool -> ?li:bool -> ?dce:bool -> ?bce:bool ->
  ?precise_alias:bool -> ?overflow_elim:bool -> ?loop_unroll:bool ->
  ?licm:bool -> ?gvn:bool -> ?ge:bool -> string -> config

(** Pass-execution statistics, for the compile-time model and the tests. *)
type run_stats = {
  folded : int;
  inlined : int;
  loops_inverted : int;
  branches_folded : int;
  instrs_removed : int;
  overflow_removed : int;  (** checked adds made unchecked (§6 extension) *)
  unrolled : int;
  guards_elided : int;  (** guards deleted by the {!Guard_elim} pass *)
  elisions : Mir.elision list;
      (** origin provenance of each deleted guard, for telemetry events *)
  mir_instrs_processed : int;
      (** the compile-time model's weight: the sum of [pd_before] over
          [passes]. Every pass is billed the graph size it enters, so
          leaner graphs compile faster, as §4 observes; a pass that does
          not run is not billed *)
  passes : Telemetry.pass_delta list;
      (** every pass that ran, in execution order, with the graph size
          entering and leaving it — the per-pass attribution the engine
          forwards on its [Compile_end] telemetry event *)
}

val apply : ?check:bool -> program:Bytecode.Program.t -> config -> Mir.func -> run_stats
(** Run the configured passes over a freshly built MIR graph: type
    specialization, GVN and constant propagation; closure inlining (when
    specializing), unrolling and loop inversion, each followed by the
    clean-up passes it needs when it changed the graph; DCE, the
    bounds-check slot (the overflow-check rewrite, under [overflow_elim]),
    LICM and guard elision, which removes the provable bounds checks. One
    runner executes
    every pass: it records the pass in [passes], bills it the graph size
    it enters (so [mir_instrs_processed] is the sum of [pd_before]), and,
    when [check] (per-pass verification, "sandwich" mode; default
    [false]) is on, runs {!Verify.run}, {!Verify.check_types} and
    translation validation after it, raising {!Diag.Failed} attributed to
    the offending pass. The structural verifier also runs once at the
    end, unconditionally. Tests, the fuzzer and [bin/irlint] turn [check]
    on through [Engine.config.check]; benchmarks leave it off.
    Verification never contributes to the compile-cycle model. *)

val npasses : config -> int
(** Scheduled pass count for this config — the compile-latency weight the
    background queue's deterministic completion model multiplies into
    {!Cost.bg_compile_cost}. An approximation of [apply]'s schedule;
    deterministic and monotone in the flags, which is all the model
    needs. *)
