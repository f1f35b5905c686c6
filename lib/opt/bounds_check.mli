(** Array-bounds-check elimination (paper §3.6).

    Takes the induction variables {!Cfg.inductions} recognizes, the
    paper's pattern [i0 = exp; i1 = phi(i0, i2); i2 = i1 + c], in every
    loop with a {!Cfg.entry_edge}, and performs a trivial range analysis:
    when the initial value is a known constant, the step is a positive
    constant, and a loop-exit comparison anywhere in the loop bounds the
    variable by a constant, the bounds checks it indexes into
    compile-time-constant arrays of sufficient length are removed.

    Mirroring the paper's remark about IonMonkey's alias analysis, the pass
    is conservative by default: any store instruction or call in the
    function disables elimination entirely ("if there exists any store
    instruction in the script being compiled, the elimination of bound check
    instructions is considered unsafe"). [~precise_alias:true] relaxes this
    to what is actually sound in this VM (element stores can only grow an
    array, so only property stores, method calls and generic calls block the
    pass) — the ablation quantifying what the conservatism costs.

    With [~eliminate_overflow_checks:true] the same ranges also rewrite
    checked int32 arithmetic on the induction variable to unchecked
    arithmetic when no overflow is possible (the Sol et al. style
    overflow-check elimination listed as future work in §6).

    With [~defer_bounds:true] the Bounds_check removal sweep is skipped:
    the abstract-interpretation pass (Guard_elim) subsumes it and records
    each deletion in telemetry exactly once. The overflow-check rewrite is
    unaffected; without it the pass returns at once, before computing
    dominators, loops or ranges. *)

type stats = { bounds_removed : int; overflow_checks_removed : int }

val run :
  ?precise_alias:bool ->
  ?eliminate_overflow_checks:bool ->
  ?defer_bounds:bool ->
  Mir.func ->
  stats
