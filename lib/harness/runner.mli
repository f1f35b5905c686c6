(** Shared plumbing for the experiment drivers: run suite members under a
    configuration with [print] silenced, deterministically. *)

val quiet : (unit -> 'a) -> 'a
(** Evaluate with the [print] builtin suppressed, restoring the sink
    afterwards. The sink is domain-local and {!Engine.run} reseeds
    [Math.random], which makes a [quiet] thunk a self-contained pool
    task. *)

val run_member : Engine.config -> Suite.member -> Engine.report
(** Run one suite member quietly. *)

val run_suite : Engine.config -> Suite.t -> (string * Engine.report) list
(** Run every member — fanned out over {!Pool.default}, merged back in
    member order, so the result is byte-for-byte the serial one. *)

val called_functions : Engine.report -> Engine.func_report list
(** Function reports with at least one call, excluding the toplevel. *)
