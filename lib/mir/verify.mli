(** Structural and type verifier for MIR graphs.

    {!run} checks, after construction and after every optimization pass,
    that: phi operand counts match predecessor counts; every operand is
    defined in a block that dominates its use (phi operands in the
    corresponding predecessor); terminators target existing reachable
    blocks; guards carry resume points; and the layout list agrees with
    reachability. Property tests run every pass through this.

    {!check_types} is the lint companion used by the pipeline's per-pass
    sandwich mode: it re-derives each instruction's type from its operands'
    declared types and rejects declared types that claim more than the
    operands support (a pass may leave a type imprecise, never wrong).

    Both raise {!Diag.Failed} attributing the first violation to [?pass]. *)

val run : ?pass:string -> Mir.func -> unit
(** @raise Diag.Failed describing the first structural violation found. *)

val check_types : ?pass:string -> Mir.func -> unit
(** @raise Diag.Failed describing the first type inconsistency found. *)

