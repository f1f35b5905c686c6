(** Loop unrolling under compile-time-known trip counts — the first of the
    classic optimizations the paper's §6 proposes to re-implement "in the
    context of runtime-value specialization". Off by default.

    Parameter specialization is what makes this possible at all: the trip
    count of a counted loop becomes a compile-time constant exactly when
    the loop bound was a function parameter. The pass fully unrolls the
    counted while-loops {!Cfg.while_shape} and {!Cfg.inductions}
    recognize (the induction [i = phi(c0, i + c)] that bounds-check
    elimination ranges too) whose header test is [i < k] or [i <= k] with
    [k] constant, when the trip count and the resulting code size are
    small. At most 8 loops are unrolled per function, innermost first
    ({!Cfg.rewrite_innermost}).

    Cloned instructions keep their resume points: the bytecode is
    untouched, so a guard failing in the j-th unrolled copy reconstructs
    the interpreter frame with the j-th iteration's values. *)

val run : ?max_trips:int -> ?max_copied_instrs:int -> Mir.func -> int
(** Returns the number of loops unrolled. Defaults: [max_trips = 8],
    [max_copied_instrs = 256]. *)
