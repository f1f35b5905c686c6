(** Loop inversion (paper §3.4): rewrites while-shaped loops into
    repeat-shaped loops, replacing the conditional + unconditional jump per
    iteration with a single conditional jump at the bottom, and inserting a
    wrapping conditional before the loop to preserve zero-trip semantics.

    The transformation applies to the while-shaped loops {!Cfg.while_shape}
    recognizes (a single latch, a single preheader, the exit test at the
    header) whose preheader jumps only to the header and whose body entry
    is a plain block, innermost first ({!Cfg.rewrite_innermost}). The paper's
    point is the interaction with the rest of the pipeline: after parameter
    specialization and constant propagation the wrapping conditional often
    folds, and dead-code elimination then removes it — proving at compile
    time that the loop runs at least once. *)

val run : ?max_loops:int -> Mir.func -> int
(** Returns the number of loops inverted. [max_loops] bounds how many are
    transformed (used to bisect and by ablation benches). *)
