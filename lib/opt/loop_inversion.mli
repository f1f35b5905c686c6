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

val run : ?max_loops:int -> ?after:(Cfg.dominators -> unit) -> Mir.func -> int
(** Returns the number of loops inverted. [max_loops] bounds how many are
    transformed (used to bisect and by ablation benches); [run ~max_loops:1]
    repeated inverts the same loops in the same order as one [run].

    An inversion contracts the old header into the preheader and the latch
    ({!Cfg.Contracted}), so one dominator tree and one loop forest serve a
    whole sweep. Within a sweep an index from each def to the blocks that
    may use it, built on the first inversion, limits each inversion's scans
    to the loop and the blocks that use a header def: a sweep costs
    O(blocks + loops) plus the size of the loops and of those uses.
    [after] sees the carried dominator tree after each inversion (the
    pipeline's check mode compares it with a recomputed one,
    {!Cfg.check_dominators}). *)
