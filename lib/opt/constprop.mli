(** Constant propagation (paper §3.3).

    The simplest lattice-based formulation from Aho et al. — each SSA value
    is ⊥, a constant, or ⊤, with a meet-until-fixpoint loop — deliberately
    without Wegman-Zadeck conditional-branch information, exactly as the
    paper chose for compile-time economy.

    Folds: arithmetic/comparison/unary operators (through the very same
    {!Runtime.Ops} the interpreter uses, so folding cannot change
    semantics), [typeof], string [length], pure native calls, and — the key
    enabler for value specialization — type guards: a [Type_barrier] or
    [Check_array] whose operand is a compile-time constant of the right tag
    is folded away. *)

val fold : Mir.func -> (Mir.instr -> Runtime.Value.t option) -> int
(** [fold f value] rewrites every pure, non-[Constant] instruction for
    which [value] returns [Some v] to the constant [v], then moves folded
    phis out of the phi section. Returns the number of instructions
    folded. The one rewrite both constant propagators share: {!run}
    supplies its Aho lattice, {!Sccp} the facts of {!Absint}. *)

val run : Mir.func -> int
(** Returns the number of instructions folded to constants. *)
