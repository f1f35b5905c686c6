(** Sparse conditional constant propagation (Wegman–Zadeck), as a constant
    folder over {!Absint}.

    The ablation comparator for {!Constprop}: the paper (§3.3) deliberately
    uses the branch-insensitive Aho formulation for compile-time economy;
    this pass measures what that choice left on the table (see the
    constant-propagation ablation in [bench/main.exe]).

    The pass has no fixpoint of its own: {!Absint.analyze} is already an
    SCCP-style one, where values flow only along executable edges and a
    constant branch marks only its taken side executable. So a phi fed by
    a branch side that specialization proves dead folds to the live
    operand's constant. Through {!Constprop.fold}, a phi folds when its
    abstract value is a constant; a [Binop], [Cmp], [Unop], [To_bool],
    [Box], [String_length], [Type_barrier], [Check_array] or pure
    [Call_native] folds when its value and all its operands are constants.

    That operand rule keeps guards: an abstract value holds only if control
    gets past the def, so [Type_barrier (x, Int)] on [x = φ(3, 0.5)] is
    [Const 3] although it fails on the 0.5 path. A guard folds only on a
    constant operand of the guarded tag, as in {!Constprop}, and a
    [Bounds_check] never folds.

    Branches are not rewritten: resolving the now-constant branches and
    deleting the unreachable blocks remains {!Dce}'s job, so the two passes
    compose the same way. *)

type stats = {
  folded : int;  (** instructions rewritten to constants *)
  branches_decided : int;
      (** executable conditional branches whose condition is a constant *)
}

val run : Mir.func -> stats
