(** Control-flow-graph analyses over {!Mir.func}: dominators, natural
    loops and the counted while-loop the loop passes share. Used by GVN
    (dominance-based value reuse), LICM, loop inversion, unrolling and
    the abstract interpreter's induction ranges (bounds-check
    elimination). *)

type dominators

val dominators : Mir.func -> dominators

val reachable : dominators -> int -> bool
(** Some entry reaches the block. *)

val immediate_dominator : dominators -> int -> int option
(** [None] for entry blocks and unreachable blocks. *)

val dominates : dominators -> int -> int -> bool
(** [dominates doms a b]: every path from an entry to [b] passes through
    [a]. Reflexive on reachable blocks; false when either block is
    unreachable. O(1): the first query numbers the dominator tree. *)

type loop = {
  header : int;
  latches : int list;  (** sources of back edges into [header] *)
  body : int list;  (** all blocks of the natural loop, including header *)
}

val natural_loops : Mir.func -> dominators -> loop list
(** Natural loops from back edges [t -> h] where [h] dominates [t]. Loops
    sharing a header are merged. Ordered by body size, descending. The
    order among loops of equal size is deterministic but unspecified (it
    follows an internal hash table's iteration). Loop inversion picks its
    next loop from this list, and its def and block numbering follow that
    choice, so a change to the tie order renumbers every optimized graph
    with sequential loops: it must be a deliberate one (the loop-inversion
    golden test pins it). *)

(** {1 The counted while-loop}

    The loop shape the loop passes share (paper §3.4 and §3.6): a
    while-loop entered from one preheader, tested at its header, whose
    counters are [i = phi(i0, i + c)]. Loop inversion, unrolling,
    LICM and the abstract interpreter ask these functions instead of
    re-deriving the shape; each adds only its own extra conditions. *)

val in_loop : loop -> int -> bool

val entry_edge : Mir.func -> loop -> (int * int) option
(** The preheader and its index among the header's preds, when the header
    has exactly two preds and exactly one of them lies outside the loop. *)

type while_shape = {
  pre : int;  (** the preheader, as {!entry_edge} finds it *)
  i_pre : int;  (** its index among the header's preds *)
  latch : int;
  test : Mir.def;  (** the header branch's condition *)
  body_entry : int;  (** the branch side that stays in the loop *)
  exit : int;  (** the other side *)
  stays_on_true : bool;  (** [body_entry] is the branch's true side *)
}

val while_shape : Mir.func -> loop -> while_shape option
(** The loop is while-shaped: it has an {!entry_edge} and one latch, other
    than the header, that ends in [Goto header]; the header ends in a
    [Branch] with exactly one side in the loop, and that side is not the
    header itself. An inverted (bottom-tested) loop does not match. *)

type induction = {
  phi : Mir.def;  (** the header phi [i] *)
  next : Mir.def;  (** its latch operand, [i + stride] *)
  init : int;  (** its entry operand, a constant *)
  stride : int;  (** positive *)
}

val inductions : Mir.func -> loop -> i_pre:int -> induction list
(** The header's binary phis whose entry operand (index [i_pre]) is a
    constant int and whose latch operand adds a positive constant to the
    phi, either operand possibly wrapped in a [ToNumber]. In phi order. *)

val rewrite_innermost : ?limit:int -> Mir.func -> (dominators -> loop -> bool) -> int
(** Rounds of: compute dominators and the loop forest, then apply
    [rewrite] to the loops innermost (smallest) first until one returns
    [true]. Stops after a round in which none does, or after [limit]
    rewrites (default unbounded). Returns the number of rewrites. *)
