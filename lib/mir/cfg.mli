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

val check_dominators : pass:string -> Mir.func -> dominators -> unit
(** Compares a dominator tree carried through rewrites (see
    {!rewrite_innermost}) with one recomputed from [f]: the immediate
    dominator of every block and {!dominates} on every pair of blocks.
    Raises [Diag.Failed], attributed to [pass], on the first disagreement.
    O(blocks{^ 2}); for the pipeline's per-pass check mode. *)

type loop = {
  header : int;
  latches : int list;  (** sources of back edges into [header] *)
  body : int list;  (** all blocks of the natural loop, including header *)
}

val natural_loops : Mir.func -> dominators -> loop list
(** Natural loops from back edges [t -> h] where [h] dominates [t]. Loops
    sharing a header are merged. Ordered by body size, descending. The
    order among loops of equal size is deterministic but unspecified (it
    follows an internal hash table's iteration). {!rewrite_innermost}
    walks loops in this order, smallest first, and loop inversion's def
    and block numbering follow it, so a change to the tie order renumbers
    every optimized graph with sequential loops: it must be a deliberate
    one (the loop-inversion golden test pins it). *)

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

(** What a {!rewrite_innermost} callback did to one loop. *)
type rewritten =
  | Kept  (** nothing: the loop does not qualify *)
  | Contracted
      (** the loop's header [h] was contracted into its two predecessors:
          the preheader, [h]'s only predecessor outside the loop and so its
          immediate dominator, and the latch now branch where [h] did, and
          nothing reaches [h] any more. No block was added.
          {!rewrite_innermost} removes [h] from the dominator tree, the
          loop forest and, at the end of the sweep, the graph. *)
  | Reshaped
      (** anything else: the sweep ends, and dominators and loops are
          recomputed before the next loop *)

val rewrite_innermost :
  ?limit:int -> ?after:(dominators -> unit) -> Mir.func ->
  (dominators -> loop -> rewritten) -> int
(** Sweeps of: compute dominators and the loop forest once, apply
    [rewrite doms] once (per-sweep setup may go there), then apply the
    result to every loop, innermost (smallest) first. A [Contracted] loop's
    enclosing loops lose its header and move up the queue as they shrink;
    [doms] stays exact, because paths between the other blocks survive
    with [h] dropped: [h]'s dominator-tree children move to the preheader
    and every other block's dominators are unchanged. [after doms] runs
    after each such update. A [Reshaped] loop ends the sweep.

    Among loops of equal current size the order is that of
    {!natural_loops}, fixed when the sweep's forest is computed. The
    rewrites therefore come in the order one-loop rounds over a recomputed
    forest would take: the smallest qualifying loop first.

    Another sweep follows while the previous one rewrote something. The
    sweeps stop after [limit] rewrites (default unbounded); the result is
    the number of rewrites. Each sweep costs one dominator and loop-forest
    computation plus O(log loops) per rewrite and per enclosing loop that
    shrinks. *)
