(** Control-flow-graph analyses over {!Mir.func}: dominators and natural
    loops. Used by GVN (dominance-based value reuse), LICM and loop
    inversion. *)

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

val loop_depth : loop list -> int -> int
(** Number of loops whose body contains the block. *)
