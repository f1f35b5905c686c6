(** Deterministic splittable pseudo-random number generator (SplitMix64).

    All stochastic components of the reproduction (workload generators,
    property-test seeds) draw from this generator so that every figure and
    table regenerates byte-identically across runs. *)

type t

val create : int -> t
(** [create seed] makes a fresh generator from a seed. *)

val split : t -> t
(** [split t] derives an independent generator; [t] advances. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Requires [bound > 0]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val weighted : t -> (float * 'a) list -> 'a
(** [weighted t choices] picks proportionally to the (positive) weights.
    Requires a non-empty list with positive total weight. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
