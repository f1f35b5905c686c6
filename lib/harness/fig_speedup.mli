(** Figure 9: runtime speedups (a: arithmetic, b: geometric mean) and
    compilation overheads (c, d) for the ten optimization configurations,
    across the three suites.

    Each suite member runs once per configuration plus once under the
    IonMonkey baseline; speedup is [(base - v) / v * 100] on total model
    cycles (interpretation + compilation + native execution, the paper's
    "time measured in each run includes interpretation, compilation and
    native execution"), and compilation overhead is the percentage change
    of compile cycles against the baseline. *)

type cell = {
  speedups : float list;  (** per-member runtime speedups, in % *)
  overheads : float list;  (** per-member compile-time deltas, in % *)
}

type t = {
  config_names : string list;  (** the ten column labels *)
  suites : (string * cell list) list;  (** per suite, one cell per config *)
}

val run : unit -> t

val print : t -> unit
