(** The attribution figure: native-tier cycles per work category (guard /
    alu / mem / call / alloc / control) under the baseline pipeline versus
    the full specializing one, per suite — which checks specialization
    removed (bounds and type guards), which loads it folded, which call
    overhead inlining absorbed. Built on {!Profile.Recorder}; each
    (member, config) cell attaches a fresh recorder to its own engine and
    reads its counts from that engine's registry, so nothing bleeds
    between cells. *)

type cell = {
  native : int;  (** native-tier cycles, all categories *)
  total : int;  (** whole-run model cycles *)
  cats : (Profile.category * int) list;  (** native cycles per category *)
  compiles : int;
  deopts : int;
}

type row = { suite_name : string; base : cell; spec : cell }

type t = row list

val run : unit -> t
(** Run every suite member under both configurations (fanned out over
    {!Pool.default}; byte-identical at any job count). *)

val print : t -> unit
