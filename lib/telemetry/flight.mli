(** The flight recorder: a bounded ring of recent telemetry events that
    turns a failure into a post-mortem.

    One recorder per isolate (or per standalone engine), attached to each
    engine's hub ({!attach}): it keeps every event as the hub stamped it —
    function, model cycle and request context ({!Telemetry.event}) — so
    the last [capacity] policy decisions (probes, widenings, promotions,
    quarantines, cancels, deadline hits, with their inputs) are always in
    memory. A {b trigger} (an injected fault, a deadline expiry, a deopt
    storm, a quarantine, or the end of a standalone run) snapshots the
    ring into a {!dump}; dumps render as JSONL ({!output_jsonl}) and as a
    human report ({!render}).

    Determinism contract: entries carry only model-clock data, capture
    order is the (serial, per-isolate) emission order, and the number of
    captured dumps is bounded by [max_dumps] — so a chaos run's
    flight-recorder output is byte-identical at any [--jobs]. Ring
    overwrites are counted (the dropped total rides along in each dump
    header), never silent. *)

type entry = {
  fe_seq : int;  (** monotone per recorder, from 1 *)
  fe_event : Telemetry.event;  (** as stamped at emission *)
}

type dump = {
  d_trigger : string;
      (** ["fault"], ["deadline"], ["deopt-storm"], ["quarantine"] or
          ["end-of-run"] *)
  d_detail : string;  (** free-form: the request/function that tripped it *)
  d_at : int;  (** model-cycle stamp of the trigger *)
  d_dropped : int;  (** ring overwrites before this dump *)
  d_entries : entry list;  (** the ring at capture time, oldest first *)
}

type t

val create : ?capacity:int -> ?max_dumps:int -> unit -> t
(** Defaults: 64 entries, 4 captured dumps.
    @raise Invalid_argument when either bound is not positive. *)

val attach : t -> Telemetry.t -> unit
(** Record every event emitted on [hub] from now on.
    [Quarantine] events auto-trigger a dump — ["deopt-storm"] when that
    was the quarantine reason, ["quarantine"] otherwise. *)

val trigger : t -> trigger:string -> detail:string -> at:int -> unit
(** Capture a dump now (the caller-side triggers: supervised faults,
    deadline outcomes, the end of a run). Past [max_dumps] the capture is
    dropped. *)

val dumps : t -> dump list
(** Captured dumps, oldest first. *)

val output_jsonl : out_channel -> dump list -> unit
(** Write the dumps as [vs-flight/1] JSONL, line by line: per dump one
    header object, then one line per entry with its sequence number, model
    cycle ([ts]), request context (trace 0, request and tenant -1 when
    none) and event. *)

val render : dump -> string
(** The human post-mortem: a header line plus one line per entry. *)
