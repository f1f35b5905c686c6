(** The flight recorder: a bounded ring of recent telemetry events that
    turns a failure into a post-mortem.

    One recorder per isolate (or per standalone engine), attached to each
    engine's hub ({!attach}): every event is stamped with the emitting
    engine's model-cycle clock and that hub's {!Telemetry.trace}, so the last
    [capacity] policy decisions — probes, widenings, promotions,
    quarantines, cancels, deadline hits, with their inputs — are always
    in memory. A {b trigger} (an injected fault, a deadline expiry, a
    deopt storm, a quarantine, or an explicit request) snapshots the ring
    into a {!dump}; dumps render as JSONL ({!dump_jsonl}) and as a human
    report ({!render}).

    Determinism contract: entries carry only model-clock data, capture
    order is the (serial, per-isolate) emission order, and the number of
    captured dumps is bounded by [max_dumps] — so a chaos run's
    flight-recorder output is byte-identical at any [--jobs]. Ring
    overwrites are counted (the dropped total rides along in each dump
    header), never silent. *)

type entry = {
  fe_seq : int;  (** monotone per recorder, from 1 *)
  fe_ts : int;  (** emitting engine's model-cycle clock *)
  fe_trace : int;  (** trace id at emission; 0 = no request context *)
  fe_request : int;  (** request id; -1 = none *)
  fe_tenant : int;  (** tenant; -1 = none *)
  fe_event : Telemetry.event;
}

type dump = {
  d_trigger : string;
      (** ["fault"], ["deadline"], ["deopt-storm"], ["quarantine"] or
          ["manual"] *)
  d_detail : string;  (** free-form: the request/function that tripped it *)
  d_at : int;  (** model-cycle stamp of the trigger *)
  d_dropped : int;  (** ring overwrites before this dump *)
  d_entries : entry list;  (** the ring at capture time, oldest first *)
}

type t

val create : ?capacity:int -> ?max_dumps:int -> unit -> t
(** Defaults: 64 entries, 4 captured dumps.
    @raise Invalid_argument when either bound is not positive. *)

val attach : t -> Telemetry.t -> clock:(unit -> int) -> unit
(** Record every event emitted on [hub] from now on, stamped with
    [clock ()] and the hub's {!Telemetry.trace} at emission.
    [Quarantine] events auto-trigger a dump — ["deopt-storm"] when that
    was the quarantine reason, ["quarantine"] otherwise. *)

val trigger : t -> trigger:string -> detail:string -> at:int -> unit
(** Capture a dump now (the caller-side triggers: supervised faults,
    deadline outcomes, on-demand dumps). Past [max_dumps] the capture is
    dropped. *)

val dumps : t -> dump list
(** Captured dumps, oldest first. *)

val dump_jsonl : dump -> string list
(** One [vs-flight/1] header object, then one line per entry. *)

val render : dump -> string
(** The human post-mortem: a header line plus one line per entry. *)
