(** Background compilation: a bounded compile queue with a deterministic
    completion model.

    The engine's hot-call sites stop blocking on the compiler: they
    enqueue a request here and keep interpreting; the artifact is
    harvested at a later call or loop edge. Two clocks are in play and
    the whole design hinges on keeping them apart:

    - {b The model clock} decides {e when} an artifact becomes visible.
      Every entry gets a ready cycle from a FIFO service model with a
      small fixed crew of virtual compiler servers ({!service_width} — a
      constant of the model, never the physical [--jobs]):
      [start = max enqueue_cycle busy_until] of the earliest-free
      server, [ready = start + cost],
      where [cost] is a deterministic function of enqueue-time
      observables only (bytecode size, pipeline schedule — see
      {!Cost.bg_compile_cost}). Nothing about the real compile — not even
      whether it has physically finished — feeds back into the model, so
      results are byte-identical at any [--jobs] and the [check-model]
      gate stays exact.
    - {b The wall clock} is where the win shows: with [--jobs > 1] the
      actual compile runs on a pool domain ({!Task}) overlapped with
      interpretation; at [--jobs 1] it is deferred and forced inline at
      harvest. Either way the artifact is identical, so scheduling
      affects wall-clock only.

    The queue is generic over the payload: the engine stores its install
    plan (the {!Task}, the policy choice, the OSR snapshot, the
    supersede victim) and this module never looks inside it. *)

(** {1 Deferred compile execution} *)

module Task : sig
  type 'a t

  val spawn : ?inline:bool -> (unit -> 'a) -> 'a t
  (** Start a deferred computation. If [inline] is set, or the default
      pool is serial, the thunk is kept and run on the forcing domain at
      the first {!force} — the engine passes [inline:true] whenever the
      closure captures mutable runtime values, so both [--jobs] settings
      read them at the same (harvest-time) point. Otherwise the thunk is
      handed to the default pool with {!Pool.submit}, behind every queued
      [map] task, and runs concurrently with the submitter. *)

  val force : 'a t -> 'a
  (** The result, memoized; awaits (helping) if the pool job is still in
      flight. An exception the thunk raised is re-raised here, on the
      forcing domain, with its backtrace — on either path. Raises
      [Invalid_argument] on a task whose pool job was successfully
      cancelled. *)

  val cancel : 'a t -> unit
  (** Best-effort: drops a pool job that has not started and marks the
      task dead; a running/finished job (or an inline thunk) is simply
      abandoned to the GC. Never blocks. *)
end

(** {1 The queue} *)

val service_width : int
(** Virtual compiler servers in the completion model (a fixed model
    constant, independent of the physical pool size). *)

type 'a entry = {
  e_id : int;  (** enqueue sequence number, unique per queue *)
  e_fid : int;  (** requesting function *)
  e_enqueue : int;  (** model cycle at enqueue *)
  e_cost : int;  (** modeled compile latency of this attempt *)
  e_ready : int;  (** model cycle at which the artifact lands *)
  e_attempts : int;  (** 1 on first enqueue; bumped by fault re-enqueues *)
  e_payload : 'a;
}

type 'a t

val create : depth:int -> 'a t
(** A queue admitting at most [depth] (clamped to at least 1) in-flight
    entries; enqueues beyond that overflow. *)

val depth : 'a t -> int

val length : 'a t -> int
(** In-flight entries (queued, not yet harvested). *)

val pending_for : 'a t -> fid:int -> 'a entry option
(** The oldest in-flight entry for [fid], if any — the engine keeps at
    most one per function. *)

val enqueue :
  'a t -> fid:int -> now:int -> cost:int -> ?attempts:int -> 'a -> ('a entry, [ `Overflow ]) result
(** Admit a request at model cycle [now] and assign its ready cycle on
    the earliest-free virtual server (lowest index on ties). The chosen
    server's [busy_until] advances whether or not the entry is later
    cancelled — the modeled compiler worked on it regardless. *)

val take_ready : 'a t -> fid:int -> now:int -> 'a entry list
(** Remove and return every entry for [fid] whose ready cycle has passed,
    ordered by (ready, id). The harvest point. *)

val drain : 'a t -> 'a entry list
(** Remove and return everything in flight, in enqueue order — degrade
    mode and isolate recycling use this to cancel the queue. *)
