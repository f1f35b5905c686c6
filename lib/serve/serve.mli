(** Multi-tenant VM service: isolates, deadlines, supervision and graceful
    degradation under overload.

    The service is a deterministic discrete-event simulation on the model-
    cycle clock. A run samples a stream of web-session requests (one small
    {!Web.request_source} program per tenant), shards them statically over
    [isolates] single-server FIFO queues ([rq_id mod isolates]) and plays
    each isolate's queue serially on its own warm-{!Engine.t} cache; the
    isolates themselves fan out over the {!Pool} default pool. An
    isolate's virtual clock advances by exactly the model cycles its
    engines charge (plus retry backoff), so latencies, counters and the
    printed summary are byte-identical at any [--jobs].

    Per request, in order:

    - {b Admission}: the queue depth (admitted requests unfinished at
      arrival) is compared against [capacity]; at or over it — or when
      the injected {!Faults.Serve_admit} point fires — the request is
      shed without touching an engine.
    - {b Degrade}: depth at or over [overload_depth] admits the request
      in degrade mode ({!Engine.set_degrade}): specialization is shed
      before requests are.
    - {b Queue deadline}: a request whose wait would exceed
      [queue_deadline] expires in the queue and never executes.
    - {b Execution}: up to [1 + retries] attempts. The engine runs with a
      cooperative [deadline] budget; {!Engine.Deadline_exceeded} is a
      clean, never-retried failure (the engine stays warm). Any other
      escaping exception hits the {e supervisor}: the isolate's engines
      are recycled (telemetry absorbed first, programs kept) and the
      attempt is retried after capped exponential backoff
      ([backoff * 2^n], the quarantine shape) until retries exhaust. *)

(** Service counter names (accumulated per isolate alongside the rows
    absorbed from every engine and the [faults.fired.*] counters). *)
module Skey : sig
  val requests : string
  val ok : string
  val shed : string
  val deadline_queue : string
  val deadline_exec : string
  val fault : string
  (** retry-exhausted supervised faults *)

  val retries : string
  val recycles : string

  val escapes : string
  (** exceptions past the supervisor — must stay 0 *)

  val degraded : string
  (** requests admitted in degrade mode *)
end

(** Observability switches, all off by default. The contract: the summary,
    the counters and every printed line of a run are byte-identical
    whether these are on or off — tracing, metrics and the flight
    recorder observe the simulation, they never steer it. *)
type obs = {
  obs_trace : bool;
      (** request-scoped spans: per-request [request]/[queue-wait] spans,
          the engines' lifecycle spans on per-request Perfetto lanes, and
          flow stitches tying a background compile's enqueue to its
          install *)
  obs_metrics : bool;  (** the per-isolate {!Metrics} registry *)
  obs_metrics_every : int;
      (** JSON snapshot period in model cycles (0 = none); a closing
          snapshot at the isolate's final clock is always added *)
  obs_flight : bool;  (** per-isolate {!Flight} recorder on every engine *)
  obs_flight_capacity : int;  (** ring entries per isolate *)
  obs_flight_max_dumps : int;  (** post-mortems kept; overflow counted *)
}

val obs_off : obs

type config = {
  isolates : int;
  requests : int;
  tenants : int;
  capacity : int;  (** run-queue bound per isolate; 0 = unbounded *)
  queue_deadline : int;  (** max cycles queued before expiry; 0 = none *)
  deadline : int;  (** per-attempt engine budget; 0 = none *)
  retries : int;  (** extra attempts after a supervised fault *)
  backoff : int;  (** base retry backoff, model cycles *)
  overload_depth : int;  (** queue depth that flips degrade mode; 0 = never *)
  mean_gap : int;  (** mean inter-arrival gap, model cycles *)
  crash_fraction : float;  (** fraction of requests running the poison program *)
  seed : int;
  chaos : int option;  (** [Some seed]: a fresh fault plan per request *)
  engine : Engine.config;  (** [deadline] is overlaid on this *)
  obs : obs;
}

val default_config :
  ?isolates:int ->
  ?requests:int ->
  ?tenants:int ->
  ?capacity:int ->
  ?queue_deadline:int ->
  ?deadline:int ->
  ?retries:int ->
  ?backoff:int ->
  ?overload_depth:int ->
  ?mean_gap:int ->
  ?crash_fraction:float ->
  ?seed:int ->
  ?chaos:int ->
  ?engine:Engine.config ->
  ?obs:obs ->
  unit ->
  config
(** Defaults: 2 isolates, 80 requests, 6 tenants, unbounded queue, no
    deadlines, 2 retries, 2000-cycle base backoff, no degrade threshold,
    30000-cycle mean gap, no poison, no chaos, default engine,
    observability off. *)

type request = { rq_id : int; rq_tenant : int; rq_arrival : int; rq_poison : bool }

val sample_requests : config -> request list
(** The run's request stream: arrivals from cumulative PRNG gaps (mean
    [mean_gap]), tenants uniform, poison by [crash_fraction].
    Deterministic in [seed]. *)

val requests_for : config -> request list -> isolate:int -> request list
(** The static shard one isolate serves. *)

val tenant_source : config -> int -> string
(** The MiniJS session program a tenant's requests run (tenant [-1] is
    the internal poison program). *)

(** Request classification — a partition: every request gets exactly one. *)
type outcome = Served | Shed | Deadline_queue | Deadline_exec | Fault

val outcome_to_string : outcome -> string

type record = {
  rr_id : int;
  rr_tenant : int;
  rr_isolate : int;
  rr_outcome : outcome;
  rr_arrival : int;
  rr_finish : int;
  rr_latency : int;  (** finish - arrival, model cycles *)
  rr_attempts : int;  (** 0 when the request never executed *)
  rr_warm : bool;  (** the tenant's engine existed at first attempt *)
  rr_compile : int;  (** compile cycles charged during the request *)
}

val run_isolate :
  ?faults:Faults.plan ->
  config ->
  isolate:int ->
  request list ->
  int * record list * (string * int) list
(** Play one isolate's queue serially, returning
    [(isolate, records in request order, counter rows)] (the interaction
    tests' entry point). Installs its own print hook, arms each request's
    fault plan and (with obs on) trace context on the isolate and on
    every engine the request touches, and attaches span sinks / flight
    recorders; folds the faults each plan fired into
    [faults.fired.<point>] and absorbs every engine's counters — and, when
    tracing, closes still-open background-compile flows — before
    returning. [faults] is one plan every request draws from, in place of
    [config.chaos]'s fresh plan per request. *)

type summary = {
  sm_requests : int;
  sm_ok : int;
  sm_shed : int;
  sm_deadline_queue : int;
  sm_deadline_exec : int;
  sm_fault : int;
  sm_p50 : int;  (** served-latency percentiles, nearest-rank, cycles *)
  sm_p95 : int;
  sm_p99 : int;
  sm_makespan : int;  (** latest finish time *)
  sm_throughput : float;  (** served requests per million cycles *)
  sm_cold : int;  (** served requests whose engine was cold *)
  sm_warm : int;
  sm_tail : int;  (** served requests with latency >= p95 *)
  sm_tail_cold : int;  (** ... of which cold: the warm/cold tail split *)
  sm_tail_compile_pct : float;  (** compile cycles' share of tail latency *)
  sm_counters : (string * int) list;  (** merged rows, name-sorted *)
  sm_records : record list;  (** every request, id-sorted *)
}

val counter : summary -> string -> int
(** A merged counter row's value (0 when absent). *)

type obs_result = {
  or_spans : Telemetry.span list;
      (** all isolates' spans, isolate-major then emission order — ready
          for a Chrome trace-event file; requests stitch into lanes by
          trace id *)
  or_metrics : Metrics.t option;
      (** the per-isolate registries merged (losslessly) in isolate
          order *)
  or_snapshots : (int * Metrics.snapshot) list;
      (** periodic snapshots as [(isolate, snapshot)], in (cycle, isolate)
          order; consecutive snapshots of one isolate share the fragments
          of the metrics that did not change *)
  or_flights : (int * Flight.dump) list;  (** [(isolate, dump)] *)
}
(** A run's merged observability output; everything empty with obs off. *)

val run_full : config -> summary * obs_result
(** The whole service run: sample, shard, play every isolate on the
    default pool, merge — summary plus the observability output.
    Byte-identical at any [--jobs], including every [obs_result] field. *)

val run : config -> summary
(** [fst (run_full cfg)]. *)

val error_rate : summary -> float
(** Non-served percentage of all requests. *)

val print_summary : ?counters:bool -> out_channel -> config -> summary -> unit
(** The deterministic report the CI gate diffs across [--jobs] values. *)

val smoke_config : unit -> config
(** The CI smoke scenario: arrivals far faster than service against a
    bounded queue with tight deadlines, poison tenants and a chaos
    schedule — forced overload where every degradation path must fire. *)

val smoke_check : summary -> (unit, string list) result
(** The smoke gate's invariants: outcomes partition the request count,
    zero supervisor escapes, nonzero shed / deadline / recycle / degrade
    counters, and at least one served request. *)
