(* The multi-tenant VM service: N isolates over the task pool, each a
   single-server FIFO queue of web-session requests against warm engines.

   Everything runs on the deterministic model-cycle clock. Each isolate's
   virtual clock advances by exactly the cycles its engines charge (plus
   backoff waits), arrivals are drawn from the request PRNG, and requests
   are sharded statically (rq_id mod isolates) — so every isolate is an
   independent serial simulation and [run]'s summary is byte-identical at
   any --jobs. *)

open Support

(* ------------------------------------------------------------------ *)
(* Counter names                                                       *)
(* ------------------------------------------------------------------ *)

(* Each name is made a registry key as the module initialises, and so is
   every fault point's fired counter; a bump looks its key up by name. *)
let skey s = Telemetry.Key.(name (make s))

module Skey = struct
  let requests = skey "serve.requests"
  let ok = skey "serve.ok"
  let shed = skey "serve.shed"
  let deadline_queue = skey "serve.deadline.queue"
  let deadline_exec = skey "serve.deadline.exec"
  let fault = skey "serve.fault.exhausted"
  let retries = skey "serve.retries"
  let recycles = skey "serve.recycles"
  let escapes = skey "serve.escapes"
  let degraded = skey "serve.degraded"
end

let fired_key point = Telemetry.Key.faults_fired (Faults.point_to_string point)
let () = List.iter (fun p -> ignore (skey (fired_key p))) Faults.all_points

(* ------------------------------------------------------------------ *)
(* Configuration and the request stream                                *)
(* ------------------------------------------------------------------ *)

(* Observability switches. All off by default, and the run's summary and
   counters are byte-identical whether they are on or off: tracing,
   metrics and the flight recorder read the simulation, never steer it. *)
type obs = {
  obs_trace : bool;  (* request-scoped spans + bg-compile flow stitches *)
  obs_metrics : bool;  (* the per-isolate Metrics registry *)
  obs_metrics_every : int;  (* snapshot period in model cycles; 0 = none *)
  obs_flight : bool;  (* per-isolate flight recorder *)
  obs_flight_capacity : int;
  obs_flight_max_dumps : int;
}

let obs_off =
  {
    obs_trace = false;
    obs_metrics = false;
    obs_metrics_every = 0;
    obs_flight = false;
    obs_flight_capacity = 64;
    obs_flight_max_dumps = 4;
  }

type config = {
  isolates : int;
  requests : int;
  tenants : int;
  capacity : int;
  queue_deadline : int;
  deadline : int;
  retries : int;
  backoff : int;
  overload_depth : int;
  mean_gap : int;
  crash_fraction : float;
  seed : int;
  chaos : int option;
  engine : Engine.config;
  obs : obs;
}

let default_config ?(isolates = 2) ?(requests = 80) ?(tenants = 6) ?(capacity = 0)
    ?(queue_deadline = 0) ?(deadline = 0) ?(retries = 2) ?(backoff = 2_000)
    ?(overload_depth = 0) ?(mean_gap = 30_000) ?(crash_fraction = 0.0) ?(seed = 1)
    ?chaos ?(engine = Engine.default_config ()) ?(obs = obs_off) () =
  {
    isolates = max 1 isolates;
    requests = max 0 requests;
    tenants = max 1 tenants;
    capacity = max 0 capacity;
    queue_deadline = max 0 queue_deadline;
    deadline = max 0 deadline;
    retries = max 0 retries;
    backoff = max 0 backoff;
    overload_depth = max 0 overload_depth;
    mean_gap = max 0 mean_gap;
    crash_fraction;
    seed;
    chaos;
    engine;
    obs;
  }

type request = { rq_id : int; rq_tenant : int; rq_arrival : int; rq_poison : bool }

let sample_requests cfg =
  let prng = Prng.create ((cfg.seed * 7) + 3) in
  let t = ref 0 in
  List.init cfg.requests (fun i ->
      let gap = if cfg.mean_gap = 0 then 0 else Prng.int prng ((2 * cfg.mean_gap) + 1) in
      t := !t + gap;
      let tenant = Prng.int prng cfg.tenants in
      let poison = Prng.float prng 1.0 < cfg.crash_fraction in
      { rq_id = i; rq_tenant = tenant; rq_arrival = !t; rq_poison = poison })

let requests_for cfg reqs ~isolate =
  List.filter (fun r -> r.rq_id mod cfg.isolates = isolate) reqs

(* A request that hits a VM-level bug: MiniJS cannot read a property off
   null, so every attempt raises through the engine and exercises the
   supervisor's recycle/retry/backoff path. *)
let poison_source = "var broken = null;\nvar boom = broken.f;\nprint(boom);\n"
let poison_key = -1

let tenant_source cfg tenant =
  if tenant = poison_key then poison_source
  else Web.request_source ~seed:((cfg.seed * 131) + tenant)

(* ------------------------------------------------------------------ *)
(* Outcomes and per-request records                                    *)
(* ------------------------------------------------------------------ *)

type outcome = Served | Shed | Deadline_queue | Deadline_exec | Fault

let outcome_to_string = function
  | Served -> "ok"
  | Shed -> "shed"
  | Deadline_queue -> "deadline-queue"
  | Deadline_exec -> "deadline-exec"
  | Fault -> "fault"

type record = {
  rr_id : int;
  rr_tenant : int;
  rr_isolate : int;
  rr_outcome : outcome;
  rr_arrival : int;
  rr_finish : int;
  rr_latency : int;
  rr_attempts : int;
  rr_warm : bool;
  rr_compile : int;
}

(* ------------------------------------------------------------------ *)
(* One isolate                                                         *)
(* ------------------------------------------------------------------ *)

type iso = {
  iso_id : int;
  iso_cfg : config;
  iso_ecfg : Engine.config;
  engines : (int, Engine.t) Hashtbl.t;  (* tenant key -> warm engine *)
  programs : (int, Bytecode.Program.t) Hashtbl.t;  (* survives recycles *)
  hub : Telemetry.t;
      (* the isolate's own counts and request spans; with tracing on, its
         span sink is also attached to every engine, so one stream
         carries both layers *)
  mutable vclock : int;  (* when this isolate next falls idle *)
  mutable pending : int list;  (* finish times of admitted requests *)
  mutable records : record list;  (* reversed *)
  (* Observability (all [None]/empty with obs off — and then nothing below
     ever allocates or runs). *)
  spans : Telemetry.span list ref;  (* emission order, reversed *)
  mx : Metrics.t option;
  snaps : Metrics.snapshot list ref;  (* reversed *)
  mutable last_snap : int;  (* last boundary snapshotted *)
  flight : Flight.t option;
  plan_for : int -> Faults.plan;  (* a request id's fault plan *)
  mutable faults : Faults.plan;
      (* the plan of the request being served: admission, the deadline
         point and that request's engine all draw from it *)
}

let make_iso ?faults cfg ~isolate =
  let hub = Telemetry.create ~nfuncs:1 () in
  let spans = ref [] in
  if cfg.obs.obs_trace then Telemetry.attach_span hub (fun s -> spans := s :: !spans);
  {
    iso_id = isolate;
    iso_cfg = cfg;
    iso_ecfg = { cfg.engine with Engine.deadline = cfg.deadline };
    engines = Hashtbl.create 8;
    programs = Hashtbl.create 8;
    hub;
    vclock = 0;
    pending = [];
    records = [];
    spans;
    mx = (if cfg.obs.obs_metrics then Some (Metrics.create ()) else None);
    snaps = ref [];
    last_snap = 0;
    flight =
      (if cfg.obs.obs_flight then
         Some
           (Flight.create ~capacity:cfg.obs.obs_flight_capacity
              ~max_dumps:cfg.obs.obs_flight_max_dumps ())
       else None);
    plan_for =
      (match (faults, cfg.chaos) with
      | Some plan, _ -> fun _ -> plan
      | None, Some c -> fun id -> Faults.sample ((c * 1_000_003) + id)
      | None, None -> fun _ -> Faults.none);
    faults = Faults.none;
  }

let bump ?n iso name =
  Telemetry.Counters.bump_global ?n (Telemetry.counters iso.hub) (Telemetry.Key.of_name name)

(* Fold every engine's counter registry into the isolate accumulator.
   Called just before the engines are dropped (recycle) and once at the
   end of the run, so each engine's rows are absorbed exactly once. *)
let absorb iso =
  Hashtbl.iter
    (fun _ eng ->
      List.iter
        (fun (name, v) -> if v <> 0 then bump ~n:v iso name)
        (Telemetry.Counters.rows (Telemetry.counters (Engine.telemetry eng))))
    iso.engines

(* Point an engine at the request the isolate is serving: its fault plan
   and its trace context. *)
let arm iso eng =
  Engine.set_faults eng iso.faults;
  Telemetry.set_trace (Engine.telemetry eng) (Telemetry.trace iso.hub)

(* Recycle the isolate: drain background compile queues, absorb
   telemetry, then drop every warm engine. Heap state a crashing request
   may have corrupted is gone; the next attempt (and the next request of
   every tenant) starts from a cold, known-good engine — and no queued
   artifact compiled against the old heap can land in the new one (the
   drain cancels every in-flight request before the engine is dropped).
   Compiled bytecode programs are pure and survive. *)
let recycle iso =
  bump iso Skey.recycles;
  Hashtbl.iter
    (fun _ eng ->
      arm iso eng;
      ignore (Engine.drain_bg eng))
    iso.engines;
  absorb iso;
  Hashtbl.reset iso.engines

let get_engine iso key =
  match Hashtbl.find_opt iso.engines key with
  | Some eng -> eng
  | None ->
    let program =
      match Hashtbl.find_opt iso.programs key with
      | Some p -> p
      | None ->
        let p = Bytecode.Compile.program_of_source (tenant_source iso.iso_cfg key) in
        Hashtbl.add iso.programs key p;
        p
    in
    let eng = Engine.make iso.iso_ecfg program in
    (* The engine's spans join the isolate's stream. The flight recorder
       rides the engine's event stream; each event carries that engine's
       own model clock (the ring's seq numbers give the global order).
       Attaching a sink never charges cycles, so the simulation is
       unchanged. *)
    if Telemetry.spans_active iso.hub then
      Telemetry.attach_span (Engine.telemetry eng) (Telemetry.emit_span iso.hub);
    Option.iter (fun fl -> Flight.attach fl (Engine.telemetry eng)) iso.flight;
    Hashtbl.add iso.engines key eng;
    eng

(* Execute one admitted request: up to [1 + retries] attempts with capped
   exponential backoff between them (the quarantine shape: base * 2^n).
   Returns the classification plus the cycles the request held the server
   (execution + backoff waits), its compile-cycle share and warmth. *)
let run_attempts iso rq ~degraded =
  let cfg = iso.iso_cfg in
  let busy = ref 0 in
  let compile = ref 0 in
  let attempts = ref 0 in
  let tenant_key = if rq.rq_poison then poison_key else rq.rq_tenant in
  let warm = Hashtbl.mem iso.engines tenant_key in
  let rec go k =
    attempts := k;
    if cfg.deadline > 0 && Faults.fire iso.faults Faults.Serve_deadline then begin
      (* Injected attempt-deadline expiry: charge the full budget and fail
         exactly like a genuine expiry. Deadline misses are never retried —
         re-running a request that cannot fit its budget only burns more
         of the queue's time. *)
      busy := !busy + cfg.deadline;
      bump iso Skey.deadline_exec;
      Deadline_exec
    end
    else begin
      let eng = get_engine iso tenant_key in
      arm iso eng;
      Engine.set_degrade eng degraded;
      let c0 = Engine.clock eng in
      let _, _, k0 = Engine.cycle_split eng in
      let charge () =
        busy := !busy + (Engine.clock eng - c0);
        let _, _, k1 = Engine.cycle_split eng in
        compile := !compile + (k1 - k0)
      in
      match Engine.run eng with
      | _report ->
        charge ();
        bump iso Skey.ok;
        Served
      | exception Engine.Deadline_exceeded _ ->
        (* The engine already emitted Deadline_hit and bumped its own
           [deadlines] counter (absorbed later); a clean failure, the
           engine stays warm. *)
        charge ();
        bump iso Skey.deadline_exec;
        Deadline_exec
      | exception _escaped ->
        (* The supervisor: any other escaping exception — a MiniJS-level
           error, an injected fault, a genuine bug — is contained here. *)
        charge ();
        recycle iso;
        if k <= cfg.retries then begin
          bump iso Skey.retries;
          busy := !busy + (cfg.backoff * (1 lsl min (k - 1) 16));
          go (k + 1)
        end
        else begin
          bump iso Skey.fault;
          Fault
        end
    end
  in
  let outcome = go 1 in
  (outcome, !busy, !compile, !attempts, warm)

let record iso rq ~outcome ~finish ~attempts ~warm ~compile =
  iso.records <-
    {
      rr_id = rq.rq_id;
      rr_tenant = rq.rq_tenant;
      rr_isolate = iso.iso_id;
      rr_outcome = outcome;
      rr_arrival = rq.rq_arrival;
      rr_finish = finish;
      rr_latency = finish - rq.rq_arrival;
      rr_attempts = attempts;
      rr_warm = warm;
      rr_compile = compile;
    }
    :: iso.records

(* The observation tap, called once per classified request. Everything
   here is read-only with respect to the simulation: spans, metrics and
   flight triggers are derived from values the un-observed run computes
   identically. [start] is when the request left the queue ([finish] for
   requests that never executed, making the queue-wait span cover the
   whole wait). *)
let observe_request iso rq ~outcome ~depth ~start ~finish ~attempts =
  if Telemetry.spans_active iso.hub then begin
    let fname = Printf.sprintf "rq%d" rq.rq_id in
    if start > rq.rq_arrival then
      Telemetry.span_complete iso.hub ~name:"queue-wait" ~cat:"serve" ~fid:rq.rq_id
        ~fname ~start:rq.rq_arrival ~dur:(start - rq.rq_arrival);
    Telemetry.span_complete iso.hub
      ~args:
        [
          ("outcome", "\"" ^ outcome_to_string outcome ^ "\"");
          ("attempts", string_of_int attempts);
          ("tenant", string_of_int rq.rq_tenant);
        ]
      ~name:"request" ~cat:"serve" ~fid:rq.rq_id ~fname ~start:rq.rq_arrival
      ~dur:(finish - rq.rq_arrival)
  end;
  (match iso.mx with
  | Some mx ->
    let i = string_of_int iso.iso_id in
    let pol = Policy.kind_to_string iso.iso_cfg.engine.Engine.policy in
    let o = outcome_to_string outcome in
    Metrics.inc mx "serve.requests" [ ("isolate", i); ("policy", pol); ("outcome", o) ];
    Metrics.inc mx "serve.tenant.requests"
      [ ("isolate", i); ("tenant", string_of_int rq.rq_tenant); ("outcome", o) ];
    if outcome = Served then
      Metrics.observe mx "serve.latency.cycles"
        [ ("isolate", i); ("policy", pol) ]
        (finish - rq.rq_arrival);
    Metrics.max_gauge mx "serve.queue.depth" [ ("isolate", i) ] depth;
    Metrics.tick_rate mx "serve.arrivals" [ ("isolate", i) ] ~window:1_000_000
      ~now:rq.rq_arrival;
    let every = iso.iso_cfg.obs.obs_metrics_every in
    if every > 0 then begin
      (* Periodic snapshots on the isolate's own clock: one per crossed
         period boundary (time jumps whole requests at once, so emit the
         latest boundary reached rather than one line per multiple). *)
      let boundary = finish / every * every in
      if boundary > iso.last_snap then begin
        iso.last_snap <- boundary;
        iso.snaps := Metrics.snapshot ~cycle:boundary mx :: !(iso.snaps)
      end
    end
  | None -> ());
  match iso.flight with
  | Some fl ->
    let detail = Printf.sprintf "rq%d tenant=%d" rq.rq_id rq.rq_tenant in
    (match outcome with
    | Fault -> Flight.trigger fl ~trigger:"fault" ~detail ~at:finish
    | Deadline_queue | Deadline_exec ->
      Flight.trigger fl ~trigger:"deadline" ~detail ~at:finish
    | Served | Shed -> ())
  | None -> ()

let process_request iso rq =
  let cfg = iso.iso_cfg in
  let a = rq.rq_arrival in
  bump iso Skey.requests;
  (* Admission: queue depth is the number of admitted requests still
     unfinished at this arrival. *)
  iso.pending <- List.filter (fun f -> f > a) iso.pending;
  let depth = List.length iso.pending in
  let forced_shed = Faults.fire iso.faults Faults.Serve_admit in
  if forced_shed || (cfg.capacity > 0 && depth >= cfg.capacity) then begin
    bump iso Skey.shed;
    record iso rq ~outcome:Shed ~finish:a ~attempts:0 ~warm:false ~compile:0;
    observe_request iso rq ~outcome:Shed ~depth ~start:a ~finish:a ~attempts:0
  end
  else begin
    (* Over the high-water mark but under capacity: degrade — shed
       specialization before shedding requests. *)
    let degraded = cfg.overload_depth > 0 && depth >= cfg.overload_depth in
    if degraded then bump iso Skey.degraded;
    let start = max iso.vclock a in
    if cfg.queue_deadline > 0 && start - a > cfg.queue_deadline then begin
      (* The request would expire while queued: it never executes and
         leaves the queue when its wait budget runs out. *)
      let finish = a + cfg.queue_deadline in
      bump iso Skey.deadline_queue;
      iso.pending <- finish :: iso.pending;
      record iso rq ~outcome:Deadline_queue ~finish ~attempts:0 ~warm:false ~compile:0;
      observe_request iso rq ~outcome:Deadline_queue ~depth ~start:finish ~finish
        ~attempts:0
    end
    else begin
      let outcome, busy, compile, attempts, warm = run_attempts iso rq ~degraded in
      let finish = start + busy in
      iso.vclock <- finish;
      iso.pending <- finish :: iso.pending;
      record iso rq ~outcome ~finish ~attempts ~warm ~compile;
      observe_request iso rq ~outcome ~depth ~start ~finish ~attempts
    end
  end

let guard_request iso rq =
  (* The request's fault schedule (fresh per request under chaos) and the
     request-scoped identity every span, flow stitch and flight entry of
     this request stamps itself with — set only when an observer wants
     it; either way nothing reads it unless one does. [arm] hands both to
     each engine the request touches. *)
  iso.faults <- iso.plan_for rq.rq_id;
  Telemetry.set_trace iso.hub
    (if Telemetry.spans_active iso.hub || Option.is_some iso.flight then
       Some
         {
           Telemetry.tc_trace = rq.rq_id + 1;
           tc_request = rq.rq_id;
           tc_tenant = rq.rq_tenant;
           tc_isolate = iso.iso_id;
         }
     else None);
  (try process_request iso rq
   with _escaped ->
     (* The outer belt: nothing may escape an isolate. A request that
        trips this is a service-layer bug (counted, asserted zero by the
        smoke gate) but still yields a classified record. *)
     bump iso Skey.escapes;
     recycle iso;
     let finish = max iso.vclock rq.rq_arrival in
     record iso rq ~outcome:Fault ~finish ~attempts:0 ~warm:false ~compile:0;
     observe_request iso rq ~outcome:Fault ~depth:0 ~start:finish ~finish ~attempts:0);
  List.iter
    (fun (point, n) ->
      bump ~n iso (fired_key point))
    (Faults.take_fired iso.faults)

(* Everything one isolate's run produced. The observability fields are
   empty with obs off. *)
type iso_result = {
  ir_isolate : int;
  ir_records : record list;  (* request order *)
  ir_rows : (string * int) list;
  ir_spans_rev : Telemetry.span list;  (* emission order, reversed *)
  ir_metrics : Metrics.t option;
  ir_snaps : Metrics.snapshot list;  (* cycle order *)
  ir_flights : Flight.dump list;  (* trigger order *)
}

let run_isolate_full ?faults cfg ~isolate reqs =
  let iso = make_iso ?faults cfg ~isolate in
  Runtime.Builtins.with_print_hook ignore (fun () -> List.iter (guard_request iso) reqs);
  (* Close the flows of background compiles the run ended before
     harvesting — counter-silent, so a traced summary equals an untraced
     one, and a no-op untraced. Must precede [absorb]: the engines are
     dropped right after. *)
  Hashtbl.iter (fun _ eng -> Engine.flush_flows eng) iso.engines;
  absorb iso;
  (* One closing snapshot so the metrics file always ends with the final
     state, whatever the period. *)
  (match iso.mx with
  | Some mx when cfg.obs.obs_metrics_every > 0 && iso.vclock > iso.last_snap ->
    iso.snaps := Metrics.snapshot ~cycle:iso.vclock mx :: !(iso.snaps)
  | _ -> ());
  {
    ir_isolate = isolate;
    ir_records = List.rev iso.records;
    ir_rows = Telemetry.Counters.rows (Telemetry.counters iso.hub);
    ir_spans_rev = !(iso.spans);
    ir_metrics = iso.mx;
    ir_snaps = List.rev !(iso.snaps);
    ir_flights = (match iso.flight with Some fl -> Flight.dumps fl | None -> []);
  }

let run_isolate ?faults cfg ~isolate reqs =
  let r = run_isolate_full ?faults cfg ~isolate reqs in
  (r.ir_isolate, r.ir_records, r.ir_rows)

(* ------------------------------------------------------------------ *)
(* Summary                                                             *)
(* ------------------------------------------------------------------ *)

type summary = {
  sm_requests : int;
  sm_ok : int;
  sm_shed : int;
  sm_deadline_queue : int;
  sm_deadline_exec : int;
  sm_fault : int;
  sm_p50 : int;
  sm_p95 : int;
  sm_p99 : int;
  sm_makespan : int;
  sm_throughput : float;
  sm_cold : int;
  sm_warm : int;
  sm_tail : int;
  sm_tail_cold : int;
  sm_tail_compile_pct : float;
  sm_counters : (string * int) list;
  sm_records : record list;
}

let counter s name =
  Option.value (List.assoc_opt name s.sm_counters) ~default:0

let summarize results =
  let records =
    List.concat_map (fun (_, rs, _) -> rs) results
    |> List.sort (fun a b -> compare a.rr_id b.rr_id)
  in
  let rows =
    let tbl = Hashtbl.create 64 in
    List.iter
      (fun (_, _, rows) ->
        List.iter
          (fun (name, v) ->
            if v <> 0 then
              Hashtbl.replace tbl name
                (v + Option.value (Hashtbl.find_opt tbl name) ~default:0))
          rows)
      results;
    Hashtbl.fold (fun name v acc -> (name, v) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let count o = List.length (List.filter (fun r -> r.rr_outcome = o) records) in
  let served = List.filter (fun r -> r.rr_outcome = Served) records in
  (* Nearest-rank percentiles over the served latencies, via the exact
     histogram (bit-identical to sorting the array and indexing
     ceil(p*n)-1 — the histogram-exactness tests pin this equivalence). *)
  let lat = Metrics.Hist.create () in
  List.iter (fun r -> Metrics.Hist.observe lat r.rr_latency) served;
  let p50 = Metrics.Hist.quantile lat 0.50 in
  let p95 = Metrics.Hist.quantile lat 0.95 in
  let p99 = Metrics.Hist.quantile lat 0.99 in
  let makespan = List.fold_left (fun m r -> max m r.rr_finish) 1 records in
  let tail = List.filter (fun r -> r.rr_latency >= p95) served in
  let tail_lat = List.fold_left (fun acc r -> acc + r.rr_latency) 0 tail in
  let tail_compile = List.fold_left (fun acc r -> acc + r.rr_compile) 0 tail in
  {
    sm_requests = List.length records;
    sm_ok = List.length served;
    sm_shed = count Shed;
    sm_deadline_queue = count Deadline_queue;
    sm_deadline_exec = count Deadline_exec;
    sm_fault = count Fault;
    sm_p50 = p50;
    sm_p95 = p95;
    sm_p99 = p99;
    sm_makespan = makespan;
    sm_throughput = float_of_int (List.length served) *. 1e6 /. float_of_int makespan;
    sm_cold = List.length (List.filter (fun r -> not r.rr_warm) served);
    sm_warm = List.length (List.filter (fun r -> r.rr_warm) served);
    sm_tail = List.length tail;
    sm_tail_cold = List.length (List.filter (fun r -> not r.rr_warm) tail);
    sm_tail_compile_pct =
      (if tail_lat = 0 then 0.0
       else 100.0 *. float_of_int tail_compile /. float_of_int tail_lat);
    sm_counters = rows;
    sm_records = records;
  }

(* The run's merged observability output (everything empty with obs off). *)
type obs_result = {
  or_spans : Telemetry.span list;  (* isolate-major, emission order *)
  or_metrics : Metrics.t option;  (* per-isolate registries, merged *)
  or_snapshots : (int * Metrics.snapshot) list;  (* (isolate, snapshot) *)
  or_flights : (int * Flight.dump) list;  (* (isolate, dump) *)
}

let run_full cfg =
  let reqs = sample_requests cfg in
  let isolates = List.init cfg.isolates Fun.id in
  let results =
    Pool.map (Pool.default ())
      (fun i -> run_isolate_full cfg ~isolate:i (requests_for cfg reqs ~isolate:i))
      isolates
  in
  let summary =
    summarize (List.map (fun r -> (r.ir_isolate, r.ir_records, r.ir_rows)) results)
  in
  let metrics =
    if cfg.obs.obs_metrics then begin
      (* Merging in isolate order is deterministic, and because the
         histograms are lossless the merge equals having observed every
         isolate serially into one registry. *)
      let m = Metrics.create () in
      List.iter (fun r -> Option.iter (fun src -> Metrics.merge_into ~into:m src) r.ir_metrics) results;
      Some m
    end
    else None
  in
  (* (cycle, isolate) order. The snapshots themselves are never compared:
     only the key is. *)
  let snapshots =
    List.concat_map (fun r -> List.map (fun s -> (r.ir_isolate, s)) r.ir_snaps) results
    |> List.sort (fun (i, s) (j, s') ->
           match Int.compare (Metrics.snapshot_cycle s) (Metrics.snapshot_cycle s') with
           | 0 -> Int.compare i j
           | c -> c)
  in
  let obs =
    {
      (* One new spine, built back to front: isolate-major, each
         isolate's spans in emission order. *)
      or_spans = List.fold_right (fun r acc -> List.rev_append r.ir_spans_rev acc) results [];
      or_metrics = metrics;
      or_snapshots = snapshots;
      or_flights =
        List.concat_map (fun r -> List.map (fun d -> (r.ir_isolate, d)) r.ir_flights) results;
    }
  in
  (summary, obs)

let run cfg = fst (run_full cfg)

let error_rate s =
  if s.sm_requests = 0 then 0.0
  else 100.0 *. float_of_int (s.sm_requests - s.sm_ok) /. float_of_int s.sm_requests

let print_summary ?(counters = true) oc cfg s =
  Printf.fprintf oc
    "serve: requests=%d isolates=%d tenants=%d policy=%s capacity=%d overload=%d \
     deadline=%d queue-deadline=%d retries=%d backoff=%d crash=%.2f chaos=%s seed=%d\n"
    cfg.requests cfg.isolates cfg.tenants
    (Policy.kind_to_string cfg.engine.Engine.policy)
    cfg.capacity cfg.overload_depth cfg.deadline cfg.queue_deadline cfg.retries
    cfg.backoff cfg.crash_fraction
    (match cfg.chaos with None -> "none" | Some c -> string_of_int c)
    cfg.seed;
  Printf.fprintf oc
    "outcomes: ok=%d shed=%d deadline-queue=%d deadline-exec=%d fault=%d \
     error-rate=%.1f%%\n"
    s.sm_ok s.sm_shed s.sm_deadline_queue s.sm_deadline_exec s.sm_fault
    (error_rate s);
  Printf.fprintf oc
    "latency (cycles): p50=%d p95=%d p99=%d makespan=%d throughput=%.2f ok/Mcycle\n"
    s.sm_p50 s.sm_p95 s.sm_p99 s.sm_makespan s.sm_throughput;
  Printf.fprintf oc "warmth: cold=%d warm=%d tail>=p95: n=%d cold=%d compile-share=%.1f%%\n"
    s.sm_cold s.sm_warm s.sm_tail s.sm_tail_cold s.sm_tail_compile_pct;
  if counters then
    List.iter (fun (name, v) -> Printf.fprintf oc "  %-36s %d\n" name v) s.sm_counters

(* ------------------------------------------------------------------ *)
(* The smoke configuration (CI gate)                                   *)
(* ------------------------------------------------------------------ *)

(* Forced overload: arrivals far faster than service, a bounded queue,
   tight deadlines, crashing tenants and a chaos schedule — every
   degradation path must fire and still nothing may escape a supervisor. *)
let smoke_config () =
  default_config ~isolates:2 ~requests:120 ~tenants:5 ~capacity:4
    ~queue_deadline:150_000 ~deadline:120_000 ~retries:2 ~backoff:2_000
    ~overload_depth:2 ~mean_gap:12_000 ~crash_fraction:0.08 ~seed:20130223
    ~chaos:7
    ~engine:(Engine.default_config ~policy:Policy.Polyvariant ~cache_size:4 ())
    ()

(* The smoke gate's assertions; [Error] lists every violated invariant. *)
let smoke_check s =
  let problems = ref [] in
  let need cond msg = if not cond then problems := msg :: !problems in
  need
    (s.sm_ok + s.sm_shed + s.sm_deadline_queue + s.sm_deadline_exec + s.sm_fault
    = s.sm_requests)
    "outcome classification does not partition the requests";
  need (counter s Skey.escapes = 0) "a supervisor escape was counted";
  need (s.sm_shed > 0) "forced overload shed nothing";
  need (s.sm_deadline_queue + s.sm_deadline_exec > 0) "no deadline ever expired";
  need (counter s Skey.recycles > 0) "poison requests never recycled an isolate";
  need (counter s Skey.degraded > 0) "overload never entered degrade mode";
  need (s.sm_ok > 0) "no request succeeded at all";
  match !problems with [] -> Ok () | ps -> Error (List.rev ps)
