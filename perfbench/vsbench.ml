(* The repository benchmark: one named workload, generated from a seed, run
   for a fixed wall-clock budget, with every output checked against a
   reference and every metric printed by name and unit. The last line of
   standard output is one JSON object for tooling.

   Untraced mode (--trace 0) reports the end-to-end metrics. Traced mode
   (--trace 1) wraps the benchmark's own calls into each VM layer in
   wall-clock spans (see Trace) and replays the compile and execution layers
   function by function, reporting one number per layer plus the tracing
   overhead against an untraced run in the same process. Nothing in the VM
   is instrumented for this: every layer is driven through its public
   interface. *)

(* ------------------------------------------------------------------ *)
(* Small statistics                                                    *)
(* ------------------------------------------------------------------ *)

let median = function
  | [] -> 0.0
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let geomean = function
  | [] -> 0.0
  | xs -> exp (List.fold_left (fun acc x -> acc +. log x) 0.0 xs /. float (List.length xs))

(* Nearest-rank percentile, the definition Serve.summary uses. *)
let percentile p xs =
  match List.sort compare xs with
  | [] -> 0
  | sorted ->
    let n = List.length sorted in
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float n)) in
    List.nth sorted (max 0 (min (n - 1) (rank - 1)))

let ratio a b = if b = 0 then 0.0 else float a /. float b
let sum = List.fold_left ( + ) 0

let time f =
  let t0 = Trace.now () in
  let r = f () in
  (r, Trace.now () -. t0)

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

(* The pool's job count for every gated pass. One job was chosen for
   steadiness: on a 2-core host, the same seed's serve wall ranged 14%
   across runs at 2 jobs and 5% at 1. Every model-clock figure is the same
   at any job count (the self-test checks it). *)
let pool_jobs = 1

type kind = Suite | Web | Serve_plain | Serve_obs

let kinds = [ ("suite", Suite); ("web", Web); ("serve", Serve_plain); ("serve_obs", Serve_obs) ]
let kind_name k = fst (List.find (fun (_, k') -> k' = k) kinds)

(* Distinct synthetic sites drawn per profile on [web]. *)
let sites_per_profile = 16

(* The [serve] stream: an open loop of independent tenants' requests,
   arriving on the model clock with mean gap [serve_gap] cycles. 8000
   requests leave 80 served samples beyond p99; 256 tenants average the
   seed's draw of tenant programs, so the figures move little with the
   seed. *)
let serve_requests = 8000
let serve_tenants = 256
let serve_gap = 30_000

(* [slo_rate]: the highest rate on this ladder (requests per million model
   cycles) whose served p99 stays under [slo_p99_limit] cycles without a
   growing backlog. *)
let slo_ladder = [ 10; 20; 25; 33; 40; 50; 67; 80; 100 ]
let slo_p99_limit = 100_000
let slo_requests = 2000

let serve_engine =
  Engine.default_config ~policy:Policy.Polyvariant ~cache_size:4 ~bg_compile:true ()

let obs_all =
  {
    Serve.obs_trace = true;
    obs_metrics = true;
    obs_metrics_every = 200_000;
    obs_flight = true;
    obs_flight_capacity = 64;
    obs_flight_max_dumps = 4;
  }

let serve_config ~obs seed =
  Serve.default_config ~isolates:2 ~requests:serve_requests ~tenants:serve_tenants
    ~mean_gap:serve_gap ~seed
    ~engine:serve_engine
    ~obs:(if obs then obs_all else Serve.obs_off)
    ()

let jit_config = function
  | Suite -> Engine.default_config ~opt:Pipeline.best ()
  | Web -> Engine.default_config ~opt:Pipeline.all_on ()
  | Serve_plain | Serve_obs -> serve_engine

type prog = { p_name : string; p_source : string }

let suite_inputs seed =
  let members =
    Array.of_list
      (List.concat_map
         (fun (s : Suite.t) ->
           List.map
             (fun (m : Suite.member) ->
               { p_name = s.Suite.s_name ^ "/" ^ m.Suite.m_name; p_source = m.Suite.m_source })
             s.Suite.members)
         Suites.all)
  in
  Support.Prng.shuffle (Support.Prng.create seed) members;
  Array.to_list members

let web_inputs seed =
  let rng = Support.Prng.create seed in
  let seen = Hashtbl.create 32 in
  let rec fresh () =
    let s = Support.Prng.int rng 1_000_000 in
    if Hashtbl.mem seen s then fresh ()
    else begin
      Hashtbl.add seen s ();
      s
    end
  in
  let sites =
    List.concat_map
      (fun (p : Web.site_profile) ->
        List.init sites_per_profile (fun _ ->
            let s = fresh () in
            { p_name = Printf.sprintf "%s#%d" p.Web.site_name s; p_source = Web.synthetic_site ~seed:s p }))
      [ Web.google; Web.facebook; Web.twitter ]
  in
  let a = Array.of_list sites in
  Support.Prng.shuffle rng a;
  Array.to_list a

(* ------------------------------------------------------------------ *)
(* Running and checking one program                                    *)
(* ------------------------------------------------------------------ *)

(* What a run shows the user: the program's result and its printed lines. *)
type seen = { s_result : string; s_out : string }

(* Run on a live engine with [print] captured and [Math.random] reseeded,
   as the service does per request. Any exception is a failed run: the
   inputs raise none under the interpreter, so one under the JIT is a VM
   bug to count, not a reason to stop measuring. *)
let exec eng =
  let buf = Buffer.create 256 in
  Runtime.Builtins.with_print_hook
    (fun s ->
      Buffer.add_string buf s;
      Buffer.add_char buf '\n')
    (fun () ->
      Runtime.Builtins.reset_random 20130223;
      match Engine.run eng with
      | r -> Some (r, { s_result = Runtime.Value.to_display_string r.Engine.result; s_out = Buffer.contents buf })
      | exception _ -> None)

(* Run the way the service does: output dropped, nothing compared. *)
let exec_quiet eng =
  Runtime.Builtins.with_print_hook ignore (fun () ->
      Runtime.Builtins.reset_random 20130223;
      try Some (Engine.run eng) with _ -> None)

let interp_reference source =
  let program = Bytecode.Compile.program_of_source source in
  match exec (Engine.make Engine.interp_only program) with
  | Some (_, seen) -> seen
  | None -> failwith "reference run failed"

let code_bytes (r : Engine.report) =
  Cost.bytes_per_native_instr
  * sum (List.map (fun f -> sum (List.map snd f.Engine.fr_sizes)) r.Engine.functions)

(* ------------------------------------------------------------------ *)
(* Set-up: inputs, reference outputs, warm-up                          *)
(* ------------------------------------------------------------------ *)

type replay = {
  rp_engines : (Engine.t * Engine.report) list;  (** final report per warm engine *)
  rp_graphs : Mir.func list;  (** optimized graphs the engines compiled *)
  rp_attempted : int;
  rp_failed : int;  (** replayed requests whose output differed from the reference *)
  rp_wall : float;  (** seconds *)
}

type setup = {
  kind : kind;
  seed : int;
  progs : (prog * seen) list;  (** suite/web programs, or serve tenant programs *)
  serve_cfg : Serve.config option;
  requests : Serve.request list;
  reference : Serve.summary option;  (** obs-off service run *)
  replayed : replay option;
  digest : string;  (** of every generated source and the request stream *)
}

(* Replay a service stream's [Engine.run] calls on warm per-(isolate,
   tenant) engines — the calls [Serve.run] makes, without the service
   simulation around them — one isolate after another. Given [refs]
   (set-up), every output is checked against the tenant's interpreter
   reference; without, outputs are dropped as the service drops them, so
   the replay times only what [Serve.run] runs. *)
let replay_stream ?(tr = Trace.off) ?(capture = false) ?refs cfg reqs =
  let ecfg = cfg.Serve.engine in
  let engines = ref [] and graphs = ref [] and attempted = ref 0 and failed = ref 0 in
  let isolate iso =
    let warm = Hashtbl.create 16 and last = Hashtbl.create 16 in
    Trace.span tr "serve.isolate" (fun () ->
        List.iter
          (fun (rq : Serve.request) ->
            let tenant = rq.Serve.rq_tenant in
            let eng =
              match Hashtbl.find_opt warm tenant with
              | Some e -> e
              | None ->
                let src = Serve.tenant_source cfg tenant in
                let ast = Trace.span tr "jsfront.parse" (fun () -> Jsfront.Parser.parse_program src) in
                let program = Trace.span tr "bytecode.compile" (fun () -> Bytecode.Compile.program ast) in
                let e = Trace.span tr "engine.make" (fun () -> Engine.make ecfg program) in
                Hashtbl.add warm tenant e;
                e
            in
            incr attempted;
            let run () =
              match refs with
              | None -> Option.map (fun r -> (r, true)) (exec_quiet eng)
              | Some refs -> Option.map (fun (r, seen) -> (r, seen = List.assoc tenant refs)) (exec eng)
            in
            match Trace.span tr "engine.run" run with
            | Some (r, ok) ->
              Hashtbl.replace last tenant r;
              if not ok then incr failed
            | None -> incr failed)
          (Serve.requests_for cfg reqs ~isolate:iso));
    Hashtbl.fold (fun t r acc -> (t, (Hashtbl.find warm t, r)) :: acc) last []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.iter (fun (_, er) -> engines := er :: !engines)
  in
  let all () = List.iter isolate (List.init cfg.Serve.isolates Fun.id) in
  let (), wall =
    time (fun () -> if capture then Engine.with_mir_hook (fun g -> graphs := g :: !graphs) all else all ())
  in
  {
    rp_engines = List.rev !engines;
    rp_graphs = List.rev !graphs;
    rp_attempted = !attempted;
    rp_failed = !failed;
    rp_wall = wall;
  }

(* What [Serve.run] must agree on with the replay: the engine counter rows
   folded over every engine, and the model cycles the engines charged. *)
let replay_rows rp =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (e, _) ->
      List.iter
        (fun (name, v) ->
          Hashtbl.replace tbl name (v + Option.value (Hashtbl.find_opt tbl name) ~default:0))
        (Telemetry.Counters.rows (Telemetry.counters (Engine.telemetry e))))
    rp.rp_engines;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let replay_cycles rp = sum (List.map (fun (e, _) -> Engine.clock e) rp.rp_engines)

let setup kind seed =
  match kind with
  | Suite | Web ->
    let inputs = if kind = Suite then suite_inputs seed else web_inputs seed in
    let progs = List.map (fun p -> (p, interp_reference p.p_source)) inputs in
    (* Warm-up: one JIT run of a fixed small program, so set-up does the
       same warm-up work whatever the seed drew. *)
    let warm = List.hd (List.hd Suites.all).Suite.members in
    ignore (exec (Engine.make (jit_config kind) (Bytecode.Compile.program_of_source warm.Suite.m_source)));
    {
      kind;
      seed;
      progs;
      serve_cfg = None;
      requests = [];
      reference = None;
      replayed = None;
      digest = Digest.to_hex (Digest.string (String.concat "\000" (List.map (fun p -> p.p_source) inputs)));
    }
  | Serve_plain | Serve_obs ->
    let cfg = serve_config ~obs:(kind = Serve_obs) seed in
    let requests = Serve.sample_requests cfg in
    let tenants = List.sort_uniq compare (List.map (fun r -> r.Serve.rq_tenant) requests) in
    let progs =
      List.map
        (fun t ->
          let src = Serve.tenant_source cfg t in
          ({ p_name = Printf.sprintf "tenant-%d" t; p_source = src }, interp_reference src))
        tenants
    in
    let refs = List.map2 (fun t (_, seen) -> (t, seen)) tenants progs in
    let reference = Serve.run { cfg with Serve.obs = Serve.obs_off } in
    let replayed = replay_stream ~refs cfg requests in
    let stream =
      String.concat ";"
        (List.map
           (fun r -> Printf.sprintf "%d,%d,%d" r.Serve.rq_id r.Serve.rq_tenant r.Serve.rq_arrival)
           requests)
    in
    {
      kind;
      seed;
      progs;
      serve_cfg = Some cfg;
      requests;
      reference = Some reference;
      replayed = Some replayed;
      digest =
        Digest.to_hex
          (Digest.string (String.concat "\000" (stream :: List.map (fun (p, _) -> p.p_source) progs)));
    }


(* ------------------------------------------------------------------ *)
(* One pass over the workload                                          *)
(* ------------------------------------------------------------------ *)

type pass = {
  wall : float;  (** seconds *)
  ops : int;  (** programs run, or requests served *)
  op_ms : float list;  (** per-program wall ms (suite/web) *)
  lat : int list;  (** per-operation model-cycle latency *)
  p50 : int;
  p99 : int;
  model_cycles : int;
  code : int;  (** code bytes *)
  attempted : int;
  failed : int;
  engines : (Engine.t * Engine.report) list;
  graphs : Mir.func list;
  summary : Serve.summary option;
  obs_counts : (int * int * int) option;  (** spans, snapshots, flight dumps *)
  minor_words : float;
  major_collections : int;
  steals : int;
  join_wait : float;
}

let pool_snapshot () =
  let s = Pool.stats (Pool.default ()) in
  (s.Pool.st_steals, s.Pool.st_join_wait)

(* Run [f] as one pass, taking the GC and pool deltas around it. Every
   pass starts from a fully collected heap, so no pass pays for the garbage
   of the one before. *)
let with_deltas f =
  Gc.full_major ();
  let g0 = Gc.quick_stat () and steals0, wait0 = pool_snapshot () in
  let p = f () in
  let g1 = Gc.quick_stat () and steals1, wait1 = pool_snapshot () in
  {
    p with
    minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
    major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
    steals = steals1 - steals0;
    join_wait = wait1 -. wait0;
  }

let program_pass ?(tr = Trace.off) ?(capture = false) su =
  let cfg = jit_config su.kind in
  let graphs = ref [] in
  let run_one (p, reference) =
    Trace.span tr "program" (fun () ->
        let t0 = Trace.now () in
        let ast = Trace.span tr "jsfront.parse" (fun () -> Jsfront.Parser.parse_program p.p_source) in
        let program = Trace.span tr "bytecode.compile" (fun () -> Bytecode.Compile.program ast) in
        let eng = Trace.span tr "engine.make" (fun () -> Engine.make cfg program) in
        let run () = Trace.span tr "engine.run" (fun () -> exec eng) in
        let res = if capture then Engine.with_mir_hook (fun g -> graphs := g :: !graphs) run else run () in
        let ms = (Trace.now () -. t0) *. 1000.0 in
        match res with
        | Some (r, seen) -> (ms, Some (eng, r), seen = reference)
        | None -> (ms, None, false))
  in
  let results, wall = time (fun () -> List.map run_one su.progs) in
  let reports = List.filter_map (fun (_, r, _) -> r) results in
  let lat = List.map (fun (_, r) -> r.Engine.total_cycles) reports in
  {
    wall;
    ops = List.length results;
    op_ms = List.map (fun (ms, _, _) -> ms) results;
    lat;
    p50 = percentile 50.0 lat;
    p99 = percentile 99.0 lat;
    model_cycles = sum lat;
    code = sum (List.map (fun (_, r) -> code_bytes r) reports);
    attempted = List.length results;
    failed = List.length (List.filter (fun (_, _, ok) -> not ok) results);
    engines = (if capture then reports else []);
    graphs = List.rev !graphs;
    summary = None;
    obs_counts = None;
    minor_words = 0.0;
    major_collections = 0;
    steals = 0;
    join_wait = 0.0;
  }

(* The service checks: outcomes partition the requests, nothing escaped the
   supervisor, and the summary is exactly the obs-off reference run's —
   with observers on ([serve_obs]) as much as off. A pass that fails a
   check counts every request as failed; otherwise unserved requests do. *)
let serve_failures (reference : Serve.summary) (s : Serve.summary) =
  let count o = List.length (List.filter (fun r -> r.Serve.rr_outcome = o) s.Serve.sm_records) in
  let outcomes = Serve.[ Served; Shed; Deadline_queue; Deadline_exec; Fault ] in
  let partitioned =
    List.length s.Serve.sm_records = s.Serve.sm_requests
    && sum (List.map count outcomes) = s.Serve.sm_requests
    && s.Serve.sm_ok + s.Serve.sm_shed + s.Serve.sm_deadline_queue + s.Serve.sm_deadline_exec
       + s.Serve.sm_fault
       = s.Serve.sm_requests
  in
  let escapes = Serve.counter s Serve.Skey.escapes in
  if (not partitioned) || escapes <> 0 || compare s reference <> 0 then s.Serve.sm_requests
  else s.Serve.sm_requests - s.Serve.sm_ok

let served_latencies (s : Serve.summary) =
  List.filter_map
    (fun r -> if r.Serve.rr_outcome = Serve.Served then Some r.Serve.rr_latency else None)
    s.Serve.sm_records

(* The cycles the isolates' servers were busy, from the service's own
   records (id-sorted): each isolate serves its requests in id order,
   starting one when the previous has finished and it has arrived. *)
let service_cycles (s : Serve.summary) =
  let free = Hashtbl.create 4 in
  List.fold_left
    (fun acc r ->
      let iso = r.Serve.rr_isolate in
      let start = max r.Serve.rr_arrival (Option.value (Hashtbl.find_opt free iso) ~default:0) in
      Hashtbl.replace free iso r.Serve.rr_finish;
      acc + (r.Serve.rr_finish - start))
    0 s.Serve.sm_records

(* [code_bytes] on serve comes from the set-up replay's engines, so the
   replay must be the run [Serve.run] made: the same cycles charged and the
   same engine counters. A pass that disagrees counts every request as
   failed. *)
let replay_disagrees rp (s : Serve.summary) =
  replay_cycles rp <> service_cycles s
  || List.exists (fun (name, v) -> Serve.counter s name <> v) (replay_rows rp)

let serve_pass ?(tr = Trace.off) ?obs su =
  let cfg = Option.get su.serve_cfg in
  let cfg =
    match obs with
    | None -> cfg
    | Some on -> { cfg with Serve.obs = (if on then obs_all else Serve.obs_off) }
  in
  let (s, o), wall = Trace.span tr "serve.run" (fun () -> time (fun () -> Serve.run_full cfg)) in
  let rp = Option.get su.replayed in
  {
    wall;
    ops = s.Serve.sm_ok;
    op_ms = [];
    lat = served_latencies s;
    p50 = s.Serve.sm_p50;
    p99 = s.Serve.sm_p99;
    model_cycles = service_cycles s;
    code = sum (List.map (fun (_, r) -> code_bytes r) rp.rp_engines);
    attempted = s.Serve.sm_requests;
    failed =
      (if replay_disagrees rp s then s.Serve.sm_requests
       else serve_failures (Option.get su.reference) s);
    engines = [];
    graphs = [];
    summary = (if tr.Trace.on then Some s else None);
    obs_counts =
      Some (List.length o.Serve.or_spans, List.length o.Serve.or_snapshots, List.length o.Serve.or_flights);
    minor_words = 0.0;
    major_collections = 0;
    steals = 0;
    join_wait = 0.0;
  }

let run_pass ?tr su =
  with_deltas (fun () ->
      match su.kind with Suite | Web -> program_pass ?tr su | Serve_plain | Serve_obs -> serve_pass ?tr su)

(* Passes until [seconds] of wall time have gone (at least [min_passes]). *)
let passes ~seconds ?(min_passes = 3) f =
  let stop = Trace.now () +. seconds in
  let rec go acc n =
    if n >= min_passes && Trace.now () >= stop then List.rev acc else go (f n :: acc) (n + 1)
  in
  go [] 0

(* slo_rate: deterministic on the model clock. A backlog grows when the
   last tenth of the stream waits more than twice the stream's median. *)
let slo_rate su =
  let base = Option.get su.serve_cfg in
  let meets rate =
    let cfg =
      { base with Serve.requests = slo_requests; mean_gap = 1_000_000 / rate; obs = Serve.obs_off }
    in
    let s = Serve.run cfg in
    let lat = served_latencies s in
    let n = List.length lat in
    let tail = List.filteri (fun i _ -> i >= n - (n / 10)) lat in
    s.Serve.sm_ok = s.Serve.sm_requests
    && s.Serve.sm_p99 <= slo_p99_limit
    && percentile 50.0 tail <= 2 * percentile 50.0 lat
  in
  List.fold_left (fun best rate -> if meets rate then rate else best) 0 slo_ladder

(* ------------------------------------------------------------------ *)
(* Host fingerprint                                                    *)
(* ------------------------------------------------------------------ *)

(* A fixed pure-OCaml loop: records whose calibration differs are from
   different hosts (or a loaded one) and are not compared as regressions. *)
let calib_ms () =
  let once () =
    let h = ref 0 in
    let (), dt =
      time (fun () ->
          for i = 1 to 20_000_000 do
            h := ((!h * 31) + i) land 0xFFFFFF
          done)
    in
    ignore (Sys.opaque_identity !h);
    dt *. 1000.0
  in
  median (List.init 5 (fun _ -> once ()))

let fingerprint ~commit ~calib =
  Printf.printf "host: ocaml=%s nproc=%d jobs=%d commit=%s calib_ms=%.3f\n" Sys.ocaml_version
    (Domain.recommended_domain_count ())
    pool_jobs commit calib

(* ------------------------------------------------------------------ *)
(* Metric output                                                       *)
(* ------------------------------------------------------------------ *)

type metric = { m_name : string; m_value : float; m_unit : string }

let metric m_name m_unit m_value = { m_name; m_value; m_unit }

let print_metric m =
  if Float.is_integer m.m_value && Float.abs m.m_value < 1e15 then
    Printf.printf "metric %-26s %18.0f %s\n" m.m_name m.m_value m.m_unit
  else Printf.printf "metric %-26s %18.6f %s\n" m.m_name m.m_value m.m_unit

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

let print_json ~attempted ~failed ms =
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (failed = 0) attempted failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.m_name (json_number m.m_value)
              m.m_unit)
          ms))

let peak_heap_mb () =
  float (Gc.quick_stat ()).Gc.top_heap_words *. float (Sys.word_size / 8) /. 1e6

(* ------------------------------------------------------------------ *)
(* Untraced mode: the end-to-end metrics                               *)
(* ------------------------------------------------------------------ *)

let setup_repeats = 3

(* The median time of [n] set-ups, keeping only the last one's result.
   Each starts from a fully collected heap holding no earlier set-up, so
   the peak heap is one set-up's, not the benchmark's retained copies. *)
let timed_setup kind seed n =
  let once () =
    Gc.full_major ();
    time (fun () -> setup kind seed)
  in
  let earlier = List.init (n - 1) (fun _ -> snd (once ())) in
  let su, t = once () in
  (su, median (t :: earlier))

let describe su npasses =
  Printf.printf "workload: %s seed=%d inputs=%s programs=%d passes=%d\n"
    (kind_name su.kind)
    su.seed su.digest (List.length su.progs) npasses

(* The metrics the driver gates, in BENCHMARK.json order. *)
let end_to_end ps ~setup_s =
  let first = List.hd ps in
  [
    metric "wall_s" "s" (median (List.map (fun p -> p.wall) ps));
    metric "req_per_s" "1/s" (median (List.map (fun p -> float p.ops /. p.wall) ps));
    metric "p50_cycles" "cycles" (float first.p50);
    metric "p99_cycles" "cycles" (float first.p99);
    metric "model_cycles" "cycles" (float first.model_cycles);
    metric "code_bytes" "bytes" (float first.code);
    metric "peak_heap_mb" "MB" (peak_heap_mb ());
    metric "setup_s" "s" setup_s;
  ]

let run_untraced kind ~seed ~seconds =
  let su, setup_s = timed_setup kind seed setup_repeats in
  let ps = passes ~seconds (fun _ -> run_pass su) in
  describe su (List.length ps);
  let attempted =
    sum (List.map (fun p -> p.attempted) ps)
    + Option.fold ~none:0 ~some:(fun r -> r.rp_attempted) su.replayed
  in
  let failed =
    sum (List.map (fun p -> p.failed) ps) + Option.fold ~none:0 ~some:(fun r -> r.rp_failed) su.replayed
  in
  let ms = end_to_end ps ~setup_s in
  List.iter print_metric ms;
  let first = List.hd ps in
  Printf.printf "info latency samples=%d (p99 has %d beyond it)\n" (List.length first.lat)
    (List.length (List.filter (fun l -> l > first.p99) first.lat));
  (match kind with
  | Suite | Web ->
    let per_op = List.map (fun p -> Array.of_list p.op_ms) ps in
    let op_medians =
      List.init first.ops (fun i -> median (List.map (fun a -> a.(i)) per_op))
    in
    print_metric (metric "geomean_ms" "ms" (geomean op_medians))
  | Serve_plain | Serve_obs ->
    Printf.printf "info open loop on the model clock: latency counts from each request's scheduled arrival, so generator lateness is 0 by construction\n";
    if kind = Serve_plain then
      print_metric (metric "slo_rate" "req/Mcycle" (float (slo_rate su))));
  print_metric (metric "fail_pct" "%" (100.0 *. ratio failed attempted));
  (ms, attempted, failed)

(* ------------------------------------------------------------------ *)
(* Traced mode: per-layer metrics                                      *)
(* ------------------------------------------------------------------ *)

(* Each pass is measured in isolation against the baseline schedule:
   [`On] passes are switched on over it, [`Off] passes (part of the
   baseline) switched off it. *)
let opt_passes =
  [
    ("inline", `On, Pipeline.make ~ps:true "ps");
    ("constprop", `On, Pipeline.make ~cp:true "cp");
    ("sccp", `On, Pipeline.make ~sccp:true "sccp");
    ("unroll", `On, Pipeline.make ~loop_unroll:true "unroll");
    ("loop_inversion", `On, Pipeline.make ~li:true "li");
    ("dce", `On, Pipeline.make ~dce:true "dce");
    ("bounds_check", `On, Pipeline.make ~bce:true "bce");
    ("gvn", `Off, Pipeline.make ~gvn:false "no-gvn");
    ("licm", `Off, Pipeline.make ~licm:false "no-licm");
    ("guard_elim", `Off, Pipeline.make ~ge:false "no-ge");
  ]

(* Replay the compile layers over every function of every program: MIR
   build and each pipeline schedule on freshly built generic graphs, then
   lowering and register allocation on the optimized graphs the engine
   itself compiled (specialized ones included). A function the builder
   rejects when built without the engine's feedback is counted and
   skipped. *)
let compile_replay tr opt programs graphs =
  let visits = ref 0 and removed = ref 0 and intervals = ref 0 and native = ref 0 in
  let skipped = ref 0 in
  List.iter
    (fun program ->
      Array.iter
        (fun func ->
          let build () = Builder.build ~program ~func () in
          match Trace.span tr "mir.build" build with
          | exception _ -> incr skipped
          | g ->
            (match Trace.span tr "opt.apply" (fun () -> Pipeline.apply ~program opt g) with
            | st ->
              visits := !visits + st.Pipeline.mir_instrs_processed;
              removed := !removed + st.Pipeline.instrs_removed
            | exception _ -> ());
            let schedule name cfg =
              let g = build () in
              try ignore (Trace.span tr name (fun () -> Pipeline.apply ~program cfg g)) with _ -> ()
            in
            schedule "opt.baseline" Pipeline.baseline;
            List.iter (fun (name, _, cfg) -> schedule ("opt.pass." ^ name) cfg) opt_passes)
        program.Bytecode.Program.funcs)
    programs;
  List.iter
    (fun g ->
      let v = Trace.span tr "lir.lower" (fun () -> Lower.run g) in
      let code, n = Trace.span tr "lir.regalloc" (fun () -> Regalloc.run v) in
      intervals := !intervals + n;
      native := !native + Code.size code)
    graphs;
  Printf.printf "info compile replay: %d engine graphs lowered, %d functions not buildable alone\n"
    (List.length graphs) !skipped;
  (!visits, !removed, !intervals, !native)

(* The engine layer's own counts over a pass's warm engines. *)
let engine_metrics engines =
  let total key =
    sum (List.map (fun (e, _) -> Telemetry.Counters.total (Telemetry.counters (Engine.telemetry e)) key) engines)
  in
  let split f = sum (List.map (fun (e, _) -> f (Engine.cycle_split e)) engines) in
  let rsum f = sum (List.map (fun (_, r) -> f r) engines) in
  let hits = total Telemetry.Key.cache_hits and misses = total Telemetry.Key.cache_misses in
  let queued = total Telemetry.Key.bg_queued and installed = total Telemetry.Key.bg_installed in
  [
    metric "engine.interp_cycles" "cycles" (float (split (fun (i, _, _) -> i)));
    metric "engine.native_cycles" "cycles" (float (split (fun (_, n, _) -> n)));
    metric "engine.compile_cycles" "cycles" (float (split (fun (_, _, c) -> c)));
    metric "engine.cache_hit_ratio" "ratio" (ratio hits (hits + misses));
    metric "engine.recompile_ratio" "ratio"
      (ratio (rsum (fun r -> r.Engine.recompilations)) (rsum (fun r -> r.Engine.compilations)));
    metric "engine.spec_success_ratio" "ratio"
      (ratio (rsum (fun r -> r.Engine.successful_funcs)) (rsum (fun r -> r.Engine.specialized_funcs)));
    metric "engine.deopts" "count" (float (total Telemetry.Key.deopts));
    metric "engine.bailouts" "count" (float (total Telemetry.Key.bailouts));
    metric "bg.queued" "count" (float queued);
    metric "bg.installed" "count" (float installed);
    metric "bg.overflow" "count" (float (total Telemetry.Key.bg_overflow));
    metric "bg.install_ratio" "ratio" (ratio installed queued);
  ]

let ms s = s *. 1000.0

let run_traced kind ~seed ~seconds =
  let su, _ = timed_setup kind seed 1 in
  let is_serve = match kind with Serve_plain | Serve_obs -> true | Suite | Web -> false in
  let budget = if is_serve then seconds *. 0.3 else seconds *. 0.45 in
  let passes = passes ~min_passes:2 in
  (* Untraced passes first: the reference for the tracing overhead and the
     source of the GC and pool deltas. On serve*, the spans sit in the
     benchmark's replay of the stream ([Serve.run] has none inside), so
     untraced replays that capture nothing are the reference there. *)
  let plain = passes ~seconds:budget (fun _ -> run_pass su) in
  let plain_replays =
    if not is_serve then []
    else
      passes ~seconds:(budget /. 2.0) (fun _ ->
          Gc.full_major ();
          replay_stream (Option.get su.serve_cfg) su.requests)
  in
  (* Traced passes, each on its own tracer. *)
  let traced =
    passes ~seconds:budget (fun _ ->
        let tr = Trace.create true in
        let p =
          match kind with
          | Suite | Web -> Trace.span tr "pass" (fun () -> program_pass ~tr ~capture:true su)
          | Serve_plain | Serve_obs ->
            Trace.span tr "pass" (fun () ->
                let p = serve_pass ~tr su in
                let rp =
                  Trace.span tr "serve.replay" (fun () ->
                      replay_stream ~tr ~capture:true (Option.get su.serve_cfg) su.requests)
                in
                {
                  p with
                  engines = rp.rp_engines;
                  graphs = rp.rp_graphs;
                  attempted = p.attempted + rp.rp_attempted;
                  failed = p.failed + rp.rp_failed;
                })
        in
        (p, Trace.spans tr))
  in
  describe su (List.length plain + List.length traced);
  let per_pass f = median (List.map (fun (_, spans) -> f spans) traced) in
  let span_ms name = per_pass (fun spans -> ms (Trace.total_s spans name)) in
  let plain_wall = median (List.map (fun p -> p.wall) plain) in
  let plain_replay_wall = median (List.map (fun rp -> rp.rp_wall) plain_replays) in
  let traced_wall, untraced_wall =
    if is_serve then (per_pass (fun spans -> Trace.total_s spans "serve.replay"), plain_replay_wall)
    else (per_pass (fun spans -> Trace.total_s spans "pass"), plain_wall)
  in
  (* The replay phase: one traced run of the compile and execution layers
     over the last traced pass's programs and warm engines. *)
  let last, _ = List.nth traced (List.length traced - 1) in
  let tr = Trace.create true in
  let programs = List.map (fun (p, _) -> Bytecode.Compile.program_of_source p.p_source) su.progs in
  let instrs =
    Trace.span tr "replay.interp" (fun () ->
        sum
          (List.map
             (fun program ->
               match Trace.span tr "interp" (fun () -> exec (Engine.make Engine.interp_only program)) with
               | Some (r, _) -> r.Engine.bytecode_instrs
               | None -> 0)
             programs))
  in
  let engine_ms = engine_metrics last.engines in
  let native_delta =
    Trace.span tr "replay.native" (fun () ->
        sum
          (List.map
             (fun (e, _) ->
               let _, n0, _ = Engine.cycle_split e in
               ignore (Trace.span tr "native.warm" (fun () -> exec e));
               let _, n1, _ = Engine.cycle_split e in
               n1 - n0)
             last.engines))
  in
  let opt = (jit_config kind).Engine.opt in
  let visits, removed, intervals, native =
    Trace.span tr "replay.compile" (fun () -> compile_replay tr opt programs last.graphs)
  in
  let replay_spans = Trace.spans tr in
  let rms name = ms (Trace.total_s replay_spans name) in
  let compile_model =
    (Cost.compile_per_mir_instr * visits)
    + (Cost.compile_per_native_instr * native)
    + (Cost.compile_per_interval * intervals)
  in
  let compile_ms = rms "mir.build" +. rms "opt.apply" +. rms "lir.lower" +. rms "lir.regalloc" in
  (* Observers: the same stream with every observer on vs off. *)
  let other =
    if not is_serve then [] else passes ~seconds:budget (fun _ -> serve_pass ~obs:(kind = Serve_plain) su)
  in
  let obs_metrics =
    if not is_serve then
      List.map (fun n -> metric n (if n = "obs.overhead_ms" then "ms" else "count") 0.0)
        [ "obs.overhead_ms"; "obs.spans"; "obs.snapshots"; "obs.flight_dumps" ]
    else begin
      let theirs = median (List.map (fun p -> p.wall) other) in
      let on_wall, off_wall = if kind = Serve_obs then (plain_wall, theirs) else (theirs, plain_wall) in
      let spans, snaps, dumps =
        Option.get (if kind = Serve_obs then last.obs_counts else (List.hd other).obs_counts)
      in
      [
        metric "obs.overhead_ms" "ms" (ms (on_wall -. off_wall));
        metric "obs.spans" "count" (float spans);
        metric "obs.snapshots" "count" (float snaps);
        metric "obs.flight_dumps" "count" (float dumps);
      ]
    end
  in
  (* Every other pass runs on one pool job (see [pool_jobs]); the pool's
     own numbers come from extra serve passes on a two-job pool. *)
  let pool_passes =
    let par = min 2 (Domain.recommended_domain_count ()) in
    if (not is_serve) || par = pool_jobs then []
    else begin
      Pool.set_default_jobs par;
      let ps = passes ~seconds:(budget /. 2.0) (fun _ -> run_pass su) in
      Pool.set_default_jobs pool_jobs;
      ps
    end
  in
  let pool_stats = match pool_passes with [] -> plain | ps -> ps in
  let serve_metrics =
    match last.summary with
    | Some s ->
      [
        metric "serve.overhead_ms" "ms" (ms (plain_wall -. plain_replay_wall));
        metric "serve.cold_pct" "%" (100.0 *. ratio s.Serve.sm_cold s.Serve.sm_ok);
        metric "serve.tail_compile_pct" "%" s.Serve.sm_tail_compile_pct;
      ]
    | None ->
      [ metric "serve.overhead_ms" "ms" 0.0; metric "serve.cold_pct" "%" 0.0; metric "serve.tail_compile_pct" "%" 0.0 ]
  in
  let interp_ms = rms "interp" and warm_ms = rms "native.warm" in
  let opt_pass_ms =
    List.map
      (fun (name, dir, _) ->
        let d = rms ("opt.pass." ^ name) -. rms "opt.baseline" in
        metric ("opt." ^ name ^ "_ms") "ms" (if dir = `On then d else -.d))
      opt_passes
  in
  let ms_list =
    [
      metric "jsfront.parse_ms" "ms" (span_ms "jsfront.parse");
      metric "bytecode.compile_ms" "ms" (span_ms "bytecode.compile");
      metric "engine.run_ms" "ms" (span_ms "engine.run");
      metric "interp.ms" "ms" interp_ms;
      metric "interp.instrs" "count" (float instrs);
      metric "interp.ns_per_instr" "ns" (if instrs = 0 then 0.0 else interp_ms *. 1e6 /. float instrs);
      metric "mir.build_ms" "ms" (rms "mir.build");
      metric "opt.apply_ms" "ms" (rms "opt.apply");
    ]
    @ opt_pass_ms
    @ [
        metric "opt.mir_visits" "count" (float visits);
        metric "opt.instrs_removed" "count" (float removed);
        metric "lir.lower_ms" "ms" (rms "lir.lower");
        metric "lir.regalloc_ms" "ms" (rms "lir.regalloc");
        metric "lir.intervals" "count" (float intervals);
        metric "lir.native_instrs" "count" (float native);
        metric "compile.ns_per_cycle" "ns"
          (if compile_model = 0 then 0.0 else compile_ms *. 1e6 /. float compile_model);
        metric "native.warm_ms" "ms" warm_ms;
        metric "native.ns_per_cycle" "ns"
          (if native_delta = 0 then 0.0 else warm_ms *. 1e6 /. float native_delta);
      ]
    @ engine_ms @ serve_metrics @ obs_metrics
    @ [
        metric "gc.minor_mwords" "Mwords" (median (List.map (fun p -> p.minor_words /. 1e6) plain));
        metric "gc.major_collections" "count"
          (median (List.map (fun p -> float p.major_collections) plain));
        metric "pool.steals" "count" (median (List.map (fun p -> float p.steals) pool_stats));
        metric "pool.join_wait_s" "s" (median (List.map (fun p -> p.join_wait) pool_stats));
        metric "host.calib_ms" "ms" (calib_ms ());
        metric "trace.overhead_pct" "%" (100.0 *. (traced_wall -. untraced_wall) /. untraced_wall);
      ]
  in
  (* Spans: written out once, plus a self-time table on stdout. *)
  let all_spans = List.concat_map snd traced @ replay_spans in
  let name = kind_name kind in
  let dir = Filename.concat "perfbench" "out" in
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  let path = Filename.concat dir (Printf.sprintf "trace-%s-seed%d.json" name seed) in
  Trace.write_chrome path all_spans;
  Printf.printf "trace: %d spans -> %s\n" (List.length all_spans) path;
  Printf.printf "%-28s %8s %12s %12s\n" "span" "calls" "total_ms" "self_ms";
  List.iter
    (fun (n, (calls, tot, self)) -> Printf.printf "%-28s %8d %12.3f %12.3f\n" n calls (ms tot) (ms self))
    (Trace.totals all_spans);
  List.iter print_metric ms_list;
  let ps = plain @ List.map fst traced @ other @ pool_passes in
  let attempted = sum (List.map (fun p -> p.attempted) ps) + sum (List.map (fun rp -> rp.rp_attempted) plain_replays) in
  let failed = sum (List.map (fun p -> p.failed) ps) + sum (List.map (fun rp -> rp.rp_failed) plain_replays) in
  (ms_list, attempted, failed)

(* ------------------------------------------------------------------ *)
(* Self-test                                                           *)
(* ------------------------------------------------------------------ *)

(* The deterministic metrics must repeat exactly across two passes and
   across pool sizes 1 and 2, and the same seed must regenerate the same
   inputs. *)
let selftest ~seed =
  let deterministic kind jobs =
    Pool.set_default_jobs jobs;
    let su = setup kind seed in
    let p = run_pass su in
    let slo = if kind = Serve_plain then slo_rate su else 0 in
    let fail_pct = 100.0 *. ratio p.failed p.attempted in
    (su.digest, [ p.model_cycles; p.code; p.p50; p.p99; slo ], fail_pct)
  in
  List.for_all
    (fun (name, kind) ->
      let a = deterministic kind 1 and b = deterministic kind 1 and c = deterministic kind 2 in
      let same = a = b && b = c in
      let _, _, fail_pct = a in
      Printf.printf "selftest %-10s deterministic=%b fail_pct=%g\n%!" name same fail_pct;
      same && fail_pct = 0.0)
    kinds

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let commit = ref "unknown" and self = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME suite | web | serve | serve_obs");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measuring budget in wall seconds");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end or traced per-layer run");
      ("--commit", Arg.Set_string commit, "ID source revision for the host fingerprint");
      ("--selftest", Arg.Set self, " determinism checks");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "vsbench --workload NAME --seed N --seconds S --trace 0|1";
  Pool.set_default_jobs pool_jobs;
  let code =
    if !self then if selftest ~seed:!seed then 0 else 1
    else
      match List.assoc_opt !workload kinds with
      | None ->
        prerr_endline ("unknown workload: " ^ !workload);
        2
      | Some kind ->
        fingerprint ~commit:!commit ~calib:(calib_ms ());
        let ms, attempted, failed =
          if !trace = 1 then run_traced kind ~seed:!seed ~seconds:!seconds
          else run_untraced kind ~seed:!seed ~seconds:!seconds
        in
        print_json ~attempted ~failed ms;
        if failed > 0 then 1 else 0
  in
  Option.iter Pool.shutdown (Pool.peek_default ());
  exit code
