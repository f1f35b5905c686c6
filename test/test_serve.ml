(* Service-layer tests: cooperative deadlines (exactly-once accounting;
   byte-identity when disabled), degrade mode (shed specialization, keep
   the warm cache), supervision and recycle isolation (quarantine backoff
   must not leak into a fresh isolate), the forced service fault points,
   the fired-fault hook, the smoke invariants and --jobs determinism of
   the whole service summary. *)

open Runtime

(* A list sink: [collect evs] records what every event says in [evs],
   newest first. *)
let collect evs (ev : Telemetry.event) = evs := ev.what :: !evs

(* A program with one clearly hot, specializable function. *)
let hot_src =
  "function work(n) { var s = 0; for (var i = 0; i < n; i++) s = s + i; return s; }\n\
   var t = 0;\n\
   for (var j = 0; j < 120; j++) t = t + work(60);\n\
   print(t);\n"

let spec_cfg ?deadline () = Engine.default_config ~opt:Pipeline.all_on ?deadline ()

let run_quiet ?(cfg = Engine.default_config ()) ?(sinks = []) src =
  Builtins.with_print_hook ignore (fun () ->
      let engine = Engine.make cfg (Bytecode.Compile.program_of_source src) in
      List.iter (Telemetry.attach (Engine.telemetry engine)) sinks;
      let result = try Ok (Engine.run engine) with e -> Error e in
      (engine, result))

let total c name = Telemetry.Counters.total c name
let registry engine = Telemetry.counters (Engine.telemetry engine)

(* --- cooperative deadlines ------------------------------------------- *)

let test_deadline_trips_exactly_once () =
  let _, reference = run_quiet ~cfg:(spec_cfg ()) hot_src in
  let budget =
    match reference with
    | Ok rep -> rep.Engine.total_cycles / 2
    | Error _ -> Alcotest.fail "reference run failed"
  in
  let evs = ref [] in
  let engine, result =
    run_quiet ~cfg:(spec_cfg ~deadline:budget ()) ~sinks:[ collect evs ] hot_src
  in
  (match result with
  | Error (Engine.Deadline_exceeded { dl_spent; dl_limit; _ }) ->
    Alcotest.(check int) "budget is the configured deadline" budget dl_limit;
    Alcotest.(check bool) "cycles were charged past the budget" true (dl_spent > dl_limit);
    (* The engine was fresh, so the run's spent cycles are the clock: the
       trip charged exactly once and nothing ran afterwards. *)
    Alcotest.(check int) "clock stops at the trip" dl_spent (Engine.clock engine)
  | Ok _ -> Alcotest.fail "expected Deadline_exceeded"
  | Error e -> Alcotest.fail ("unexpected exception: " ^ Printexc.to_string e));
  let hits =
    List.filter
      (fun e -> Telemetry.event_kind e = "deadline_hit")
      (List.rev !evs)
  in
  Alcotest.(check int) "exactly one Deadline_hit event" 1 (List.length hits);
  Alcotest.(check int) "deadlines counter bumped exactly once" 1
    (total (registry engine) Telemetry.Key.deadlines);
  Alcotest.(check bool) "the run had compiled (specialized) code" true
    (total (registry engine) "compiles.specialized" >= 1)

let test_deadline_disabled_byte_identical () =
  let run cfg =
    let engine, result = run_quiet ~cfg hot_src in
    match result with
    | Ok rep ->
      ( rep.Engine.total_cycles,
        rep.Engine.native_cycles,
        rep.Engine.compile_cycles,
        rep.Engine.bytecode_instrs,
        Telemetry.Counters.rows (registry engine) )
    | Error e -> Alcotest.fail ("unexpected exception: " ^ Printexc.to_string e)
  in
  let off = run (spec_cfg ()) in
  let zero = run (spec_cfg ~deadline:0 ()) in
  let armed_never_trips = run (spec_cfg ~deadline:max_int ()) in
  Alcotest.(check bool) "deadline=0 is the default engine, byte for byte" true (off = zero);
  Alcotest.(check bool) "an armed but untripped deadline charges nothing" true
    (off = armed_never_trips)

(* --- degrade mode ----------------------------------------------------- *)

let test_degrade_sheds_specialization () =
  Builtins.with_print_hook ignore (fun () ->
      let engine = Engine.make (spec_cfg ()) (Bytecode.Compile.program_of_source hot_src) in
      Engine.set_degrade engine true;
      ignore (Engine.run engine);
      let c = registry engine in
      Alcotest.(check int) "no specialized compiles under degrade" 0
        (total c "compiles.specialized");
      Alcotest.(check bool) "degraded compiles counted" true (total c "compiles.degraded" >= 1);
      Alcotest.(check bool) "the hot function still compiled (generic)" true
        (total c "compiles" >= 1))

let test_degrade_preserves_warm_cache () =
  Builtins.with_print_hook ignore (fun () ->
      let engine = Engine.make (spec_cfg ()) (Bytecode.Compile.program_of_source hot_src) in
      ignore (Engine.run engine);
      let c = registry engine in
      Alcotest.(check bool) "warm run specialized" true (total c "compiles.specialized" >= 1);
      let compiles_before = total c "compiles" in
      Engine.set_degrade engine true;
      ignore (Engine.run engine);
      Alcotest.(check int) "degraded warm run recompiles nothing" compiles_before
        (total c "compiles");
      Alcotest.(check int) "no deopt under degrade" 0 (total c "deopts"))

(* --- supervision and recycle isolation -------------------------------- *)

(* A function quarantined (with exponential backoff) in one engine must
   not leak that state into the fresh engine a recycled isolate builds:
   the backoff lives in per-engine fstate, nothing global. *)
let test_recycle_does_not_leak_quarantine () =
  let program = Bytecode.Compile.program_of_source hot_src in
  let cfg = spec_cfg () in
  Builtins.with_print_hook ignore (fun () ->
      let first =
        Engine.make ~faults:(Faults.make ~seed:1 [ (Faults.Compile_diag, Faults.Every 1) ]) cfg
          program
      in
      ignore (Engine.run first);
      let c1 = registry first in
      Alcotest.(check bool) "first engine quarantined" true (total c1 "quarantines" >= 1);
      Alcotest.(check bool) "compiles aborted" true (total c1 "compiles.aborted" >= 1);
      let second = Engine.make cfg program in
      ignore (Engine.run second);
      let c2 = registry second in
      Alcotest.(check int) "fresh engine sees no quarantine" 0 (total c2 "quarantines");
      Alcotest.(check int) "fresh engine sees no aborts" 0 (total c2 "compiles.aborted");
      Alcotest.(check bool) "fresh engine compiles normally" true (total c2 "compiles" >= 1))

(* --- background compilation under service pressure -------------------- *)

let bg_spec_cfg ?deadline () =
  Engine.default_config ~opt:Pipeline.all_on ~bg_compile:true ?deadline ()

let test_deadline_expiry_with_compile_in_flight () =
  (* [work] goes hot around cycle 9000 and its artifact's modeled ready
     cycle is ~12400; a 10000-cycle budget trips in between, so the
     deadline fires while the compile is in flight. The expiry must be a
     clean request failure — engine warm, request still queued — and the
     next request (a fresh budget) harvests the artifact normally. *)
  Builtins.with_print_hook ignore (fun () ->
      let engine = Engine.make (bg_spec_cfg ~deadline:10_000 ()) (Bytecode.Compile.program_of_source hot_src) in
      (match Engine.run engine with
      | exception Engine.Deadline_exceeded _ -> ()
      | _ -> Alcotest.fail "expected Deadline_exceeded");
      Alcotest.(check int) "the compile was in flight at the trip" 1
        (Engine.bg_in_flight engine);
      let c = registry engine in
      Alcotest.(check int) "nothing installed yet" 0 (total c "bg.installed");
      (* The retry: a warm engine, a fresh budget, the artifact now past
         its ready cycle — it lands at the first call's harvest even
         though this attempt (whose budget is far below the program's
         cost) deadline-fails again. The expiry never loses the compile
         work: later requests run the binary. *)
      (match Engine.run engine with
      | _report -> ()
      | exception Engine.Deadline_exceeded _ -> ());
      Alcotest.(check bool) "the artifact landed on the retry" true
        (total c "bg.installed" >= 1);
      Alcotest.(check int) "queue drained" 0 (Engine.bg_in_flight engine))

let test_degrade_drains_and_suppresses_bg () =
  (* Degrade entered with a request in flight cancels it; while degraded
     nothing new is queued (compiles are synchronous-degraded instead). *)
  let tail_hot =
    "function f(x) { return (x + 1) | 0; }\n\
     var t = 0;\n\
     for (var i = 0; i < 11; i++) t = (t + f(4)) | 0;\n\
     print(t);"
  in
  Builtins.with_print_hook ignore (fun () ->
      let engine = Engine.make (bg_spec_cfg ()) (Bytecode.Compile.program_of_source tail_hot) in
      ignore (Engine.run engine);
      let c = registry engine in
      Alcotest.(check int) "one request in flight at the end" 1 (Engine.bg_in_flight engine);
      Engine.set_degrade engine true;
      Alcotest.(check int) "degrade drained it" 0 (Engine.bg_in_flight engine);
      Alcotest.(check int) "the cancel was counted" 1 (total c "bg.cancelled");
      (* Re-run degraded: f is hot from the first call; the compile must
         be synchronous-degraded, never queued. *)
      let queued_before = total c "bg.queued" in
      ignore (Engine.run engine);
      Alcotest.(check int) "nothing queued under degrade" queued_before (total c "bg.queued");
      Alcotest.(check bool) "the degraded compile happened synchronously" true
        (total c "compiles.degraded" >= 1);
      Alcotest.(check int) "still nothing in flight" 0 (Engine.bg_in_flight engine))

let test_recycle_does_not_leak_bg_artifacts () =
  (* The full service under overload + crashes + chaos with background
     compilation on: every recycle drains the dying isolate's queues, so
     the absorbed counters must account for every queued request as
     installed, cancelled, or still in flight at teardown — and nothing
     may escape the supervisor. *)
  let cfg =
    Serve.default_config ~isolates:2 ~requests:120 ~tenants:5 ~capacity:4
      ~queue_deadline:150_000 ~deadline:120_000 ~retries:2 ~backoff:2_000
      ~overload_depth:2 ~mean_gap:12_000 ~crash_fraction:0.08 ~seed:20130223 ~chaos:7
      ~engine:
        (Engine.default_config ~opt:Pipeline.all_on ~policy:Policy.Polyvariant
           ~cache_size:4 ~bg_compile:true ())
      ()
  in
  let s = Serve.run cfg in
  Alcotest.(check int) "no supervisor escapes" 0 (Serve.counter s "serve.escapes");
  Alcotest.(check bool) "requests served" true (s.Serve.sm_ok > 0);
  Alcotest.(check bool) "isolates recycled" true (Serve.counter s "serve.recycles" >= 1);
  Alcotest.(check bool) "degrade mode entered" true (Serve.counter s "serve.degraded" >= 1);
  Alcotest.(check bool) "the queue was used" true (Serve.counter s "bg.queued" >= 1);
  Alcotest.(check bool) "recycle/degrade drains cancelled requests" true
    (Serve.counter s "bg.cancelled" >= 1);
  (* Conservation: a queued request either installed, was cancelled, or
     was still in flight when its engine was dropped — never double-
     counted, never leaked into another tenant's engine. *)
  Alcotest.(check bool) "queued >= installed + cancelled" true
    (Serve.counter s "bg.queued"
    >= Serve.counter s "bg.installed" + Serve.counter s "bg.cancelled");
  (* Determinism of the whole bg-on service summary across --jobs. *)
  Pool.set_default_jobs 4;
  let s4 = Fun.protect ~finally:(fun () -> Pool.set_default_jobs 1) (fun () -> Serve.run cfg) in
  Alcotest.(check bool) "bg-on summary identical at --jobs 4 vs 1" true (s = s4)

let req id ~tenant ~arrival ~poison =
  { Serve.rq_id = id; rq_tenant = tenant; rq_arrival = arrival; rq_poison = poison }

let outcomes records =
  List.map (fun r -> Serve.outcome_to_string r.Serve.rr_outcome) records

let row rows name = Option.value (List.assoc_opt name rows) ~default:0

let test_supervisor_recycles_and_retries () =
  let cfg =
    Serve.default_config ~isolates:1 ~requests:0 ~tenants:2 ~retries:1 ~backoff:500
      ~seed:3 ()
  in
  let reqs =
    [
      req 0 ~tenant:0 ~arrival:0 ~poison:false;
      req 1 ~tenant:0 ~arrival:10 ~poison:true;
      req 2 ~tenant:0 ~arrival:20 ~poison:false;
    ]
  in
  let _, records, rows = Serve.run_isolate cfg ~isolate:0 reqs in
  Alcotest.(check (list string))
    "poison exhausts retries; the tenant survives" [ "ok"; "fault"; "ok" ]
    (outcomes records);
  (match records with
  | [ a; b; c ] ->
    Alcotest.(check bool) "first request was cold" false a.Serve.rr_warm;
    Alcotest.(check int) "poison attempted 1 + retries times" 2 b.Serve.rr_attempts;
    Alcotest.(check bool) "poison latency includes the backoff wait" true
      (b.Serve.rr_latency >= 500);
    Alcotest.(check bool) "recycle made the tenant cold again" false c.Serve.rr_warm
  | _ -> Alcotest.fail "expected three records");
  Alcotest.(check int) "one recycle per failing attempt" 2 (row rows Serve.Skey.recycles);
  Alcotest.(check int) "one retry" 1 (row rows Serve.Skey.retries);
  Alcotest.(check int) "nothing escaped the supervisor" 0 (row rows Serve.Skey.escapes)

(* --- forced service fault points -------------------------------------- *)

let two_requests = [ req 0 ~tenant:0 ~arrival:0 ~poison:false; req 1 ~tenant:0 ~arrival:10 ~poison:false ]

let test_forced_admission_shed () =
  let cfg = Serve.default_config ~isolates:1 ~requests:0 ~tenants:1 ~seed:5 () in
  let _, records, rows =
    Serve.run_isolate
      ~faults:(Faults.make ~seed:1 [ (Faults.Serve_admit, Faults.Nth 1) ])
      cfg ~isolate:0 two_requests
  in
  Alcotest.(check (list string)) "first shed by the injected fault" [ "shed"; "ok" ]
    (outcomes records);
  Alcotest.(check int) "the firing was counted" 1
    (row rows (Telemetry.Key.faults_fired "serve_admit"))

let test_forced_deadline_not_retried () =
  let cfg =
    Serve.default_config ~isolates:1 ~requests:0 ~tenants:1 ~deadline:1_000_000
      ~retries:2 ~seed:5 ()
  in
  let _, records, rows =
    Serve.run_isolate
      ~faults:(Faults.make ~seed:1 [ (Faults.Serve_deadline, Faults.Nth 1) ])
      cfg ~isolate:0 two_requests
  in
  Alcotest.(check (list string)) "deadline fault fails cleanly" [ "deadline-exec"; "ok" ]
    (outcomes records);
  (match records with
  | first :: _ ->
    Alcotest.(check int) "a deadline miss is never retried" 1 first.Serve.rr_attempts;
    Alcotest.(check int) "the attempt was charged its full budget" 1_000_000
      first.Serve.rr_latency
  | [] -> Alcotest.fail "no records");
  Alcotest.(check int) "no retries" 0 (row rows Serve.Skey.retries);
  Alcotest.(check int) "the firing was counted" 1
    (row rows (Telemetry.Key.faults_fired "serve_deadline"))

(* The plan counts its own fires; the isolate folds each request's count
   into [faults.fired.<point>]. *)
let test_fired_hook () =
  Alcotest.(check bool) "no plan, no fire" false (Faults.fire Faults.none Faults.Serve_admit);
  let plan = Faults.make ~seed:1 [ (Faults.Serve_admit, Faults.Nth 2) ] in
  Alcotest.(check bool) "first occurrence passes" false (Faults.fire plan Faults.Serve_admit);
  Alcotest.(check bool) "second occurrence fires" true (Faults.fire plan Faults.Serve_admit);
  Alcotest.(check (list string))
    "the plan counted exactly the fired occurrence" [ "serve_admit" ]
    (List.map (fun (p, _) -> Faults.point_to_string p) (Faults.take_fired plan));
  let cfg = Serve.default_config ~isolates:1 ~requests:0 ~tenants:1 ~seed:5 () in
  let _, _, rows =
    Serve.run_isolate
      ~faults:(Faults.make ~seed:1 [ (Faults.Serve_admit, Faults.Nth 2) ])
      cfg ~isolate:0 two_requests
  in
  Alcotest.(check int) "the isolate folded one fire" 1
    (row rows (Telemetry.Key.faults_fired "serve_admit"))

let test_sample_covers_service_points () =
  let covered p =
    List.exists
      (fun seed -> List.mem_assoc p (Faults.plan_spec (Faults.sample seed)))
      (List.init 64 (fun i -> i))
  in
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Faults.point_to_string p ^ " reachable from sample") true (covered p))
    [ Faults.Version_widen; Faults.Serve_admit; Faults.Serve_deadline ]

(* --- the smoke scenario and --jobs determinism ------------------------ *)

let test_smoke_invariants () =
  let s = Serve.run (Serve.smoke_config ()) in
  (match Serve.smoke_check s with
  | Ok () -> ()
  | Error problems -> Alcotest.fail (String.concat "; " problems));
  Alcotest.(check int) "classification partitions the requests" s.Serve.sm_requests
    (s.Serve.sm_ok + s.Serve.sm_shed + s.Serve.sm_deadline_queue + s.Serve.sm_deadline_exec
   + s.Serve.sm_fault)

let at_jobs jobs f =
  Pool.set_default_jobs jobs;
  Fun.protect ~finally:(fun () -> Pool.set_default_jobs 1) f

let test_jobs_deterministic () =
  let run jobs = at_jobs jobs (fun () -> Serve.run (Serve.smoke_config ())) in
  let serial = run 1 in
  let parallel = run 4 in
  Alcotest.(check bool) "whole summary identical at --jobs 4 vs 1" true (serial = parallel)

(* --- observability ---------------------------------------------------- *)

let obs_all_on =
  {
    Serve.obs_trace = true;
    obs_metrics = true;
    obs_metrics_every = 100_000;
    obs_flight = true;
    obs_flight_capacity = 64;
    obs_flight_max_dumps = 4;
  }

(* A second fixture with background compilation on — the config the bg
   recycle test uses, so the latency profile differs from the smoke. *)
let bg_chaos_config () =
  Serve.default_config ~isolates:2 ~requests:120 ~tenants:5 ~capacity:4
    ~queue_deadline:150_000 ~deadline:120_000 ~retries:2 ~backoff:2_000
    ~overload_depth:2 ~mean_gap:12_000 ~crash_fraction:0.08 ~seed:20130223 ~chaos:7
    ~engine:
      (Engine.default_config ~opt:Pipeline.all_on ~policy:Policy.Polyvariant
         ~cache_size:4 ~bg_compile:true ())
    ()

(* The service's original percentile computation, kept as the reference
   the metrics histogram must reproduce bit for bit. *)
let ref_percentile latencies p =
  let sorted = Array.of_list latencies in
  Array.sort compare sorted;
  let n = Array.length sorted in
  if n = 0 then 0
  else begin
    let rank = int_of_float (ceil (p *. float_of_int n)) - 1 in
    sorted.(min (n - 1) (max 0 rank))
  end

let test_histogram_exactness_on_fixtures () =
  List.iter
    (fun (name, cfg) ->
      let s = Serve.run cfg in
      let served =
        List.filter_map
          (fun r -> if r.Serve.rr_outcome = Serve.Served then Some r.Serve.rr_latency else None)
          s.Serve.sm_records
      in
      Alcotest.(check bool) (name ^ ": fixture serves requests") true (served <> []);
      List.iter
        (fun (what, p, got) ->
          Alcotest.(check int)
            (Printf.sprintf "%s: %s bit-for-bit" name what)
            (ref_percentile served p) got)
        [
          ("p50", 0.50, s.Serve.sm_p50);
          ("p95", 0.95, s.Serve.sm_p95);
          ("p99", 0.99, s.Serve.sm_p99);
        ])
    [
      ("smoke", Serve.smoke_config ());
      ("bg-chaos", bg_chaos_config ());
      ( "tiny",
        Serve.default_config ~isolates:1 ~requests:3 ~tenants:1 ~mean_gap:50_000
          ~seed:11 () );
    ]

let test_obs_on_leaves_summary_unchanged () =
  let base = Serve.smoke_config () in
  let off = Serve.run base in
  let on, obs = Serve.run_full { base with Serve.obs = obs_all_on } in
  Alcotest.(check bool) "summary identical with every observer attached" true (off = on);
  Alcotest.(check bool) "spans were captured" true (obs.Serve.or_spans <> []);
  Alcotest.(check bool) "metrics were captured" true (Option.is_some obs.Serve.or_metrics);
  Alcotest.(check bool) "snapshots were captured" true (obs.Serve.or_snapshots <> []);
  Alcotest.(check bool) "the chaos scenario triggered post-mortems" true
    (obs.Serve.or_flights <> [])

let test_obs_artifacts_jobs_deterministic () =
  let cfg = { (Serve.smoke_config ()) with Serve.obs = obs_all_on } in
  let run jobs = at_jobs jobs (fun () -> Serve.run_full cfg) in
  let s1, o1 = run 1 in
  let s4, o4 = run 4 in
  Alcotest.(check bool) "summary identical" true (s1 = s4);
  Alcotest.(check bool) "spans identical" true (o1.Serve.or_spans = o4.Serve.or_spans);
  let snapshots o = List.map (fun (i, s) -> (i, Metrics.snapshot_json s)) o.Serve.or_snapshots in
  Alcotest.(check (list (pair int string))) "snapshots identical" (snapshots o1) (snapshots o4);
  Alcotest.(check bool) "flight dumps identical" true
    (o1.Serve.or_flights = o4.Serve.or_flights);
  (* The rendered forms too: the files the CLI writes. *)
  let jsonl o =
    let file = Filename.temp_file "flight" ".jsonl" in
    Out_channel.with_open_text file (fun oc ->
        Flight.output_jsonl oc (List.map snd o.Serve.or_flights));
    let text = In_channel.with_open_text file In_channel.input_all in
    Sys.remove file;
    text
  in
  Alcotest.(check string) "flight JSONL identical" (jsonl o1) (jsonl o4);
  let prom o =
    match o.Serve.or_metrics with Some m -> Metrics.to_prometheus m | None -> ""
  in
  Alcotest.(check string) "prometheus text identical" (prom o1) (prom o4)

let test_request_spans_stitchable () =
  (* The bg fixture: background compiles are what the flow events stitch. *)
  let cfg = { (bg_chaos_config ()) with Serve.obs = obs_all_on } in
  let s, obs = Serve.run_full cfg in
  let spans = obs.Serve.or_spans in
  (* Every request record has exactly one "request" span, stamped with
     its trace context: trace id rq_id + 1. *)
  let request_spans =
    List.filter
      (fun sp ->
        sp.Telemetry.sp_site.Telemetry.site_name = "request"
        && sp.Telemetry.sp_note.Telemetry.note_ph = Telemetry.Ph_complete)
      spans
  in
  Alcotest.(check int) "one request span per record"
    (List.length s.Serve.sm_records)
    (List.length request_spans);
  List.iter
    (fun sp ->
      Alcotest.(check int) "trace id is rq_id + 1" (sp.Telemetry.sp_site.Telemetry.site_fid + 1)
        (Telemetry.span_trace sp))
    request_spans;
  (* Engine-side spans executed on behalf of a request carry its trace. *)
  Alcotest.(check bool) "engine spans are stamped with request traces" true
    (List.exists
       (fun sp -> sp.Telemetry.sp_site.Telemetry.site_cat <> "serve" && Telemetry.span_trace sp > 0)
       spans);
  (* Flow stitches balance: every flow id has exactly one start and one
     finish, in timestamp order. *)
  let flows = Hashtbl.create 64 in
  List.iter
    (fun sp ->
      match sp.Telemetry.sp_note.Telemetry.note_ph with
      | Telemetry.Ph_complete -> ()
      | Telemetry.Ph_flow_start | Telemetry.Ph_flow_finish ->
        let starts, finishes, first_start, last_finish =
          Option.value
            (Hashtbl.find_opt flows sp.Telemetry.sp_note.Telemetry.note_flow)
            ~default:(0, 0, max_int, min_int)
        in
        let cell =
          if sp.Telemetry.sp_note.Telemetry.note_ph = Telemetry.Ph_flow_start then
            (starts + 1, finishes, min first_start sp.Telemetry.sp_start, last_finish)
          else (starts, finishes + 1, first_start, max last_finish sp.Telemetry.sp_start)
        in
        Hashtbl.replace flows sp.Telemetry.sp_note.Telemetry.note_flow cell)
    spans;
  Alcotest.(check bool) "background compiles produced flows" true
    (Hashtbl.length flows > 0);
  Hashtbl.iter
    (fun id (starts, finishes, first_start, last_finish) ->
      Alcotest.(check int) (Printf.sprintf "flow %d: one start" id) 1 starts;
      Alcotest.(check int) (Printf.sprintf "flow %d: one finish" id) 1 finishes;
      Alcotest.(check bool)
        (Printf.sprintf "flow %d: begin before end" id)
        true
        (first_start <= last_finish))
    flows

(* What a traced run retains per span: a span is a record of a shared
   site, three ints and a shared note, plus its list cell — 9 words — and
   the sites, the per-request notes and the args of the few spans that
   carry them come on top. The stream is the benchmark's traced serve
   stream at 400 requests (26,440 spans, 11.0 words each). Spans that
   carried their name, category, function and context inline retained
   16.9 words each here. *)
let test_span_retention () =
  let cfg =
    Serve.default_config ~isolates:2 ~requests:400 ~tenants:32 ~mean_gap:30_000 ~seed:1
      ~engine:
        (Engine.default_config ~policy:Policy.Polyvariant ~cache_size:4 ~bg_compile:true ())
      ~obs:{ Serve.obs_off with Serve.obs_trace = true }
      ()
  in
  let _, obs = Serve.run_full cfg in
  let spans = List.length obs.Serve.or_spans in
  Alcotest.(check bool) "the stream is traced" true (spans > 20_000);
  let per_span = float (Obj.reachable_words (Obj.repr obs.Serve.or_spans)) /. float spans in
  if per_span > 11.5 then
    Alcotest.failf "%d retained spans hold %.2f words each (bound 11.5)" spans per_span

let suites =
  [
    ( "serve.deadlines",
      [
        Alcotest.test_case "trips exactly once, cycles charged" `Quick
          test_deadline_trips_exactly_once;
        Alcotest.test_case "disabled/untripped is byte-identical" `Quick
          test_deadline_disabled_byte_identical;
      ] );
    ( "serve.degrade",
      [
        Alcotest.test_case "sheds specialization" `Quick test_degrade_sheds_specialization;
        Alcotest.test_case "preserves the warm cache" `Quick test_degrade_preserves_warm_cache;
      ] );
    ( "serve.supervision",
      [
        Alcotest.test_case "recycle does not leak quarantine" `Quick
          test_recycle_does_not_leak_quarantine;
        Alcotest.test_case "supervisor recycles and retries" `Quick
          test_supervisor_recycles_and_retries;
      ] );
    ( "serve.faults",
      [
        Alcotest.test_case "forced admission shed" `Quick test_forced_admission_shed;
        Alcotest.test_case "forced deadline, no retry" `Quick test_forced_deadline_not_retried;
        Alcotest.test_case "fired hook" `Quick test_fired_hook;
        Alcotest.test_case "sample covers service points" `Quick
          test_sample_covers_service_points;
      ] );
    ( "serve.bg",
      [
        Alcotest.test_case "deadline expiry with a compile in flight" `Quick
          test_deadline_expiry_with_compile_in_flight;
        Alcotest.test_case "degrade drains and suppresses the queue" `Quick
          test_degrade_drains_and_suppresses_bg;
        Alcotest.test_case "recycle never leaks queued artifacts" `Quick
          test_recycle_does_not_leak_bg_artifacts;
      ] );
    ( "serve.smoke",
      [
        Alcotest.test_case "overload invariants" `Quick test_smoke_invariants;
        Alcotest.test_case "jobs 4 = jobs 1" `Quick test_jobs_deterministic;
      ] );
    ( "serve.obs",
      [
        Alcotest.test_case "histogram exactness on the fixtures" `Quick
          test_histogram_exactness_on_fixtures;
        Alcotest.test_case "observers leave the summary unchanged" `Quick
          test_obs_on_leaves_summary_unchanged;
        Alcotest.test_case "artifacts identical at jobs 4 vs 1" `Quick
          test_obs_artifacts_jobs_deterministic;
        Alcotest.test_case "request spans stitch by trace id" `Quick
          test_request_spans_stitchable;
        Alcotest.test_case "retained words per span" `Quick test_span_retention;
      ] );
  ]
