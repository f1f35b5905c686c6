(* Failure-domain tests: the deterministic fault-injection layer itself,
   compile-abort containment (the barrier that keeps [Diag.Failed] from
   escaping [Engine.run]), quarantine with exponential backoff and pinning,
   injected guard failures on the entry and in-body paths, the deopt-storm
   detector, the code-cache byte budget with cross-function LRU eviction,
   the call-depth limit, and the two meta-invariants: disabled faults are
   cycle-invisible, and any fault schedule still yields the interpreter's
   output (the chaos differential). *)

open Runtime

(* A list sink: [collect evs] records every event in [evs], newest first. *)
let collect evs ev = evs := ev :: !evs

(* Run a source program on an explicit engine, capturing prints, with
   optional list sinks for event inspection. *)
let run ?(cfg = Engine.default_config ()) ?(sinks = []) ?diag ?faults src =
  let buf = Buffer.create 64 in
  Builtins.with_print_hook
    (fun s -> Buffer.add_string buf s; Buffer.add_char buf '\n')
    (fun () ->
      let engine = Engine.make ?diag ?faults cfg (Bytecode.Compile.program_of_source src) in
      List.iter (Telemetry.attach (Engine.telemetry engine)) sinks;
      let report = Engine.run engine in
      (engine, report, Buffer.contents buf))

let interp_out src =
  let _, _, out = run ~cfg:Engine.interp_only src in
  out

let fn report name =
  List.find (fun (f : Engine.func_report) -> f.Engine.fr_name = name) report.Engine.functions

let counter engine report name key =
  Telemetry.Counters.get
    (Telemetry.counters (Engine.telemetry engine))
    ~fid:(fn report name).Engine.fr_fid key

let events_of evs name =
  List.filter (fun e -> Telemetry.event_fname e = name) (List.rev !evs)

let kinds events = List.map Telemetry.event_kind events

(* Guards survive in PS-only pipelines (the full pipeline constant-folds
   checks whose inputs are all burned in). *)
let ps_only = Pipeline.make ~ps:true "PS-only"

(* A function hot enough to compile under the default thresholds, called
   [n] times from a loop kept under the OSR threshold per 39 iterations
   would be; callers pick [n] to exercise a quarantine schedule. *)
let hot_src n =
  Printf.sprintf
    "function f(x) { return (x * 3 + 1) | 0; }\n\
     var t = 0;\n\
     for (var k = 0; k < %d; k++) t = (t + f(5)) | 0;\n\
     print(t);"
    n

(* ------------------------------------------------------------------ *)
(* The plan mechanics                                                  *)
(* ------------------------------------------------------------------ *)

let test_plan_mechanics () =
  Alcotest.(check bool) "the empty plan never fires" false
    (Faults.fire Faults.none Faults.Compile_diag);
  let spec = [ (Faults.Compile_diag, Faults.Nth 2); (Faults.Exec_guard, Faults.Every 3) ] in
  let fire_seq point n =
    let plan = Faults.make ~seed:7 spec in
    List.init n (fun _ -> Faults.fire plan point)
  in
  Alcotest.(check (list bool)) "nth(2) fires exactly once"
    [ false; true; false; false; false ]
    (fire_seq Faults.Compile_diag 5);
  Alcotest.(check (list bool)) "every(3) fires at each multiple"
    [ false; false; true; false; false; true; false ]
    (fire_seq Faults.Exec_guard 7);
  (* A plan made again from the same spec replays identically. *)
  Alcotest.(check (list bool)) "replay is identical"
    [ false; true; false; false; false ]
    (fire_seq Faults.Compile_diag 5);
  let plan = Faults.make ~seed:7 spec in
  Alcotest.(check bool) "unruled point never fires" false (Faults.fire plan Faults.Cache_oom);
  ignore (List.init 7 (fun _ -> Faults.fire plan Faults.Exec_guard));
  Alcotest.(check (list (pair string int)))
    "the plan counts its fires" [ ("exec_guard", 2) ]
    (List.map (fun (p, n) -> (Faults.point_to_string p, n)) (Faults.take_fired plan));
  Alcotest.(check int) "taking resets the count" 0 (List.length (Faults.take_fired plan));
  Alcotest.(check int) "the empty plan counts nothing" 0
    (List.length (Faults.take_fired Faults.none))

let test_sample_deterministic () =
  for seed = 0 to 19 do
    Alcotest.(check string)
      (Printf.sprintf "sample %d replays" seed)
      (Faults.describe (Faults.sample seed))
      (Faults.describe (Faults.sample seed))
  done;
  (* Probabilistic rules draw from the plan's own seeded PRNG, so even
     they replay exactly. *)
  let draw () =
    let plan = Faults.make ~seed:11 [ (Faults.Exec_guard, Faults.Prob 0.5) ] in
    List.init 40 (fun _ -> Faults.fire plan Faults.Exec_guard)
  in
  let first = draw () in
  Alcotest.(check (list bool)) "prob schedule replays" first (draw ());
  Alcotest.(check bool) "prob actually varies" true
    (List.mem true first && List.mem false first)

(* ------------------------------------------------------------------ *)
(* Compile-abort containment and the backoff schedule                  *)
(* ------------------------------------------------------------------ *)

let test_compile_abort_retries () =
  (* One injected abort at the first compile (call 10): the wasted cycles
     are charged, the function is quarantined for hot_calls * 2 = 20
     calls, and the retry at call 30 succeeds. *)
  let evs = ref [] in
  let src = hot_src 35 in
  let plan = Faults.make ~seed:1 [ (Faults.Compile_diag, Faults.Nth 1) ] in
  let engine, report, out =
    run ~faults:plan ~sinks:[ collect evs ] src
  in
  Alcotest.(check string) "output matches the interpreter" (interp_out src) out;
  let get = counter engine report "f" in
  Alcotest.(check int) "one aborted compile" 1 (get Telemetry.Key.compiles_aborted);
  Alcotest.(check int) "one quarantine" 1 (get Telemetry.Key.quarantines);
  Alcotest.(check int) "not pinned" 0 (get Telemetry.Key.pins);
  Alcotest.(check int) "the retry succeeded" 1 (get Telemetry.Key.compiles);
  (match events_of evs "f" with
  | Telemetry.Compile_start _
    :: Telemetry.Compile_abort { reason; cycles; osr = false; _ }
    :: Telemetry.Quarantine
         { reason = Telemetry.Compile_fault; backoff_calls = 20; permanent = false; _ }
    :: rest ->
    Alcotest.(check bool) "abort names the injected fault" true
      (reason = "injected compile_diag fault");
    Alcotest.(check bool) "wasted optimizer cycles charged" true (cycles > 0);
    Alcotest.(check bool) "recompiled after backoff" true
      (List.mem "compile_end" (kinds rest))
  | es ->
    Alcotest.fail
      ("expected abort then quarantine, got: " ^ String.concat "," (kinds es)));
  (* The wasted work shows up in the cycle ledger. *)
  let _, clean, _ = run src in
  Alcotest.(check bool) "abort charged compile cycles" true
    (report.Engine.compile_cycles > clean.Engine.compile_cycles)

let test_code_verify_abort () =
  (* Same containment, but the fault lands after the backend (the binary
     is rejected at the LIR verifier) — the backend's cycles are charged
     too. *)
  let src = hot_src 35 in
  let plan = Faults.make ~seed:1 [ (Faults.Code_verify, Faults.Nth 1) ] in
  let engine, report, out = run ~faults:plan src in
  Alcotest.(check string) "output matches the interpreter" (interp_out src) out;
  let get = counter engine report "f" in
  Alcotest.(check int) "one aborted compile" 1 (get Telemetry.Key.compiles_aborted);
  Alcotest.(check int) "the retry succeeded" 1 (get Telemetry.Key.compiles)

let test_poisoned_pass_pins () =
  (* Regression for the containment barrier itself: a pipeline stage that
     rejects every graph (here via mir_hook raising a Diag) previously let
     [Diag.Failed] escape [Engine.run] on the mid-run recompile. Now every
     attempt aborts, the backoff schedule runs its course — with hot_calls
     = 2, attempts at calls 2, 6, 14 and 30 — and the fourth failure pins
     the function to the interpreter for good. *)
  let cfg = { (Engine.default_config ()) with Engine.hot_calls = 2 } in
  let src = hot_src 35 in
  let aborted = ref 0 in
  let engine, report, out =
    Engine.with_mir_hook
      (fun _ -> Diag.error ~layer:"mir" ~pass:"poisoned" "synthetic pass corruption")
      (fun () -> run ~cfg ~diag:(fun d -> if Diag.is_error d then incr aborted) src)
  in
  Alcotest.(check string) "completes with the interpreter's answer" (interp_out src) out;
  let get = counter engine report "f" in
  Alcotest.(check int) "attempts at calls 2/6/14/30" 4 (get Telemetry.Key.compiles_aborted);
  Alcotest.(check int) "three backoff quarantines" 3 (get Telemetry.Key.quarantines);
  Alcotest.(check int) "then pinned" 1 (get Telemetry.Key.pins);
  Alcotest.(check int) "never compiled" 0 (get Telemetry.Key.compiles);
  Alcotest.(check bool) "aborts reached the diagnostic sink" true (!aborted >= 4)

(* ------------------------------------------------------------------ *)
(* Injected guard failures: entry vs in-body                           *)
(* ------------------------------------------------------------------ *)

let test_exec_fault_entry_guard () =
  (* A selectively specialized binary carries an entry type barrier for
     its unburned (value-unstable) argument. Forcing that passing barrier
     replays the §4 deoptimization path — entry bail at pc 0, deopt — on
     arguments that actually match, and selective mode narrows and
     respecializes instead of blacklisting. *)
  let cfg = Engine.default_config ~opt:Pipeline.all_on ~selective:true () in
  let src =
    "function g(a, b) { return (a * 10 + b) | 0; }\n\
     var t = 0;\n\
     for (var k = 0; k < 30; k++) t = (t + g(5, k % 7)) | 0;\n\
     print(t);"
  in
  let evs = ref [] in
  let plan = Faults.make ~seed:1 [ (Faults.Exec_guard, Faults.Nth 1) ] in
  let engine, report, out =
    run ~faults:plan ~cfg ~sinks:[ collect evs ] src
  in
  Alcotest.(check string) "output matches the interpreter" (interp_out src) out;
  let get = counter engine report "g" in
  Alcotest.(check int) "one entry bailout" 1 (get Telemetry.Key.bailouts_entry);
  Alcotest.(check int) "counted as a §4 deopt" 1 (get Telemetry.Key.deopts);
  Alcotest.(check int) "narrowed, not blacklisted" 0 (get Telemetry.Key.blacklists);
  Alcotest.(check int) "respecialized once" 2 (get Telemetry.Key.compiles);
  match
    List.filter (function Telemetry.Bailout _ -> true | _ -> false) (events_of evs "g")
  with
  | [ Telemetry.Bailout { pc = 0; strikes = 0; osr_entry = false; _ } ] -> ()
  | _ -> Alcotest.fail "expected exactly one entry bailout at pc 0"

(* In-body guard coverage wants a binary whose guards resume mid-function:
   a PS-specialized body burns the argument in, so the surviving guard on
   the global index resumes past pc 0 (a generic binary's first guard would
   resume at 0 and read as an entry bail). *)
let guarded_src n =
  Printf.sprintf
    "var idx = 1;\n\
     function f(s) { return s[idx]; }\n\
     var a = [1, 2, 3];\n\
     var t = 0;\n\
     var i = 0;\n\
     while (i < %d) { t = (t + f(a)) | 0; i = i + 1; }\n\
     print(t);"
    n

let test_exec_fault_in_body () =
  (* One forced in-body guard failure: a strike against the binary, which
     survives (max_bailouts = 3) and keeps serving the remaining calls. *)
  let cfg = Engine.default_config ~opt:ps_only () in
  let src = guarded_src 30 in
  let evs = ref [] in
  let plan = Faults.make ~seed:1 [ (Faults.Exec_guard, Faults.Nth 1) ] in
  let engine, report, out =
    run ~faults:plan ~cfg ~sinks:[ collect evs ] src
  in
  Alcotest.(check string) "output matches the interpreter" (interp_out src) out;
  let get = counter engine report "f" in
  Alcotest.(check int) "one in-body bailout" 1 (get Telemetry.Key.bailouts);
  Alcotest.(check int) "not an entry bail" 0 (get Telemetry.Key.bailouts_entry);
  Alcotest.(check int) "no discard below the strike limit" 0
    (get Telemetry.Key.strike_discards);
  Alcotest.(check int) "no deopt, no recompile" 1 (get Telemetry.Key.compiles);
  match
    List.filter (function Telemetry.Bailout _ -> true | _ -> false) (events_of evs "f")
  with
  | [ Telemetry.Bailout { pc; strikes = 1; osr_entry = false; _ } ] ->
    Alcotest.(check bool) "bailed mid-body" true (pc > 0)
  | _ -> Alcotest.fail "expected exactly one in-body bailout"

let test_storm_detector () =
  (* Every passing guard forced to fail: each native call bails in-body,
     every third bail strikes the binary out, and the eighth discard trips
     the storm detector into a quarantine with the usual backoff. The full
     deterministic schedule over 100 calls (hot at 10): native spans
     10..33 and 53..76, two storms, 20-then-40-call backoffs. *)
  let cfg = Engine.default_config ~opt:ps_only () in
  let src = guarded_src 100 in
  let plan = Faults.make ~seed:1 [ (Faults.Exec_guard, Faults.Every 1) ] in
  let engine, report, out = run ~faults:plan ~cfg src in
  Alcotest.(check string) "output matches the interpreter" (interp_out src) out;
  let get = counter engine report "f" in
  Alcotest.(check int) "two storms" 2 (get Telemetry.Key.storms);
  Alcotest.(check int) "each storm quarantined" 2 (get Telemetry.Key.quarantines);
  Alcotest.(check int) "never pinned" 0 (get Telemetry.Key.pins);
  Alcotest.(check int) "three strikes per discard" (get Telemetry.Key.bailouts)
    (3 * get Telemetry.Key.strike_discards);
  Alcotest.(check int) "48 native attempts, all bailed" 48 (get Telemetry.Key.bailouts);
  Alcotest.(check int) "a compile per discarded binary" 16 (get Telemetry.Key.compiles)

(* ------------------------------------------------------------------ *)
(* The code-cache byte budget                                          *)
(* ------------------------------------------------------------------ *)

(* Two small functions whose binaries both fit the cache alone but not
   together; loops stay under the OSR threshold so main never compiles. *)
let two_func_src =
  "function f(x) { return (x + 1) | 0; }\n\
   function g(x) { return (x + 2) | 0; }\n\
   var t = 0;\n\
   for (var k = 0; k < 12; k++) t = (t + f(k)) | 0;\n\
   for (var k = 0; k < 12; k++) t = (t + g(k)) | 0;\n\
   for (var k = 0; k < 12; k++) t = (t + f(k)) | 0;\n\
   print(t);"

let native_bytes report name =
  match (fn report name).Engine.fr_sizes with
  | (_, size) :: _ -> size * Cost.bytes_per_native_instr
  | [] -> Alcotest.fail (name ^ " never compiled")

let test_cache_budget_lru_eviction () =
  (* Size the budget from an unbounded run: room for the larger of the two
     binaries, but never both. g's admission then evicts f (the LRU
     binary), and f's return evicts g — pure capacity decisions, with no
     deopt, blacklist or quarantine accounting. *)
  let _, unbounded, expected = run two_func_src in
  let budget = max (native_bytes unbounded "f") (native_bytes unbounded "g") in
  let cfg = Engine.default_config ~code_cache_bytes:budget () in
  let evs = ref [] in
  let engine, report, out = run ~cfg ~sinks:[ collect evs ] two_func_src in
  Alcotest.(check string) "same output under the budget" expected out;
  let get name = counter engine report name in
  Alcotest.(check int) "f evicted once, then g" 1 (get "f" Telemetry.Key.cache_evictions);
  Alcotest.(check int) "g evicted by f's return" 1 (get "g" Telemetry.Key.cache_evictions);
  Alcotest.(check int) "f recompiled after eviction" 2 (get "f" Telemetry.Key.compiles);
  Alcotest.(check int) "g compiled once" 1 (get "g" Telemetry.Key.compiles);
  List.iter
    (fun name ->
      Alcotest.(check int) (name ^ ": eviction is not a deopt") 0
        (get name Telemetry.Key.deopts);
      Alcotest.(check int) (name ^ ": eviction is not a quarantine") 0
        (get name Telemetry.Key.quarantines))
    [ "f"; "g" ];
  match
    List.filter
      (function Telemetry.Cache_evict _ -> true | _ -> false)
      (List.rev !evs)
  with
  | [ Telemetry.Cache_evict { bytes = b1; _ }; Telemetry.Cache_evict { bytes = b2; _ } ]
    ->
    Alcotest.(check bool) "evictions reclaim real bytes" true (b1 > 0 && b2 > 0)
  | es -> Alcotest.fail (Printf.sprintf "expected 2 eviction events, got %d" (List.length es))

let test_cache_budget_oversized_binary_pins () =
  (* A budget smaller than any single binary: every admission fails, the
     backoff schedule runs (attempts at calls 10, 30, 70, 150) and the
     fourth failure pins the function; the program still completes on the
     interpreter. *)
  let src = hot_src 160 in
  let cfg =
    { (Engine.default_config ~code_cache_bytes:1 ()) with Engine.hot_loop_edges = 1000 }
  in
  let engine, report, out = run ~cfg src in
  Alcotest.(check string) "completes on the interpreter" (interp_out src) out;
  let get = counter engine report "f" in
  Alcotest.(check int) "four admission attempts" 4 (get Telemetry.Key.compiles);
  Alcotest.(check int) "three backoff quarantines" 3 (get Telemetry.Key.quarantines);
  Alcotest.(check int) "then pinned" 1 (get Telemetry.Key.pins);
  Alcotest.(check int) "nothing ever admitted, nothing evicted" 0
    (get Telemetry.Key.cache_evictions)

let test_cache_oom_fault () =
  (* The injected flavour: admission reports an exhausted cache once on an
     unbounded budget; the function quarantines and the retry admits. *)
  let src = hot_src 35 in
  let plan = Faults.make ~seed:1 [ (Faults.Cache_oom, Faults.Nth 1) ] in
  let engine, report, out = run ~faults:plan src in
  Alcotest.(check string) "output matches the interpreter" (interp_out src) out;
  let get = counter engine report "f" in
  Alcotest.(check int) "compiled at calls 10 and 30" 2 (get Telemetry.Key.compiles);
  Alcotest.(check int) "one quarantine" 1 (get Telemetry.Key.quarantines);
  Alcotest.(check int) "no real eviction happened" 0 (get Telemetry.Key.cache_evictions)

(* ------------------------------------------------------------------ *)
(* The call-depth limit                                                *)
(* ------------------------------------------------------------------ *)

let rec_src = "function r(n) { if (n < 1) return 0; return r(n - 1); }\nprint(r(50));"

let test_depth_limit_engine () =
  Alcotest.check_raises "depth 20 overflows" (Engine.Runtime_error "stack overflow")
    (fun () -> ignore (run ~cfg:(Engine.default_config ~max_depth:20 ()) rec_src));
  let _, _, out = run ~cfg:(Engine.default_config ~max_depth:100 ()) rec_src in
  Alcotest.(check string) "depth 100 suffices" "0\n" out

let test_depth_limit_interp () =
  Alcotest.check_raises "interpreter tier honours the limit"
    (Engine.Runtime_error "stack overflow") (fun () ->
      ignore (run ~cfg:{ Engine.interp_only with Engine.max_depth = 20 } rec_src))

let test_unbounded_recursion_is_runtime_error () =
  (* Regression: runaway recursion used to die as an OCaml [Stack_overflow]
     crash; the default depth limit turns it into the MiniJS-level error. *)
  Alcotest.check_raises "runaway recursion" (Engine.Runtime_error "stack overflow")
    (fun () -> ignore (run "function r(n) { return r(n + 1); }\nr(0);"))

(* ------------------------------------------------------------------ *)
(* Meta-invariants                                                     *)
(* ------------------------------------------------------------------ *)

let test_disabled_faults_cost_nothing () =
  (* The whole layer must be invisible to the paper's measurements: no
     plan, an empty plan, and a plan that never fires must all produce
     bit-identical outputs and cycle ledgers. *)
  let src =
    "var idx = 1;\n\
     function f(s) { return s[idx]; }\n\
     var a = [1, 2, 3];\n\
     var t = 0;\n\
     for (var k = 0; k < 25; k++) t = (t + f(a)) | 0;\n\
     idx = 99;\n\
     f(a);\n\
     print(t);"
  in
  let cfg = Engine.default_config ~opt:ps_only () in
  let _, bare, out_bare = run ~cfg src in
  let _, empty, out_empty =
    run ~faults:(Faults.make ~seed:3 []) ~cfg src
  in
  let dormant_plan =
    Faults.make ~seed:3
      [
        (Faults.Compile_diag, Faults.Nth 1_000_000);
        (Faults.Code_verify, Faults.Nth 1_000_000);
        (Faults.Exec_guard, Faults.Nth 1_000_000);
        (Faults.Cache_oom, Faults.Nth 1_000_000);
      ]
  in
  let _, dormant, out_dormant = run ~faults:dormant_plan ~cfg src in
  List.iter
    (fun (label, (r : Engine.report), out) ->
      Alcotest.(check string) (label ^ ": same output") out_bare out;
      Alcotest.(check int) (label ^ ": same total cycles") bare.Engine.total_cycles
        r.Engine.total_cycles;
      Alcotest.(check int) (label ^ ": same interp cycles") bare.Engine.interp_cycles
        r.Engine.interp_cycles;
      Alcotest.(check int) (label ^ ": same native cycles") bare.Engine.native_cycles
        r.Engine.native_cycles;
      Alcotest.(check int) (label ^ ": same compile cycles") bare.Engine.compile_cycles
        r.Engine.compile_cycles)
    [ ("empty plan", empty, out_empty); ("dormant plan", dormant, out_dormant) ]

let test_chaos_differential_smoke () =
  (* A slice of the @chaos CI gate inside the unit suite: generated
     programs under sampled fault plans must match the fault-free
     interpreter in every configuration. *)
  for seed = 0 to 7 do
    let src = Fuzz_gen.any_program (Random.State.make [| seed |]) in
    match Fuzz_diff.check_chaos ~seed src with
    | None -> ()
    | Some (Fuzz_diff.Mismatch m) ->
      Alcotest.fail
        (Printf.sprintf "seed %d: %s diverged: %S vs %S" seed m.Fuzz_diff.mm_config
           m.Fuzz_diff.mm_expected m.Fuzz_diff.mm_got)
    | Some (Fuzz_diff.Verifier_diag { vd_config; vd_diag }) ->
      Alcotest.fail
        (Printf.sprintf "seed %d: %s verifier: %s" seed vd_config
           (Diag.to_string vd_diag))
  done

let suites =
  [
    ( "faults.plan",
      [
        Alcotest.test_case "fire mechanics" `Quick test_plan_mechanics;
        Alcotest.test_case "sampling is deterministic" `Quick test_sample_deterministic;
      ] );
    ( "faults.compile",
      [
        Alcotest.test_case "abort, backoff, retry" `Quick test_compile_abort_retries;
        Alcotest.test_case "code-verify abort" `Quick test_code_verify_abort;
        Alcotest.test_case "poisoned pass pins (regression)" `Quick
          test_poisoned_pass_pins;
      ] );
    ( "faults.exec",
      [
        Alcotest.test_case "forced entry-guard bail" `Quick test_exec_fault_entry_guard;
        Alcotest.test_case "forced in-body bail" `Quick test_exec_fault_in_body;
        Alcotest.test_case "deopt-storm detector" `Quick test_storm_detector;
      ] );
    ( "faults.cache",
      [
        Alcotest.test_case "LRU eviction under a byte budget" `Quick
          test_cache_budget_lru_eviction;
        Alcotest.test_case "oversized binary pins" `Quick
          test_cache_budget_oversized_binary_pins;
        Alcotest.test_case "injected admission failure" `Quick test_cache_oom_fault;
      ] );
    ( "faults.depth",
      [
        Alcotest.test_case "engine depth limit" `Quick test_depth_limit_engine;
        Alcotest.test_case "interpreter depth limit" `Quick test_depth_limit_interp;
        Alcotest.test_case "runaway recursion (regression)" `Quick
          test_unbounded_recursion_is_runtime_error;
      ] );
    ( "faults.invariance",
      [
        Alcotest.test_case "disabled faults are cycle-invisible" `Quick
          test_disabled_faults_cost_nothing;
        Alcotest.test_case "chaos differential smoke" `Quick
          test_chaos_differential_smoke;
      ] );
  ]
