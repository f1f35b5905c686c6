(* Background-compilation tests: the queue's deterministic completion
   model (fixed-width FIFO service, exact ready cycles), the engine integration
   (hot-call sites never charge synchronous compile cycles; artifacts
   land at harvest; loop-edge OSR into finished binaries; stale-snapshot
   refusal), the re-specialization drift loop (supersede-at-install), the
   bg fault points, degrade-mode drain/suppression, and --jobs
   byte-identity of the whole report. *)

open Runtime

(* A list sink: [collect evs] records every event in [evs], newest first. *)
let collect evs ev = evs := ev :: !evs

let run ?(cfg = Engine.default_config ~opt:Pipeline.all_on ()) ?(sinks = [])
    ?(span_sinks = []) ?faults src =
  let buf = Buffer.create 64 in
  Builtins.with_print_hook
    (fun s -> Buffer.add_string buf s; Buffer.add_char buf '\n')
    (fun () ->
      let engine = Engine.make ?faults cfg (Bytecode.Compile.program_of_source src) in
      List.iter (Telemetry.attach (Engine.telemetry engine)) sinks;
      List.iter (Telemetry.attach_span (Engine.telemetry engine)) span_sinks;
      let report = Engine.run engine in
      (engine, report, Buffer.contents buf))

let bg_cfg ?policy ?(depth = 8) () =
  Engine.default_config ~opt:Pipeline.all_on ?policy ~bg_compile:true ~bg_queue_depth:depth ()

let total engine name = Telemetry.Counters.total (Telemetry.counters (Engine.telemetry engine)) name

let fn report name =
  List.find (fun (f : Engine.func_report) -> f.Engine.fr_name = name) report.Engine.functions

(* Hot by calls only: 30 toplevel iterations stay under the 40-edge OSR
   threshold, so the one compile in either mode is the call-path compile
   of [f] with the same pipeline — the charges must agree to the cycle. *)
let call_hot_src =
  "function f(x) { return (x * 3 + 1) | 0; }\n\
   var t = 0;\n\
   for (var i = 0; i < 30; i++) t = (t + f(5)) | 0;\n\
   print(t);"

(* Hot loops on both tiers: the toplevel loop (globals only) and a
   local-counter loop inside [work]. Queued OSR compiles keep their
   locals as live loads ([osr_bake_locals] off), so the counter having
   advanced by the ready cycle is the expected case and both loops
   transfer into their finished binaries mid-flight. *)
let loop_src =
  "function work(n, k) {\n\
  \  var s = 0;\n\
  \  for (var i = 0; i < n; i = i + 1) { s = s + i * k; }\n\
  \  return s;\n\
   }\n\
   var total = 0;\n\
   for (var j = 0; j < 60; j = j + 1) { total = total + work(200, 3); }\n\
   print(total);"

(* --- the queue's completion model (unit) ----------------------------- *)

let test_queue_model () =
  Alcotest.(check int) "model width is a fixed constant" 4 Bgcompile.service_width;
  let q = Bgcompile.create ~depth:5 in
  (* Four requests at the same cycle: one per virtual server, none queues. *)
  let costs = [| 50; 30; 40; 20 |] in
  let entries =
    Array.mapi
      (fun i c ->
        Result.get_ok (Bgcompile.enqueue q ~fid:i ~now:100 ~cost:c (string_of_int i)))
      costs
  in
  Array.iteri
    (fun i c ->
      Alcotest.(check int)
        (Printf.sprintf "server %d starts at enqueue" i)
        (100 + c) entries.(i).Bgcompile.e_ready)
    costs;
  (* A fifth request finds the whole crew busy and queues behind the
     earliest-free server (fid 3's, free at 120). *)
  let e5 = Result.get_ok (Bgcompile.enqueue q ~fid:4 ~now:110 ~cost:30 "4") in
  Alcotest.(check int) "FIFO behind the earliest-free server" 150 e5.Bgcompile.e_ready;
  Alcotest.(check int) "five in flight" 5 (Bgcompile.length q);
  (match Bgcompile.enqueue q ~fid:5 ~now:110 ~cost:1 "x" with
  | Error `Overflow -> ()
  | Ok _ -> Alcotest.fail "expected overflow at depth 5");
  (* Not ready yet for fid 0 at cycle 149; ready at 150. *)
  Alcotest.(check int) "not ready early" 0 (List.length (Bgcompile.take_ready q ~fid:0 ~now:149));
  (match Bgcompile.take_ready q ~fid:0 ~now:150 with
  | [ e ] -> Alcotest.(check string) "payload" "0" e.Bgcompile.e_payload
  | l -> Alcotest.fail (Printf.sprintf "expected 1 ready, got %d" (List.length l)));
  (* take_ready is per-fid: the others are untouched. An enqueue after
     the crew went idle starts fresh, and drain returns everything in
     enqueue order. *)
  Alcotest.(check int) "four left" 4 (Bgcompile.length q);
  let e6 = Result.get_ok (Bgcompile.enqueue q ~fid:6 ~now:500 ~cost:10 "5") in
  Alcotest.(check int) "idle again" 510 e6.Bgcompile.e_ready;
  let drained = Bgcompile.drain q in
  Alcotest.(check (list string)) "drain in enqueue order" [ "1"; "2"; "3"; "4"; "5" ]
    (List.map (fun e -> e.Bgcompile.e_payload) drained);
  Alcotest.(check int) "empty after drain" 0 (Bgcompile.length q)

let test_queue_depth_clamped () =
  let q = Bgcompile.create ~depth:0 in
  Alcotest.(check int) "depth clamps to 1" 1 (Bgcompile.depth q)

(* --- the engine's two clocks ----------------------------------------- *)

let test_bg_never_charges_the_model_clock () =
  let _, sync_report, sync_out = run call_hot_src in
  let _, bg_report, bg_out = run ~cfg:(bg_cfg ()) call_hot_src in
  Alcotest.(check string) "same program output" sync_out bg_out;
  Alcotest.(check int) "no synchronous compile cycles" 0 bg_report.Engine.compile_cycles;
  (* Same function, same pipeline, same policy decision — the modeled
     compile work is identical, it just moved off the requester's clock. *)
  Alcotest.(check int) "off-clock charge equals the sync charge"
    sync_report.Engine.compile_cycles bg_report.Engine.bg_compile_cycles;
  Alcotest.(check bool) "the function did compile" true
    ((fn bg_report "f").Engine.fr_compiles >= 1);
  Alcotest.(check int) "sync mode charges nothing off-clock" 0
    sync_report.Engine.bg_compile_cycles

let test_bg_off_is_default () =
  let cfg = Engine.default_config () in
  Alcotest.(check bool) "bg off by default" false cfg.Engine.bg_compile;
  let engine, report, _ = run call_hot_src in
  Alcotest.(check int) "no bg cycles" 0 report.Engine.bg_compile_cycles;
  Alcotest.(check int) "no bg counters" 0 (total engine Telemetry.Key.bg_queued);
  Alcotest.(check int) "nothing in flight" 0 (Engine.bg_in_flight engine)

let test_enqueue_and_ready_events () =
  let evs = ref [] in
  let engine, _, _ = run ~cfg:(bg_cfg ()) ~sinks:[ collect evs ] call_hot_src in
  let events k =
    List.filter (fun e -> Telemetry.event_kind e = k) (List.rev !evs)
  in
  let enqueues = events "compile_enqueue" and readies = events "compile_ready" in
  Alcotest.(check bool) "at least one enqueue" true (List.length enqueues >= 1);
  Alcotest.(check int) "every enqueue eventually installed"
    (List.length enqueues) (List.length readies);
  Alcotest.(check int) "counters agree with the events"
    (List.length readies) (total engine Telemetry.Key.bg_installed);
  Alcotest.(check int) "queue fully drained by the end" 0 (Engine.bg_in_flight engine)

(* --- loop-edge OSR into a finished binary ---------------------------- *)

let test_osr_entry_and_stale_refusal () =
  let engine, report, out = run ~cfg:(bg_cfg ()) loop_src in
  Alcotest.(check string) "result" "3582000\n" out;
  (* Both hot loops — the toplevel one and work's local-counter one —
     transfer into their binaries: locals are live loads on a queued OSR
     path, so the advanced counter matches by construction. *)
  Alcotest.(check int) "both in-flight loops entered their binaries" 2
    (total engine Telemetry.Key.bg_osr_entries);
  Alcotest.(check int) "nothing was stale" 0 (total engine Telemetry.Key.bg_osr_stale);
  Alcotest.(check int) "no synchronous compile cycles" 0 report.Engine.compile_cycles;
  Alcotest.(check bool) "work compiled" true ((fn report "work").Engine.fr_compiles >= 1);
  (* Staleness that remains: a specialized compile bakes the *argument*
     values it saw at the snapshot through the body, so a loop that
     reassigns its own parameter has drifted past the burned-in value by
     the ready cycle and entry must be refused — while the artifact still
     installs and serves later calls through its guarded normal entry. *)
  let churn_src =
    "function churn(n, k) { var s = 0;\n\
    \  for (var i = 0; i < n; i = i + 1) { k = k + 1; s = s + k; }\n\
    \  return s; }\n\
     var total = 0;\n\
     for (var j = 0; j < 3; j = j + 1) { total = total + churn(300, 1); }\n\
     print(total);"
  in
  let engine, report, out = run ~cfg:(bg_cfg ()) churn_src in
  Alcotest.(check string) "churn result" "136350\n" out;
  Alcotest.(check bool) "the drifted baked arg was refused" true
    (total engine Telemetry.Key.bg_osr_stale >= 1);
  Alcotest.(check bool) "the refused artifact still installed" true
    (total engine Telemetry.Key.bg_installed >= 1);
  Alcotest.(check bool) "churn compiled anyway" true
    ((fn report "churn").Engine.fr_compiles >= 1)

let test_osr_entry_events_match_counter () =
  let evs = ref [] in
  let engine, _, _ = run ~cfg:(bg_cfg ()) ~sinks:[ collect evs ] loop_src in
  let entries =
    List.filter (fun e -> Telemetry.event_kind e = "osr_entry") (List.rev !evs)
  in
  Alcotest.(check int) "one Osr_entry event per counted entry"
    (total engine Telemetry.Key.bg_osr_entries)
    (List.length entries)

(* --- overflow and per-function dedupe -------------------------------- *)

let test_queue_overflow_drops () =
  (* Depth 1 with several functions going hot at once: at most one can be
     in flight, so the rest are dropped and counted. *)
  let src =
    "function a(x) { return (x + 1) | 0; }\n\
     function b(x) { return (x + 2) | 0; }\n\
     function c(x) { return (x + 3) | 0; }\n\
     var t = 0;\n\
     for (var i = 0; i < 40; i++) t = (t + a(1) + b(2) + c(3)) | 0;\n\
     print(t);"
  in
  let engine, report, _ = run ~cfg:(bg_cfg ~depth:1 ()) src in
  Alcotest.(check bool) "overflow counted" true (total engine Telemetry.Key.bg_overflow >= 1);
  Alcotest.(check int) "still no synchronous compile cycles" 0 report.Engine.compile_cycles

let test_one_in_flight_per_function () =
  (* A hot function keeps getting called while its request is queued; the
     dedupe admits exactly one entry, so bg.queued counts distinct
     requests, not hot calls. *)
  let engine, _, _ = run ~cfg:(bg_cfg ()) call_hot_src in
  let queued = total engine Telemetry.Key.bg_queued in
  let installed = total engine Telemetry.Key.bg_installed in
  Alcotest.(check int) "every queued request installs exactly once" queued installed

(* --- the re-specialization drift loop -------------------------------- *)

let test_supersede_on_operand_drift () =
  (* Polyvariant: a caller-anticipated values version first (the hot-call
     tier is otherwise a generic catch-all, which never misses), then
     same-tag drift — the miss widens values→tags through the queue; the
     victim keeps serving until its replacement lands, then is detached.
     The [use] toggle keeps f cold until c's binary (and its f(5) call-
     site fact) has landed. *)
  let src =
    "function f(x) { return (x + 1) | 0; }\n\
     var use = 0;\n\
     function c() { if (use == 1) { return f(5); } return 0; }\n\
     var t = 0;\n\
     for (var i = 0; i < 20; i++) t = (t + c()) | 0;\n\
     use = 1;\n\
     for (var i = 0; i < 20; i++) t = (t + c()) | 0;\n\
     for (var i = 0; i < 80; i++) t = (t + f(9)) | 0;\n\
     print(t);"
  in
  let engine, report, out = run ~cfg:(bg_cfg ~policy:Policy.Polyvariant ()) src in
  Alcotest.(check string) "result" "920\n" out;
  Alcotest.(check bool) "a version was superseded" true
    (total engine Telemetry.Key.bg_superseded >= 1);
  Alcotest.(check bool) "the widen was counted" true
    (total engine Telemetry.Key.versions_widened >= 1);
  Alcotest.(check int) "drift never stalled the requester" 0 report.Engine.compile_cycles

(* A request dropped because its function already has one in flight is
   not a decision: promotion and interprocedural seeding count only the
   requests that were compiled or offered to the queue, so each counts the
   same with and without the queue. [f] and [c] are promoted (polyvariant,
   cache 2); [g] is value-specialized on the signature [c]'s binary
   announces. Each stays hot while its queued request is in flight. *)
let test_promotion_and_seeding_counted_once () =
  let src =
    "function f(x) { return (x * 3 + 1) | 0; }\n\
     function g(x) { return (x + 2) | 0; }\n\
     function c() { return g(7); }\n\
     var t = 0;\n\
     for (var i = 0; i < 80; i++) t = (t + f(5)) | 0;\n\
     for (var i = 0; i < 30; i++) t = (t + c()) | 0;\n\
     for (var i = 0; i < 30; i++) t = (t + g(7)) | 0;\n\
     print(t);"
  in
  let counts bg =
    let cfg =
      Engine.default_config ~opt:Pipeline.all_on ~policy:Policy.Polyvariant ~cache_size:2
        ~bg_compile:bg ()
    in
    let engine, _, out = run ~cfg src in
    (out, total engine Telemetry.Key.versions_promoted, total engine Telemetry.Key.interpro_seeded)
  in
  let sync_out, sync_promoted, sync_seeded = counts false in
  let bg_out, bg_promoted, bg_seeded = counts true in
  Alcotest.(check string) "same output" sync_out bg_out;
  Alcotest.(check bool) "promoted" true (sync_promoted >= 1);
  Alcotest.(check bool) "g seeded" true (sync_seeded >= 1);
  Alcotest.(check int) "promotions counted alike" sync_promoted bg_promoted;
  Alcotest.(check int) "seedings counted alike" sync_seeded bg_seeded

(* --- fault points ----------------------------------------------------- *)

(* One fault point fired at its first occurrence under the queue. Every
   point leaves the program output alone, never charges the requester a
   synchronous compile cycle, and closes each flow stitch it opened
   exactly once. Per point: a refused enqueue drops the request; a dropped
   artifact re-enqueues at doubled cost and the redo lands; a compile
   failing at the diagnostics barrier or the code verifier, or a finished
   binary the code cache refuses, is answered at harvest like its
   synchronous twin — reported and quarantined — with the wasted work
   booked off-clock. *)
let test_bg_fault point () =
  let plan = Faults.make ~seed:3 [ (point, Faults.Nth 1) ] in
  let evs = ref [] in
  let spans = ref [] in
  let engine, report, out =
    run ~cfg:(bg_cfg ()) ~faults:plan ~sinks:[ collect evs ]
      ~span_sinks:[ (fun sp -> spans := sp :: !spans) ]
      call_hot_src
  in
  Engine.flush_flows engine;
  Alcotest.(check bool) "the fault fired" true (List.mem_assoc point (Faults.take_fired plan));
  let _, _, sync_out = run call_hot_src in
  Alcotest.(check string) "output unaffected" sync_out out;
  Alcotest.(check int) "no synchronous compile cycles" 0 report.Engine.compile_cycles;
  Alcotest.(check bool) "off-clock work charged" true (report.Engine.bg_compile_cycles > 0);
  let flows ph =
    List.sort compare
      (List.filter_map
         (fun (sp : Telemetry.span) ->
           if sp.Telemetry.sp_ph = ph then Some sp.Telemetry.sp_flow else None)
         !spans)
  in
  let starts = flows Telemetry.Ph_flow_start in
  Alcotest.(check bool) "a flow started" true (starts <> []);
  Alcotest.(check (list int)) "every flow start has exactly one finish" starts
    (flows Telemetry.Ph_flow_finish);
  let events k =
    List.filter (fun e -> Telemetry.event_kind e = k) (List.rev !evs)
  in
  let aborts =
    List.filter_map
      (function Telemetry.Compile_abort { cycles; _ } -> Some cycles | _ -> None)
      (List.rev !evs)
  in
  match point with
  | Faults.Bg_enqueue ->
    (* The function stays interpreted until a later hot call retries. *)
    Alcotest.(check bool) "the drop was counted" true
      (total engine Telemetry.Key.bg_cancelled >= 1)
  | Faults.Bg_install ->
    (* The dropped artifact re-enqueued (a second bg.queued) at doubled
       modeled cost, and the redo landed. *)
    Alcotest.(check bool) "re-enqueued" true (total engine Telemetry.Key.bg_queued >= 2);
    Alcotest.(check bool) "the redo installed" true
      (total engine Telemetry.Key.bg_installed >= 1);
    Alcotest.(check bool) "the drop emitted Compile_cancel" true
      (List.length (events "compile_cancel") >= 1)
  | Faults.Cache_oom ->
    Alcotest.(check int) "no abort: the compile itself succeeded" 0 (List.length aborts);
    Alcotest.(check bool) "the refusal quarantined" true
      (total engine Telemetry.Key.quarantines >= 1);
    Alcotest.(check int) "nothing installed" 0 (total engine Telemetry.Key.bg_installed)
  | _ ->
    Alcotest.(check int) "one Compile_abort" 1 (List.length aborts);
    Alcotest.(check int) "counted" 1 (total engine Telemetry.Key.compiles_aborted);
    Alcotest.(check bool) "the abort wasted cycles" true (List.hd aborts > 0);
    Alcotest.(check bool) "the waste is booked off-clock" true
      (report.Engine.bg_compile_cycles >= List.hd aborts);
    Alcotest.(check int) "nothing installed" 0 (total engine Telemetry.Key.bg_installed)

(* --- degrade drains and suppresses ----------------------------------- *)

let test_degrade_suppresses_the_queue () =
  let buf = Buffer.create 64 in
  let engine, report =
    Builtins.with_print_hook
      (fun s -> Buffer.add_string buf s; Buffer.add_char buf '\n')
      (fun () ->
        let engine =
          Engine.make (bg_cfg ()) (Bytecode.Compile.program_of_source call_hot_src)
        in
        Engine.set_degrade engine true;
        let report = Engine.run engine in
        (engine, report))
  in
  (* Degrade falls back to the synchronous overload semantics: nothing is
     queued and compiles (if any) charge the model clock as before. *)
  Alcotest.(check int) "nothing queued under degrade" 0 (total engine Telemetry.Key.bg_queued);
  Alcotest.(check int) "no off-clock work" 0 report.Engine.bg_compile_cycles;
  Alcotest.(check bool) "the degraded compile was synchronous" true
    (report.Engine.compile_cycles > 0)

let test_degrade_transition_drains_in_flight () =
  (* Make a function hot at the very tail so its request is still in
     flight when the program ends; entering degrade must cancel it. *)
  let src =
    "function f(x) { return (x + 1) | 0; }\n\
     var t = 0;\n\
     for (var i = 0; i < 11; i++) t = (t + f(4)) | 0;\n\
     print(t);"
  in
  let engine, _, _ = run ~cfg:(bg_cfg ()) src in
  Alcotest.(check int) "one request still in flight" 1 (Engine.bg_in_flight engine);
  Engine.set_degrade engine true;
  Alcotest.(check int) "drained on the transition" 0 (Engine.bg_in_flight engine);
  Alcotest.(check int) "the cancel was counted" 1 (total engine Telemetry.Key.bg_cancelled);
  (* Explicit drain (the recycle path) on an empty queue is a no-op. *)
  Alcotest.(check int) "drain_bg after drain" 0 (Engine.drain_bg engine)

(* --- --jobs byte-identity -------------------------------------------- *)

let report_fingerprint (r : Engine.report) =
  ( Value.to_display_string r.Engine.result,
    ( r.Engine.interp_cycles,
      r.Engine.native_cycles,
      r.Engine.compile_cycles,
      r.Engine.bg_compile_cycles,
      r.Engine.total_cycles ),
    r.Engine.bytecode_instrs,
    List.map
      (fun (f : Engine.func_report) -> (f.Engine.fr_name, f.Engine.fr_compiles, f.Engine.fr_sizes))
      r.Engine.functions )

let with_jobs n f =
  let saved = Pool.default_jobs () in
  Pool.set_default_jobs n;
  Fun.protect ~finally:(fun () -> Pool.set_default_jobs saved) f

(* A thunk that raises on a pool domain surfaces at [force], as it does
   inline, instead of leaving the forcing domain awaiting a job that never
   completes. *)
let test_task_raise_reaches_force () =
  with_jobs 2 (fun () ->
      let t = Bgcompile.Task.spawn (fun () -> failwith "boom") in
      Alcotest.check_raises "pool job" (Failure "boom") (fun () ->
          ignore (Bgcompile.Task.force t));
      Alcotest.check_raises "forced again" (Failure "boom") (fun () ->
          ignore (Bgcompile.Task.force t)));
  let t = Bgcompile.Task.spawn ~inline:true (fun () -> failwith "boom") in
  Alcotest.check_raises "inline" (Failure "boom") (fun () -> ignore (Bgcompile.Task.force t))

let test_jobs_determinism () =
  let counters_of engine =
    Telemetry.Counters.rows (Telemetry.counters (Engine.telemetry engine))
  in
  let at_jobs n =
    with_jobs n (fun () ->
        let engine, report, out = run ~cfg:(bg_cfg ~policy:Policy.Polyvariant ()) loop_src in
        (out, report_fingerprint report, counters_of engine))
  in
  let out1, fp1, c1 = at_jobs 1 in
  let out4, fp4, c4 = at_jobs 4 in
  Alcotest.(check string) "output identical across --jobs" out1 out4;
  Alcotest.(check bool) "report identical across --jobs" true (fp1 = fp4);
  Alcotest.(check (list (pair string int))) "every counter identical across --jobs" c1 c4

(* --- the compile-lifecycle golden ----------------------------------- *)

(* One line per cell over the @bg workloads: each policy, cache size {1,2},
   bg off/on, and fault plan (none, or the first occurrence of one compile
   or queue fault), plus selective cells and a cell that toggles degrade
   mode mid-run. A line digests everything the cell makes observable:
   program output and every event ([Telemetry.to_json]), every span
   ([Telemetry.span_to_chrome_json]), the counter rows and the report's
   cycle split. The two counters a re-triggered background request could
   inflate ([versions.promoted], [interpro.seeded]) are printed in clear
   and left out of the counter digest, so a change to them alone is
   readable in a diff.

   The lines must equal [lifecycle_golden.expected]. On a mismatch the test
   writes what it got to [lifecycle_golden.actual] in the build tree; after
   an intended behaviour change, regenerate with
     dune test; cp _build/default/test/lifecycle_golden.actual test/lifecycle_golden.expected *)

let golden_member suite name =
  let s = List.find (fun (s : Suite.t) -> s.Suite.s_name = suite) Suites.all in
  (List.find (fun (m : Suite.member) -> m.Suite.m_name = name) s.Suite.members).Suite.m_source

let golden_workloads =
  lazy
    [
      ("richards", golden_member "V8 version 6" "richards");
      ("deltablue", golden_member "V8 version 6" "deltablue");
      ("web-request", Web.request_source ~seed:7);
      ( "drift",
        "function f(x) { return (x * 3 + 1) | 0; }\n\
         var t = 0;\n\
         for (var i = 0; i < 40; i++) t = (t + f(5)) | 0;\n\
         for (var i = 0; i < 60; i++) t = (t + f(i)) | 0;\n\
         print(t);" );
    ]

(* Prints "degrade" and "recover" mid-loop; the golden's print hook turns
   degrade mode on and off there, with requests in flight. *)
let degrade_src =
  "function f(x) { return (x * 3 + 1) | 0; }\n\
   function g(n) { var s = 0; for (var k = 0; k < n; k++) s = (s + f(k)) | 0; return s; }\n\
   function h(x) { return (x + 7) | 0; }\n\
   function w(x) { return (x * 5) | 0; }\n\
   var t = 0;\n\
   for (var i = 0; i < 60; i++) {\n\
  \  t = (t + g(3)) | 0;\n\
  \  if (i >= 3) t = (t + w(i % 3)) | 0;\n\
  \  if (i == 12) print(\"degrade\");\n\
  \  if (i > 12 && i < 30) t = (t + h(i % 2)) | 0;\n\
  \  if (i == 30) print(\"recover\");\n\
   }\n\
   print(t);"

let golden_faults =
  ("none", [])
  :: List.map
       (fun p -> (Faults.point_to_string p, [ (p, Faults.Nth 1) ]))
       Faults.[ Compile_diag; Code_verify; Cache_oom; Version_widen; Bg_enqueue; Bg_install ]

let golden_cell ?(degrade_on_print = false) cfg src fault =
  let out = Buffer.create 4096 and spans = Buffer.create 4096 in
  let engine = ref None in
  let on_print s =
    Buffer.add_string out s;
    Buffer.add_char out '\n';
    match (!engine, s) with
    | Some e, "degrade" when degrade_on_print -> Engine.set_degrade e true
    | Some e, "recover" when degrade_on_print -> Engine.set_degrade e false
    | _ -> ()
  in
  let span_sink sp =
    Buffer.add_string spans (Telemetry.span_to_chrome_json sp);
    Buffer.add_char spans '\n'
  in
  let e, r =
    Builtins.with_print_hook on_print (fun () ->
        let e =
          Engine.make ~faults:(Faults.make ~seed:1 fault) cfg
            (Bytecode.Compile.program_of_source src)
        in
        engine := Some e;
        Telemetry.attach_span (Engine.telemetry e) span_sink;
        Telemetry.attach (Engine.telemetry e) (fun ev ->
            Buffer.add_string out (Telemetry.to_json ev);
            Buffer.add_char out '\n');
        let r = Engine.run e in
        Engine.flush_flows e;
        (e, r))
  in
  let rows = Telemetry.Counters.rows (Telemetry.counters (Engine.telemetry e)) in
  let get k = Option.value ~default:0 (List.assoc_opt k rows) in
  let loud = Telemetry.Key.[ versions_promoted; interpro_seeded ] in
  let counters =
    String.concat "\n"
      (List.filter_map
         (fun (k, v) -> if List.mem k loud then None else Some (Printf.sprintf "%s=%d" k v))
         rows)
  in
  let hex s = String.sub (Digest.to_hex (Digest.string s)) 0 12 in
  Printf.sprintf "ev=%s sp=%s ctr=%s cyc=%d/%d/%d/%d/%d promoted=%d seeded=%d"
    (hex (Buffer.contents out)) (hex (Buffer.contents spans)) (hex counters)
    r.Engine.interp_cycles r.Engine.native_cycles r.Engine.compile_cycles
    r.Engine.bg_compile_cycles r.Engine.total_cycles
    (get Telemetry.Key.versions_promoted) (get Telemetry.Key.interpro_seeded)

let golden_lines () =
  let cfg ?(selective = false) ~policy ~cache ~bg () =
    Engine.default_config ~opt:Pipeline.all_on ~policy ~cache_size:cache ~selective
      ~bg_compile:bg ~bg_queue_depth:8 ()
  in
  let policies = [ ("paper", Policy.Paper); ("polyvariant", Policy.Polyvariant) ] in
  let lines = ref [] in
  let line label digest = lines := Printf.sprintf "%-50s %s" label digest :: !lines in
  List.iter
    (fun (wname, src) ->
      List.iter
        (fun (pname, policy) ->
          List.iter
            (fun cache ->
              List.iter
                (fun bg ->
                  List.iter
                    (fun (fname, fault) ->
                      line
                        (Printf.sprintf "%s %s c%d bg=%s %s" wname pname cache
                           (if bg then "on" else "off") fname)
                        (golden_cell (cfg ~policy ~cache ~bg ()) src fault))
                    golden_faults)
                [ false; true ])
            [ 1; 2 ])
        policies)
    (Lazy.force golden_workloads);
  let drift = List.assoc "drift" (Lazy.force golden_workloads) in
  List.iter
    (fun bg ->
      line
        (Printf.sprintf "drift paper c1 selective bg=%s" (if bg then "on" else "off"))
        (golden_cell (cfg ~selective:true ~policy:Policy.Paper ~cache:1 ~bg ()) drift []))
    [ false; true ];
  line "degrade-toggle polyvariant c2 bg=on"
    (golden_cell ~degrade_on_print:true
       (cfg ~policy:Policy.Polyvariant ~cache:2 ~bg:true ())
       degrade_src []);
  List.rev !lines

(* The expected file sits beside the test binary (dune copies it there),
   so the test reads the same file from any working directory. *)
let test_lifecycle_golden () =
  let beside name = Filename.concat (Filename.dirname Sys.executable_name) name in
  let expected_file = beside "lifecycle_golden.expected" in
  if not (Sys.file_exists expected_file) then
    Alcotest.failf "expected file not found: %s" expected_file;
  let expected =
    In_channel.with_open_text expected_file In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  let got = golden_lines () in
  if got <> expected then begin
    let actual_file = beside "lifecycle_golden.actual" in
    Out_channel.with_open_text actual_file (fun oc ->
        List.iter (fun l -> output_string oc (l ^ "\n")) got);
    let differing =
      List.filter (fun l -> not (List.mem l expected)) got
    in
    Alcotest.failf "lifecycle golden drifted in %d of %d cells (first: %s); see %s"
      (List.length differing) (List.length got)
      (match differing with l :: _ -> l | [] -> "cell count changed")
      actual_file
  end

let suites =
  [
    ( "bgcompile",
      [
        Alcotest.test_case "queue completion model" `Quick test_queue_model;
        Alcotest.test_case "depth clamped" `Quick test_queue_depth_clamped;
        Alcotest.test_case "bg never charges the model clock" `Quick
          test_bg_never_charges_the_model_clock;
        Alcotest.test_case "bg off is the default" `Quick test_bg_off_is_default;
        Alcotest.test_case "enqueue/ready events" `Quick test_enqueue_and_ready_events;
        Alcotest.test_case "OSR entry and stale refusal" `Quick
          test_osr_entry_and_stale_refusal;
        Alcotest.test_case "OSR events match counter" `Quick
          test_osr_entry_events_match_counter;
        Alcotest.test_case "queue overflow drops" `Quick test_queue_overflow_drops;
        Alcotest.test_case "one in flight per function" `Quick
          test_one_in_flight_per_function;
        Alcotest.test_case "supersede on operand drift" `Quick
          test_supersede_on_operand_drift;
        Alcotest.test_case "promotion and seeding counted once" `Quick
          test_promotion_and_seeding_counted_once;
        Alcotest.test_case "bg_enqueue fault drops" `Quick (test_bg_fault Faults.Bg_enqueue);
        Alcotest.test_case "bg_install fault re-enqueues" `Quick
          (test_bg_fault Faults.Bg_install);
        Alcotest.test_case "bg compile_diag aborts" `Quick (test_bg_fault Faults.Compile_diag);
        Alcotest.test_case "bg code_verify aborts" `Quick (test_bg_fault Faults.Code_verify);
        Alcotest.test_case "bg cache_oom quarantines" `Quick (test_bg_fault Faults.Cache_oom);
        Alcotest.test_case "degrade suppresses the queue" `Quick
          test_degrade_suppresses_the_queue;
        Alcotest.test_case "degrade transition drains" `Quick
          test_degrade_transition_drains_in_flight;
        Alcotest.test_case "--jobs byte-identity" `Quick test_jobs_determinism;
        Alcotest.test_case "a raising task re-raises at force" `Quick
          test_task_raise_reaches_force;
        Alcotest.test_case "compile-lifecycle golden" `Quick test_lifecycle_golden;
      ] );
  ]
