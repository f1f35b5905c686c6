(* Profiler tests: the exact-attribution contract (per-origin cycle cells
   sum to precisely the engine report's totals, per tier), the
   byte-identical-when-off contract, span nesting well-formedness, and
   determinism of the folded flamegraph rendering across runs and across
   pool job counts. *)

let fib_src =
  "function fib(n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }\n\
   var i = 0; while (i < 30) { fib(10); i = i + 1; } print(fib(12));"

let loop_src =
  "function sum(a, n) { var s = 0; var i = 0; while (i < n) { s = s + a[i]; i = i + 1; } \
   return s; }\n\
   var a = [1, 2, 3, 4, 5, 6, 7, 8];\n\
   var j = 0; var t = 0; while (j < 60) { t = t + sum(a, 8); j = j + 1; } print(t);"

(* Run [src] under [cfg] with a fresh recorder attached to its engine;
   returns the recorder, the report, and everything the program
   printed. *)
let run_recorded ?(cfg = Engine.default_config ~opt:Pipeline.all_on ()) src =
  let buf = Buffer.create 64 in
  Runtime.Builtins.with_print_hook
    (fun s ->
      Buffer.add_string buf s;
      Buffer.add_char buf '\n')
    (fun () ->
      let program = Bytecode.Compile.program_of_source src in
      let r = Profile.Recorder.create ~program in
      let engine = Engine.make cfg program in
      Engine.attach_profile engine r;
      let report = Engine.run engine in
      (r, report, Buffer.contents buf))

let run_plain ?(cfg = Engine.default_config ~opt:Pipeline.all_on ()) src =
  let buf = Buffer.create 64 in
  Runtime.Builtins.with_print_hook
    (fun s ->
      Buffer.add_string buf s;
      Buffer.add_char buf '\n')
    (fun () ->
      let report = Engine.run_source cfg src in
      (report, Buffer.contents buf))

(* ------------------------------------------------------------------ *)
(* Exact attribution                                                   *)
(* ------------------------------------------------------------------ *)

let check_exact cfg name src =
  let r, report, _ = run_recorded ~cfg src in
  Alcotest.(check int)
    (name ^ ": attributed = total")
    report.Engine.total_cycles
    (Profile.Recorder.total_cycles r);
  Alcotest.(check int)
    (name ^ ": interp tier exact")
    report.Engine.interp_cycles
    (Profile.Recorder.tier_cycles r Profile.T_interp);
  Alcotest.(check int)
    (name ^ ": native tiers exact")
    report.Engine.native_cycles
    (Profile.Recorder.tier_cycles r Profile.T_native_gen
    + Profile.Recorder.tier_cycles r Profile.T_native_spec);
  Alcotest.(check int)
    (name ^ ": compile tier exact")
    report.Engine.compile_cycles
    (Profile.Recorder.tier_cycles r Profile.T_compile)

let test_exact_sum () =
  List.iter
    (fun src ->
      check_exact (Engine.default_config ~opt:Pipeline.all_on ()) "spec" src;
      check_exact (Engine.default_config ()) "baseline" src;
      check_exact Engine.interp_only "interp-only" src)
    [ fib_src; loop_src ]

let test_exact_sum_selective () =
  (* Mixed-stability arguments: deopts, recompiles and the selective
     narrowing path all stay exactly attributed. *)
  let src =
    "function f(a, b) { return a * 10 + b; }\n\
     var i = 0; var t = 0; while (i < 40) { t = t + f(3, i % 4); i = i + 1; } print(t);"
  in
  check_exact
    (Engine.default_config ~opt:Pipeline.all_on ~selective:true ())
    "selective" src;
  check_exact (Engine.default_config ~opt:Pipeline.all_on ~cache_size:3 ()) "3-entry" src

let test_rows_consistent () =
  let r, report, _ = run_recorded fib_src in
  let rows = Profile.Recorder.rows r in
  Alcotest.(check int)
    "rows sum to total" report.Engine.total_cycles
    (List.fold_left (fun acc (row : Profile.row) -> acc + row.Profile.r_cycles) 0 rows);
  List.iter
    (fun (row : Profile.row) ->
      Alcotest.(check bool) "positive cycles" true (row.Profile.r_cycles > 0);
      Alcotest.(check bool) "positive count" true (row.Profile.r_count > 0))
    rows;
  let summaries = Profile.Recorder.by_function r in
  Alcotest.(check int)
    "function summaries sum to total" report.Engine.total_cycles
    (List.fold_left
       (fun acc (s : Profile.Recorder.func_summary) -> acc + s.Profile.Recorder.fs_total)
       0 summaries)

(* ------------------------------------------------------------------ *)
(* Profiling off: byte-identical                                       *)
(* ------------------------------------------------------------------ *)

let test_off_identical () =
  List.iter
    (fun src ->
      let plain_report, plain_out = run_plain src in
      let _, recorded_report, recorded_out = run_recorded src in
      (* A second plain run after the profiled one: the recorder observed
         only the engine it was attached to. *)
      let plain2_report, _ = run_plain src in
      Alcotest.(check int)
        "profiled run charges identical cycles" plain_report.Engine.total_cycles
        recorded_report.Engine.total_cycles;
      Alcotest.(check string) "identical output" plain_out recorded_out;
      Alcotest.(check int)
        "hooks fully restored" plain_report.Engine.total_cycles
        plain2_report.Engine.total_cycles)
    [ fib_src; loop_src ]

(* ------------------------------------------------------------------ *)
(* Ownership: a recorder observes the engine it is attached to         *)
(* ------------------------------------------------------------------ *)

let test_recorder_per_engine () =
  let program = Bytecode.Compile.program_of_source fib_src in
  let cfg = Engine.default_config ~opt:Pipeline.all_on () in
  let a = Engine.make cfg program in
  let r = Profile.Recorder.create ~program in
  Engine.attach_profile a r;
  let report_a = Runtime.Builtins.with_print_hook ignore (fun () -> Engine.run a) in
  (* Engine B runs the same program on the same domain afterwards, with
     no recorder of its own. *)
  let b = Engine.make cfg program in
  ignore (Runtime.Builtins.with_print_hook ignore (fun () -> Engine.run b));
  Alcotest.(check int)
    "A's recorder total = A's total_cycles" report_a.Engine.total_cycles
    (Profile.Recorder.total_cycles r)

(* A profiled run that trips its deadline, once in the interpreter and
   once in native code: the composed hooks attribute every cycle charged
   up to the trip, and the trip fires exactly once. *)
let test_profiled_deadline () =
  List.iter
    (fun (label, cfg) ->
      let program = Bytecode.Compile.program_of_source fib_src in
      let budget =
        (Runtime.Builtins.with_print_hook ignore (fun () -> Engine.run_program cfg program))
          .Engine.total_cycles / 2
      in
      let engine = Engine.make { cfg with Engine.deadline = budget } program in
      let r = Profile.Recorder.create ~program in
      Engine.attach_profile engine r;
      let hits = ref 0 in
      Telemetry.attach (Engine.telemetry engine) (function
        | { Telemetry.what = Deadline_hit _; _ } -> incr hits
        | _ -> ());
      (match Runtime.Builtins.with_print_hook ignore (fun () -> Engine.run engine) with
      | exception Engine.Deadline_exceeded { dl_spent; _ } ->
        Alcotest.(check int) (label ^ ": fresh engine, spent = clock") dl_spent
          (Engine.clock engine)
      | _ -> Alcotest.fail (label ^ ": expected Deadline_exceeded"));
      Alcotest.(check int)
        (label ^ ": attributed = clock at the trip")
        (Engine.clock engine) (Profile.Recorder.total_cycles r);
      Alcotest.(check int) (label ^ ": exactly one Deadline_hit") 1 !hits)
    [ ("interp-only", Engine.interp_only);
      ("spec", Engine.default_config ~opt:Pipeline.all_on ()) ]

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

let collect_spans ?(cfg = Engine.default_config ~opt:Pipeline.all_on ()) src =
  let acc = ref [] in
  let engine = Engine.make cfg (Bytecode.Compile.program_of_source src) in
  Telemetry.attach_span (Engine.telemetry engine) (fun s -> acc := s :: !acc);
  let report = Runtime.Builtins.with_print_hook ignore (fun () -> Engine.run engine) in
  (List.rev !acc, report)

let span_name (s : Telemetry.span) = s.Telemetry.sp_site.Telemetry.site_name
let span_cat (s : Telemetry.span) = s.Telemetry.sp_site.Telemetry.site_cat

let test_span_nesting () =
  let spans, report = collect_spans fib_src in
  Alcotest.(check bool) "spans were emitted" true (spans <> []);
  List.iter
    (fun (s : Telemetry.span) ->
      Alcotest.(check bool) "non-negative duration" true (s.Telemetry.sp_dur >= 0);
      Alcotest.(check bool) "non-negative start" true (s.Telemetry.sp_start >= 0);
      Alcotest.(check bool) "within the run" true
        (s.Telemetry.sp_start + s.Telemetry.sp_dur <= report.Engine.total_cycles))
    spans;
  (* Well-formed nesting: every non-root span lies within some span one
     level shallower (timestamp containment on the model-cycle clock). *)
  List.iter
    (fun (s : Telemetry.span) ->
      if s.Telemetry.sp_depth > 0 then
        Alcotest.(check bool)
          (Printf.sprintf "span %s at depth %d has an enclosing parent"
             (span_name s) s.Telemetry.sp_depth)
          true
          (List.exists
             (fun (p : Telemetry.span) ->
               p.Telemetry.sp_depth = s.Telemetry.sp_depth - 1
               && p.Telemetry.sp_start <= s.Telemetry.sp_start
               && s.Telemetry.sp_start + s.Telemetry.sp_dur
                  <= p.Telemetry.sp_start + p.Telemetry.sp_dur)
             spans))
    spans;
  (* The expected lifecycle phases all appear. *)
  let names = List.map span_name spans in
  List.iter
    (fun expected ->
      Alcotest.(check bool) ("has a " ^ expected ^ " span") true (List.mem expected names))
    [ "interpret"; "compile"; "codegen"; "native"; "hot" ];
  Alcotest.(check bool) "has pass children" true
    (List.exists
       (fun n -> String.length n > 5 && String.sub n 0 5 = "pass:")
       names)

let test_span_pass_children_contained () =
  let spans, _ = collect_spans loop_src in
  let compiles =
    List.filter
      (fun s -> span_name s = "compile" || span_name s = "recompile")
      spans
  in
  Alcotest.(check bool) "at least one compile span" true (compiles <> []);
  List.iter
    (fun (s : Telemetry.span) ->
      if span_cat s = "pass" || span_cat s = "codegen" then
        Alcotest.(check bool)
          (span_name s ^ " inside a compile span")
          true
          (List.exists
             (fun (c : Telemetry.span) ->
               c.Telemetry.sp_start <= s.Telemetry.sp_start
               && s.Telemetry.sp_start + s.Telemetry.sp_dur
                  <= c.Telemetry.sp_start + c.Telemetry.sp_dur)
             compiles))
    spans

let test_spans_off_identical () =
  let plain_report, _ = run_plain fib_src in
  let _, traced_report = collect_spans fib_src in
  Alcotest.(check int) "tracing charges nothing" plain_report.Engine.total_cycles
    traced_report.Engine.total_cycles

let test_tracer_discipline () =
  let acc = ref [] in
  let hub = Telemetry.create ~nfuncs:1 () in
  (* No span sink yet: begin/end do nothing, and an end is not unbalanced. *)
  Telemetry.span_begin hub ~name:"unseen" ~cat:"x" ~fid:0 ~fname:"f" ~now:0;
  Telemetry.span_end hub ~now:5;
  Telemetry.span_end hub ~now:5;
  Telemetry.attach_span hub (fun s -> acc := s :: !acc);
  Telemetry.span_begin hub ~name:"outer" ~cat:"x" ~fid:0 ~fname:"f" ~now:0;
  Telemetry.span_begin hub ~name:"inner" ~cat:"x" ~fid:0 ~fname:"f" ~now:10;
  Telemetry.span_end hub ~now:20;
  Telemetry.span_end hub ~now:30;
  (match !acc with
  | [ outer; inner ] ->
    Alcotest.(check string) "LIFO emission" "inner" (span_name inner);
    Alcotest.(check int) "inner depth" 1 inner.Telemetry.sp_depth;
    Alcotest.(check int) "inner dur" 10 inner.Telemetry.sp_dur;
    Alcotest.(check string) "outer last" "outer" (span_name outer);
    Alcotest.(check int) "outer dur" 30 outer.Telemetry.sp_dur;
    Alcotest.(check int) "outer depth" 0 outer.Telemetry.sp_depth
  | _ -> Alcotest.fail "expected exactly two spans");
  Alcotest.check_raises "unbalanced end raises"
    (Invalid_argument "Telemetry.span_end: no open span") (fun () ->
      Telemetry.span_end hub ~now:40)

(* A span sink attached after [Engine.make] receives the whole trace: the
   expected counts and digests (Chrome JSON, one span per line, flows
   flushed at the end) were recorded by a sink installed before the
   engine was constructed. *)
let test_late_attach () =
  let richards =
    let s = List.find (fun (s : Suite.t) -> s.Suite.s_name = "V8 version 6") Suites.all in
    (List.find (fun (m : Suite.member) -> m.Suite.m_name = "richards") s.Suite.members)
      .Suite.m_source
  in
  List.iter
    (fun (label, cfg, n, digest) ->
      let buf = Buffer.create 4096 and count = ref 0 in
      let engine = Engine.make cfg (Bytecode.Compile.program_of_source richards) in
      Telemetry.attach_span (Engine.telemetry engine) (fun sp ->
          incr count;
          Telemetry.add_span_chrome_json buf sp;
          Buffer.add_char buf '\n');
      Runtime.Builtins.with_print_hook ignore (fun () -> ignore (Engine.run engine));
      Engine.flush_flows engine;
      Alcotest.(check int) (label ^ ": span count") n !count;
      Alcotest.(check string) (label ^ ": span digest") digest
        (Digest.to_hex (Digest.string (Buffer.contents buf))))
    [
      ( "paper", Engine.default_config ~opt:Pipeline.all_on (), 5727,
        "37012392a0e70bdaf8b7bb553e3ad1ce" );
      ( "polyvariant c2 bg",
        Engine.default_config ~opt:Pipeline.all_on ~policy:Policy.Polyvariant ~cache_size:2
          ~bg_compile:true ~bg_queue_depth:8 (),
        5651, "eff790187f08cb7b3bf92bbd15ccbb97" );
    ]

let test_chrome_json_shape () =
  let spans, _ = collect_spans fib_src in
  List.iter
    (fun s ->
      let j =
        let buf = Buffer.create 256 in
        Telemetry.add_span_chrome_json buf s;
        Buffer.contents buf
      in
      List.iter
        (fun sub ->
          Alcotest.(check bool)
            (Printf.sprintf "%s in %s" sub j)
            true
            (Support.Strings.contains_substring j sub))
        [ {|"ph":"X"|}; {|"ts":|}; {|"dur":|}; {|"pid":1|}; {|"tid":1|}; {|"args":|} ])
    (match spans with [] -> [] | s :: _ -> [ s ])

(* ------------------------------------------------------------------ *)
(* Folded output determinism                                           *)
(* ------------------------------------------------------------------ *)

let folded_of src =
  let r, _, _ = run_recorded src in
  Profile.Recorder.folded r

let test_folded_deterministic () =
  Alcotest.(check string) "two runs render identical folded stacks" (folded_of fib_src)
    (folded_of fib_src)

let at_jobs jobs f =
  Pool.set_default_jobs jobs;
  Fun.protect ~finally:(fun () -> Pool.set_default_jobs 1) f

let test_folded_jobs_invariant () =
  (* Fan recorder runs out over the pool: each cell attaches its recorder
     to its own engine on whichever worker domain runs it, and the folded
     rendering is sorted, so the merged output cannot depend on
     scheduling. *)
  let cells jobs =
    at_jobs jobs (fun () ->
        Pool.map (Pool.default ()) folded_of [ fib_src; loop_src; fib_src ])
  in
  Alcotest.(check (list string)) "folded: jobs 4 ≡ jobs 1" (cells 1) (cells 4)

let suites =
  [
    ( "profile.exact",
      [
        Alcotest.test_case "per-origin sums equal report totals" `Quick test_exact_sum;
        Alcotest.test_case "exact under deopt/selective/k-entry" `Quick
          test_exact_sum_selective;
        Alcotest.test_case "rows and summaries are consistent" `Quick test_rows_consistent;
      ] );
    ( "profile.off",
      [
        Alcotest.test_case "profiling off is cycle- and output-identical" `Quick
          test_off_identical;
        Alcotest.test_case "tracing charges nothing" `Quick test_spans_off_identical;
      ] );
    ( "profile.ownership",
      [
        Alcotest.test_case "a recorder is charged only by its engine" `Quick
          test_recorder_per_engine;
        Alcotest.test_case "profiled deadline trip attributes the clock" `Quick
          test_profiled_deadline;
      ] );
    ( "profile.spans",
      [
        Alcotest.test_case "nesting well-formed, phases present" `Quick test_span_nesting;
        Alcotest.test_case "pass/codegen children inside compile" `Quick
          test_span_pass_children_contained;
        Alcotest.test_case "tracer begin/end discipline" `Quick test_tracer_discipline;
        Alcotest.test_case "a sink attached after make sees every span" `Quick
          test_late_attach;
        Alcotest.test_case "chrome trace-event shape" `Quick test_chrome_json_shape;
      ] );
    ( "profile.folded",
      [
        Alcotest.test_case "deterministic across runs" `Quick test_folded_deterministic;
        Alcotest.test_case "deterministic across job counts" `Quick
          test_folded_jobs_invariant;
      ] );
  ]
