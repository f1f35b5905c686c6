(* Engine-level tests: the hotness policy, the specialization cache, the
   deoptimize-and-blacklist life cycle (paper §4), OSR, and bailout
   resumption. *)

open Runtime

let run ?(cfg = Engine.default_config ~opt:Pipeline.all_on ()) ?(sinks = []) src =
  let buf = Buffer.create 64 in
  Builtins.with_print_hook
    (fun s -> Buffer.add_string buf s; Buffer.add_char buf '\n')
    (fun () ->
      let engine = Engine.make cfg (Bytecode.Compile.program_of_source src) in
      List.iter (Telemetry.attach (Engine.telemetry engine)) sinks;
      let report = Engine.run engine in
      (report, Buffer.contents buf))

let fn report name =
  List.find (fun (f : Engine.func_report) -> f.Engine.fr_name = name) report.Engine.functions

let test_cold_functions_never_compile () =
  let report, _ = run "function f(x) { return x + 1; } print(f(1) + f(2));" in
  Alcotest.(check int) "no compiles" 0 (fn report "f").Engine.fr_compiles

let test_hot_function_compiles_specialized () =
  let report, out =
    run "function f(x) { return x + 1; } var t = 0; for (var i = 0; i < 40; i++) t += f(7); print(t);"
  in
  Alcotest.(check string) "result" "320\n" out;
  let f = fn report "f" in
  Alcotest.(check bool) "compiled" true (f.Engine.fr_compiles >= 1);
  Alcotest.(check bool) "specialized" true f.Engine.fr_was_specialized;
  Alcotest.(check bool) "never deoptimized (same args throughout)" true
    (not f.Engine.fr_deoptimized)

let test_deopt_and_blacklist () =
  (* Hot with the same argument, then a different argument: discard,
     recompile generic, never specialize again. *)
  let report, out =
    run
      "function f(x) { return x * 2; } var t = 0;\n\
       for (var i = 0; i < 30; i++) t += f(5);\n\
       for (var i = 0; i < 30; i++) t += f(i);\n\
       print(t);"
  in
  Alcotest.(check string) "result" (string_of_int ((30 * 10) + (29 * 30)) ^ "\n") out;
  let f = fn report "f" in
  Alcotest.(check bool) "was specialized" true f.Engine.fr_was_specialized;
  Alcotest.(check bool) "deoptimized" true f.Engine.fr_deoptimized;
  Alcotest.(check bool) "recompiled at least once" true (f.Engine.fr_compiles >= 2);
  (* After the deopt, only generic compiles may follow. *)
  let rec check_tail = function
    | [] -> ()
    | (true, _) :: rest ->
      Alcotest.(check bool) "specialized compile precedes generic ones" true
        (List.for_all (fun (s, _) -> not s) rest);
      check_tail rest
    | (false, _) :: rest -> check_tail rest
  in
  check_tail f.Engine.fr_sizes

let test_cache_hit_on_same_args () =
  (* Same arguments on every call: one specialized compile, zero deopts. *)
  let report, _ =
    run
      "function f(a, b) { return a + b; } var t = 0;\n\
       for (var i = 0; i < 100; i++) t += f(3, 4); print(t);"
  in
  let f = fn report "f" in
  Alcotest.(check int) "exactly one compile" 1 f.Engine.fr_compiles;
  Alcotest.(check bool) "no deopt" true (not f.Engine.fr_deoptimized)

let test_object_identity_cache () =
  (* The cache compares heap arguments by identity: the same object hits,
     a structurally-equal fresh object misses. *)
  let report, _ =
    run
      "function get(o) { return o.v; } var o1 = {v: 1};\n\
       for (var i = 0; i < 30; i++) get(o1);\n\
       get({v: 1});\n\
       print(0);"
  in
  let f = fn report "get" in
  Alcotest.(check bool) "deoptimized by fresh object" true f.Engine.fr_deoptimized

let test_osr_compiles_hot_loop () =
  (* A single call with a long loop must be OSR-compiled mid-execution. *)
  let report, out =
    run "function f(n) { var t = 0; for (var i = 0; i < n; i++) t = (t + i) | 0; return t; } print(f(5000));"
  in
  Alcotest.(check string) "result" "12497500\n" out;
  let f = fn report "f" in
  Alcotest.(check bool) "compiled despite single call" true (f.Engine.fr_compiles >= 1);
  Alcotest.(check bool) "interp + native both ran" true
    (report.Engine.native_cycles > 0 && report.Engine.interp_cycles > 0)

let test_toplevel_osr () =
  let report, out =
    run "var t = 0; for (var i = 0; i < 5000; i++) t = (t + 2) | 0; print(t);"
  in
  Alcotest.(check string) "result" "10000\n" out;
  Alcotest.(check bool) "toplevel compiled via OSR" true (report.Engine.compilations >= 1)

let test_osr_in_for_in_loop () =
  (* A hot for-in enumeration OSR-compiles mid-loop: the desugared keys
     array and index live in hidden locals that the OSR block must bake or
     type from the frame correctly. *)
  let src =
    "var o = {};\n\
     for (var i = 0; i < 600; i++) o[\"k\" + i] = i;\n\
     var t = 0;\n\
     for (var k in o) t = (t + o[k] + k.length) | 0;\n\
     print(t);"
  in
  let report, out = run src in
  let _, expected = run ~cfg:Engine.interp_only src in
  Alcotest.(check string) "matches interpreter" expected out;
  Alcotest.(check bool) "toplevel OSR-compiled" true (report.Engine.compilations >= 1);
  Alcotest.(check bool) "native code actually ran" true (report.Engine.native_cycles > 0)

let test_bailout_resumes_correctly () =
  (* Array access goes out of bounds only in the final iterations: native
     code bails and the interpreter finishes with JS semantics
     (undefined + int = NaN -> | 0 -> 0). *)
  let _, out =
    run
      "function f(s, n) { var t = 0; for (var i = 0; i < n; i++) t = (t + s[i]) | 0; return t; }\n\
       var a = [1, 2, 3, 4];\n\
       var r = 0;\n\
       for (var k = 0; k < 30; k++) r = f(a, 4);\n\
       r += f(a, 6);\n\
       print(r);"
  in
  (* r is overwritten (not accumulated) in the warm loop, so the final value
     is f(a,4) + f(a,6) where the OOB tail zeroes the accumulator via
     (10 + undefined) | 0 = 0. *)
  Alcotest.(check string) "bailout preserved semantics" "10\n" out

let test_bailout_counter_discards () =
  let cfg = { (Engine.default_config ()) with Engine.max_bailouts = 1 } in
  let report, _ =
    run ~cfg
      "function f(s, i) { return s[i]; } var a = [1, 2, 3];\n\
       var t = 0;\n\
       for (var k = 0; k < 20; k++) t += f(a, 1);\n\
       for (var k = 0; k < 5; k++) f(a, 99);\n\
       print(t);"
  in
  let f = fn report "f" in
  Alcotest.(check bool) "bailed repeatedly" true (f.Engine.fr_bailouts >= 2);
  Alcotest.(check bool) "binary discarded and recompiled" true (f.Engine.fr_compiles >= 2)

let test_interp_only_never_compiles () =
  let report, _ =
    run ~cfg:Engine.interp_only
      "function f(x) { return x; } for (var i = 0; i < 200; i++) f(i); print(0);"
  in
  Alcotest.(check int) "no compilations" 0 report.Engine.compilations;
  Alcotest.(check int) "no native cycles" 0 report.Engine.native_cycles

let test_report_accounting () =
  let report, _ =
    run "function f(x) { return x + 1; } var t = 0; for (var i = 0; i < 50; i++) t += f(1); print(t);"
  in
  Alcotest.(check int) "total is the sum of parts"
    (report.Engine.interp_cycles + report.Engine.native_cycles
   + report.Engine.compile_cycles)
    report.Engine.total_cycles;
  Alcotest.(check bool) "successful = specialized - deoptimized" true
    (report.Engine.successful_funcs
    = report.Engine.specialized_funcs - report.Engine.deoptimized_funcs)

let test_runtime_error_surfaces () =
  match run "var x = null; x.boom;" with
  | exception Engine.Runtime_error _ -> ()
  | _ -> Alcotest.fail "expected a runtime error"

let test_cache_size_extension () =
  (* §6 future work: with a two-entry cache, a function alternating between
     two argument tuples keeps both specialized binaries and never
     deoptimizes; with the paper's one-entry cache it deoptimizes. *)
  let src =
    "function f(x) { return x * 3; } var t = 0;\n\
     for (var i = 0; i < 60; i++) t += f(i % 2);\n\
     print(t);"
  in
  let with_cache k =
    let cfg = Engine.default_config ~opt:Pipeline.all_on ~cache_size:k () in
    let report, out = run ~cfg src in
    (fn report "f", out)
  in
  let f1, out1 = with_cache 1 in
  let f2, out2 = with_cache 2 in
  Alcotest.(check string) "same result either way" out1 out2;
  Alcotest.(check bool) "k=1 deoptimizes" true f1.Engine.fr_deoptimized;
  Alcotest.(check bool) "k=2 keeps both specializations" true
    (not f2.Engine.fr_deoptimized);
  Alcotest.(check bool) "k=2 compiled two specialized versions" true
    (List.length (List.filter fst f2.Engine.fr_sizes) >= 2)

let test_selective_specialization () =
  (* Extension: with mixed-stability arguments (f stable closure, n varying
     int), full specialization deoptimizes and blacklists, while selective
     specialization narrows to the stable closure argument, keeps it burned
     in (so the callee stays inlined) and never deoptimizes. *)
  let src =
    "function kernel(a, b) { return (a * 2 + b) | 0; }\n\
     function apply(f, n) {\n\
    \  var t = 0;\n\
    \  for (var i = 0; i < 8; i++) t = (t + f(n + i, i)) | 0;\n\
    \  return t;\n\
     }\n\
     var r = 0;\n\
     for (var k = 0; k < 300; k++) r = (r + apply(kernel, k % 11)) | 0;\n\
     print(r);"
  in
  let full_cfg = Engine.default_config ~opt:Pipeline.all_on () in
  let sel_cfg = Engine.default_config ~opt:Pipeline.all_on ~selective:true () in
  let full_report, full_out = run ~cfg:full_cfg src in
  let sel_report, sel_out = run ~cfg:sel_cfg src in
  Alcotest.(check string) "same result either way" full_out sel_out;
  let full_apply = fn full_report "apply" and sel_apply = fn sel_report "apply" in
  Alcotest.(check bool) "full spec deoptimizes" true full_apply.Engine.fr_deoptimized;
  Alcotest.(check bool) "selective stays specialized" true
    (sel_apply.Engine.fr_was_specialized && not sel_apply.Engine.fr_deoptimized);
  Alcotest.(check int) "selective compiles apply once" 1 sel_apply.Engine.fr_compiles;
  (* The burned-in closure keeps kernel inlined: its call count stays at the
     pre-hot interpreted calls instead of one dynamic call per iteration. *)
  let sel_kernel = fn sel_report "kernel" and full_kernel = fn full_report "kernel" in
  Alcotest.(check bool) "kernel stays inlined under selective" true
    (sel_kernel.Engine.fr_calls * 10 < full_kernel.Engine.fr_calls);
  Alcotest.(check bool) "selective is faster end to end" true
    (sel_report.Engine.total_cycles < full_report.Engine.total_cycles)

let test_selective_narrows_then_settles () =
  (* An argument that is stable during warmup but varies later: the first
     miss narrows the mask and respecializes; afterwards the narrowed
     binary serves every call, so compile counts stay bounded. *)
  let src =
    "function g(a, b) { return (a * 10 + b) | 0; }\n\
     var r = 0;\n\
     for (var k = 0; k < 200; k++) r = (r + g(5, k < 40 ? 1 : k % 13)) | 0;\n\
     print(r);"
  in
  let cfg = Engine.default_config ~opt:Pipeline.all_on ~selective:true () in
  let report, _ = run ~cfg src in
  let g = fn report "g" in
  Alcotest.(check bool) "respecialized at most twice" true (g.Engine.fr_compiles <= 2);
  Alcotest.(check bool) "still specialized at the end" true g.Engine.fr_was_specialized;
  (* Both compiles were specialized ones (never fell back to generic). *)
  Alcotest.(check bool) "no generic compile" true (List.for_all fst g.Engine.fr_sizes)

let test_selective_all_varying_goes_generic () =
  (* When every argument varies from the start, selective specialization
     degrades to the generic path (single compile, no blacklist churn). *)
  let src =
    "function h(a, b) { return (a + b) | 0; }\n\
     var r = 0;\n\
     for (var k = 0; k < 100; k++) r = (r + h(k, k * 3)) | 0;\n\
     print(r);"
  in
  let cfg = Engine.default_config ~opt:Pipeline.all_on ~selective:true () in
  let report, _ = run ~cfg src in
  let h = fn report "h" in
  Alcotest.(check int) "one compile" 1 h.Engine.fr_compiles;
  Alcotest.(check bool) "it is generic" true
    (List.for_all (fun (s, _) -> not s) h.Engine.fr_sizes)

let test_osr_binary_reused_via_entry () =
  (* A function compiled at a loop head (OSR) caches its argument tuple;
     a later call with the same tuple enters the cached binary through the
     function entry instead of recompiling. *)
  let report, out =
    run
      "function f(n) { var t = 0; for (var i = 0; i < n; i++) t = (t + i) | 0; return t; }\n\
       var r = f(3000);\n\
       r += f(3000);\n\
       print(r);"
  in
  Alcotest.(check string) "result" "8997000\n" out;
  let f = fn report "f" in
  Alcotest.(check int) "compiled exactly once (OSR, then reused)" 1 f.Engine.fr_compiles;
  Alcotest.(check bool) "was specialized" true f.Engine.fr_was_specialized;
  Alcotest.(check bool) "no deopt" true (not f.Engine.fr_deoptimized)

let test_engine_determinism () =
  (* Two runs of the same program produce identical cycle accounting: no
     hidden global state leaks between engine instances. *)
  let src =
    "function h(s) { var t = 0; for (var i = 0; i < s.length; i++) t = (t * 31 + s.charCodeAt(i)) | 0; return t; }\n\
     var r = 0; for (var k = 0; k < 30; k++) r = (r + h(\"determinism\")) | 0; print(r);"
  in
  let r1, o1 = run src in
  let r2, o2 = run src in
  Alcotest.(check string) "same output" o1 o2;
  Alcotest.(check int) "same total cycles" r1.Engine.total_cycles r2.Engine.total_cycles;
  Alcotest.(check int) "same compile cycles" r1.Engine.compile_cycles
    r2.Engine.compile_cycles;
  Alcotest.(check int) "same compilations" r1.Engine.compilations r2.Engine.compilations

let test_closure_specialization_per_instance () =
  (* Two instances of the same function: cache keyed on closure identity
     through the argument tuple. *)
  let _, out =
    run
      "function mk(k) { return function(x) { return x + k; }; }\n\
       var f1 = mk(10); var f2 = mk(20);\n\
       function apply(f, x) { return f(x); }\n\
       var t = 0;\n\
       for (var i = 0; i < 40; i++) t += apply(f1, 1);\n\
       t += apply(f2, 1);\n\
       print(t);"
  in
  Alcotest.(check string) "closure environments respected" "461\n" out

(* Regression: the global-LRU clock. A probe that rejects an entry (the
   entry was examined but did not match the arguments) must not refresh
   that entry's [last_use]; only hits and installs may. Pinned with an
   exact two-victim eviction schedule: under the polyvariant policy,
   [f] and [g] each hold a generic catch-all plus a promoted value
   version, the call order below arranges the LRU order
   [f-generic; g-values; f-values; g-generic], and a byte budget sized
   from a first unbounded run forces exactly two evictions when [h]
   compiles. If rejected probes refreshed [last_use], the g(77) calls —
   which probe g's value version and reject it before hitting the
   catch-all — would keep that version young, and the second victim
   would belong to [f] instead of [g]. *)
let lru_schedule_src =
  "function f(x) { return x + 1; }\n\
   function g(x) { return x + 2; }\n\
   function h(x) { return x + 3; }\n\
   var t = 0;\n\
   for (var i = 0; i < 30; i++) t += f(5);\n\
   for (var i = 0; i < 30; i++) t += g(5);\n\
   for (var i = 0; i < 3; i++) t += f(5);\n\
   for (var i = 0; i < 5; i++) t += g(77);\n\
   for (var i = 0; i < 15; i++) t += h(1);\n\
   print(t);"

let test_lru_missing_probe_no_refresh () =
  let cfg budget =
    {
      (Engine.default_config ~opt:Pipeline.all_on ~policy:Policy.Polyvariant
         ~cache_size:2 ~code_cache_bytes:budget ())
      with
      (* No toplevel OSR: only f, g and h may own binaries. *)
      Engine.hot_loop_edges = max_int;
    }
  in
  (* Pass 1, unbounded: harvest every binary's size. Compile order is
     [f generic; f values (promoted); g generic; g values; h generic]. *)
  let report, out = run ~cfg:(cfg 0) lru_schedule_src in
  let bytes_of name =
    List.map
      (fun (_, size) -> size * Cost.bytes_per_native_instr)
      (fn report name).Engine.fr_sizes
  in
  match (bytes_of "f", bytes_of "g", bytes_of "h") with
  | ([ f_gen; _ ] as f_sizes), ([ _; g_val ] as g_sizes), [ h_gen ] ->
    (* Once [h] wants in, evicting the oldest binary (f's generic) must
       not suffice; the next-oldest (g's value version) tips it over. *)
    let total = List.fold_left ( + ) 0 (f_sizes @ g_sizes @ [ h_gen ]) in
    let budget = total - f_gen - g_val in
    let evicted = ref [] in
    let sink = function
      | { Telemetry.fname; what = Cache_evict _; _ } -> evicted := fname :: !evicted
      | _ -> ()
    in
    let _, out2 = run ~cfg:(cfg budget) ~sinks:[ sink ] lru_schedule_src in
    Alcotest.(check string) "bounded run computes the same result" out out2;
    Alcotest.(check (list string))
      "victims oldest-first; g's rejected probes did not refresh its value version"
      [ "f"; "g" ] (List.rev !evicted)
  | _ -> Alcotest.fail "unexpected compile schedule in unbounded pass"

(* Internal-consistency invariants of the engine report, over generated
   programs: counters that are maintained in different places must agree,
   and the whole accounting must be deterministic. *)
let prop_report_invariants =
  QCheck.Test.make ~name:"engine report is internally consistent" ~count:30
    (QCheck.make ~print:Fun.id Fuzz_gen.any_program)
    (fun src ->
      Builtins.reset_random 20130223;
      let cfg = Engine.default_config ~opt:Pipeline.all_on () in
      let report, _ = run ~cfg src in
      Builtins.reset_random 20130223;
      let report2, _ = run ~cfg src in
      Builtins.reset_random 20130223;
      let interp_report, _ = run ~cfg:Engine.interp_only src in
      List.for_all
        (fun (f : Engine.func_report) ->
          List.length f.Engine.fr_sizes = f.Engine.fr_compiles
          && ((not f.Engine.fr_deoptimized) || f.Engine.fr_was_specialized)
          && ((not f.Engine.fr_was_specialized) || f.Engine.fr_compiles >= 1))
        report.Engine.functions
      && report2.Engine.total_cycles = report.Engine.total_cycles
      && report2.Engine.compilations = report.Engine.compilations
      && interp_report.Engine.compilations = 0
      && interp_report.Engine.native_cycles = 0)

(* Hot calls that pass fewer or more arguments than the callee's arity.
   A value key holds the call's own tuple and admits only tuples of that
   length, so a position past it is [Undefined] at entry; a selective mask
   recorded from a longer earlier tuple must not index past a shorter one.
   Every configuration must print the interpreter's output. *)
let test_arity_edge_calls () =
  let ps = Pipeline.make ~ps:true "PS" in
  let configs =
    [
      ("PS", Engine.default_config ~opt:ps ());
      ("PS+selective", Engine.default_config ~opt:ps ~selective:true ());
      ( "polyvariant c4",
        Engine.default_config ~opt:ps ~policy:Policy.Polyvariant ~cache_size:4 () );
      ("PS bg-compile", Engine.default_config ~opt:ps ~bg_compile:true ());
    ]
  in
  let programs =
    [
      "function f(a, b) { return a; } var r = 0;\n\
       for (var k = 0; k < 30; k++) r = r + f(1);\n\
       print(r);";
      "function f(a, b) { return a; } var r = 0;\n\
       for (var k = 0; k < 30; k++) r = r + f(1, 2);\n\
       for (var k = 0; k < 30; k++) r = r + f(1);\n\
       print(r);";
      "function f(a, b) { return b === undefined ? a : a + b; } var r = 0;\n\
       for (var k = 0; k < 30; k++) r = r + f(k);\n\
       for (var k = 0; k < 30; k++) r = r + f(k, 1, 2);\n\
       print(r);";
    ]
  in
  let saved = Pool.default_jobs () in
  Pool.set_default_jobs 1;
  Fun.protect
    ~finally:(fun () -> Pool.set_default_jobs saved)
    (fun () ->
      List.iter
        (fun src ->
          let _, expected = run ~cfg:Engine.interp_only src in
          List.iter
            (fun (name, cfg) ->
              let _, out = run ~cfg src in
              Alcotest.(check string) name expected out)
            configs)
        programs)

(* The compile barrier: an exception a build raises that is not a
   diagnostic (here a failing MIR hook) aborts that compile like a
   diagnostic does, so the function is quarantined and the run interprets
   on with the interpreter's output. *)
let test_compile_exception_contained () =
  let src =
    "function f(x) { return x + 1; } var t = 0; for (var i = 0; i < 40; i++) t += f(7); print(t);"
  in
  let _, expected = run ~cfg:Engine.interp_only src in
  let cfg = Engine.default_config ~opt:(Pipeline.make ~ps:true "PS") () in
  let buf = Buffer.create 64 in
  let engine, report =
    Engine.with_mir_hook
      (fun _ -> failwith "boom")
      (fun () ->
        Builtins.with_print_hook
          (fun s -> Buffer.add_string buf s; Buffer.add_char buf '\n')
          (fun () ->
            let engine = Engine.make cfg (Bytecode.Compile.program_of_source src) in
            (engine, Engine.run engine)))
  in
  Alcotest.(check string) "interpreter's output" expected (Buffer.contents buf);
  let aborted =
    Telemetry.Counters.total (Telemetry.counters (Engine.telemetry engine))
      Telemetry.Key.compiles_aborted
  in
  Alcotest.(check bool) "compiles aborted" true (aborted >= 1);
  Alcotest.(check int) "nothing installed" 0 (fn report "f").Engine.fr_compiles

(* Two engines interleaved run by run on one domain must each behave as
   they do alone: output, counters and events. Each program prints three
   [Math.random] draws, so the stream's state must not carry over from
   whatever ran on the domain before. Engine A also has check mode on, a
   diagnostic sink and a plan that fails its first compile; engine B has
   none of these and runs first, so a plan or a sink that leaked across
   engines would show in B. *)
let interleave_src fn =
  Printf.sprintf
    "function %s(x) { return (x * 3 + 1) | 0; }\n\
     var t = 0;\n\
     for (var k = 0; k < 30; k++) t = (t + %s(5)) | 0;\n\
     print(t);\n\
     print((Math.random() * 1000) | 0, (Math.random() * 1000) | 0, (Math.random() * 1000) | 0);"
    fn fn

(* An engine with its own print buffer and event list. [step] runs it
   once; [observed] is what it printed, its counter rows and its events. *)
let observed_engine make =
  let engine = make () in
  let buf = Buffer.create 64 in
  let evs = ref [] in
  Telemetry.attach (Engine.telemetry engine) (fun ev -> evs := Telemetry.to_json ev :: !evs);
  let step () =
    Builtins.with_print_hook
      (fun s -> Buffer.add_string buf s; Buffer.add_char buf '\n')
      (fun () -> ignore (Engine.run engine))
  in
  let observed () =
    ( Buffer.contents buf,
      Telemetry.Counters.rows (Telemetry.counters (Engine.telemetry engine)),
      List.rev !evs )
  in
  (step, observed)

let test_engines_interleave () =
  let cfg = Engine.default_config ~opt:Pipeline.all_on () in
  let make_a sink () =
    Engine.make ~diag:sink
      ~faults:(Faults.make ~seed:1 [ (Faults.Compile_diag, Faults.Nth 1) ])
      { cfg with Engine.check = true }
      (Bytecode.Compile.program_of_source (interleave_src "f"))
  in
  let make_b () = Engine.make cfg (Bytecode.Compile.program_of_source (interleave_src "g")) in
  let solo make =
    let step, observed = observed_engine make in
    step ();
    step ();
    observed ()
  in
  let solo_a = solo (make_a ignore) and solo_b = solo make_b in
  let aborts = ref [] in
  let sink d = if Diag.is_error d then aborts := d.Diag.message :: !aborts in
  let step_a, observed_a = observed_engine (make_a sink) in
  let step_b, observed_b = observed_engine make_b in
  step_b ();
  step_a ();
  step_b ();
  step_a ();
  let same name (out, rows, evs) (out', rows', evs') =
    Alcotest.(check string) (name ^ " output") out out';
    Alcotest.(check (list (pair string int))) (name ^ " counters") rows rows';
    Alcotest.(check (list string)) (name ^ " events") evs evs'
  in
  same "A" solo_a (observed_a ());
  same "B" solo_b (observed_b ());
  Alcotest.(check (list string)) "A's sink saw A's one abort" [ "injected compile_diag fault" ]
    !aborts

(* A warm engine hands every native run one callbacks record, rebuilt only
   when the profile, the deadline or the fault plan it reads changes. The
   program counts its runs in a global (a bare [var] never resets it):
   runs 1 and 2 call fib(12) ten times, later runs 200 times. *)
let runs_src =
  "function fib(n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); }\n\
   var runs; if (runs == undefined) runs = 0; runs = runs + 1;\n\
   var rounds = 10; if (runs > 2) rounds = 200;\n\
   var s = 0; for (var i = 0; i < rounds; i++) s = s + fib(12); s;"

(* The model cycles of the engine's next run. *)
let next_run e =
  let before = Engine.clock e in
  ignore (Engine.run e);
  Engine.clock e - before

let test_callbacks_follow_settings () =
  let program = Bytecode.Compile.program_of_source runs_src in
  let cfg = Engine.default_config ~opt:Pipeline.best () in
  let plain = Engine.make cfg program in
  let c1 = next_run plain in
  let c2 = next_run plain in
  let c3 = next_run plain in
  (* A profile attached to a warm engine attributes every cycle of its
     next run, and its native cycles balance the native clock. *)
  let e = Engine.make cfg program in
  ignore (next_run e);
  let r = Profile.Recorder.create ~program in
  Engine.attach_profile e r;
  let _, native0, _ = Engine.cycle_split e in
  Alcotest.(check int) "profiled run costs the plain run's cycles" c2 (next_run e);
  let _, native1, _ = Engine.cycle_split e in
  Alcotest.(check int) "attributed = the run's cycles" c2 (Profile.Recorder.total_cycles r);
  Alcotest.(check int) "native attribution balances the native clock" (native1 - native0)
    Profile.Recorder.(
      tier_cycles r Profile.T_native_gen + tier_cycles r Profile.T_native_spec
      + tier_cycles r Profile.T_native_widened);
  (* A fault plan armed on a warm engine forces a native bailout; disarmed,
     the next run costs what the plain one did. *)
  let e = Engine.make cfg program in
  ignore (next_run e);
  let bailouts () =
    Telemetry.Counters.total (Telemetry.counters (Engine.telemetry e)) Telemetry.Key.bailouts
  in
  let b0 = bailouts () in
  Engine.set_faults e (Faults.make ~seed:1 [ (Faults.Exec_guard, Faults.Nth 1) ]);
  ignore (next_run e);
  Alcotest.(check int) "the armed plan forced one bailout" (b0 + 1) (bailouts ());
  Engine.set_faults e Faults.none;
  Alcotest.(check int) "disarmed, the plain run's cycles" c3 (next_run e);
  (* A deadline that admits one cold and one warm run but not both
     together: each run checks against its own start, and the long third
     run trips it. *)
  let budget = c1 + (c2 / 2) in
  Alcotest.(check bool) "the third run is over budget" true (c3 > budget);
  let e = Engine.make { cfg with Engine.deadline = budget } program in
  ignore (next_run e);
  Alcotest.(check int) "a warm run under a deadline costs the plain run's cycles" c2
    (next_run e);
  match Engine.run e with
  | exception Engine.Deadline_exceeded { dl_limit; _ } ->
    Alcotest.(check int) "tripped at the budget" budget dl_limit
  | _ -> Alcotest.fail "expected Deadline_exceeded"

(* A runtime error raised deep inside nested native calls unwinds through
   every call and escapes [Engine.run]; the engine's call depth must come
   back with it, or a warm engine (the service reuses them) would refuse
   good recursion from then on. Run 2 recurses without bound after its
   usual work; run 3 must reach depth 190 of 200 again. *)
let test_depth_restored_on_unwind () =
  let src =
    "function down(n) { if (n == 0) return 0; return 1 + down(n - 1); }\n\
     var runs; if (runs == undefined) runs = 0; runs = runs + 1;\n\
     var r = 0; for (var i = 0; i < 20; i++) r = down(190);\n\
     if (runs == 2) down(100000);\n\
     print(r);"
  in
  let e =
    Engine.make
      (Engine.default_config ~opt:Pipeline.best ~max_depth:200 ())
      (Bytecode.Compile.program_of_source src)
  in
  let result () =
    let out = ref "" in
    ignore (Builtins.with_print_hook (fun s -> out := s) (fun () -> Engine.run e));
    !out
  in
  Alcotest.(check string) "first run" "190" (result ());
  Alcotest.check_raises "runaway recursion" (Engine.Runtime_error "stack overflow") (fun () ->
      ignore (Engine.run e));
  Alcotest.(check bool) "it ran native" true
    (Telemetry.Counters.total (Telemetry.counters (Engine.telemetry e)) Telemetry.Key.cache_hits
    > 0);
  Alcotest.(check string) "the same depth again" "190" (result ())

let suites =
  [
    ( "engine.policy",
      [
        Alcotest.test_case "cold functions stay interpreted" `Quick
          test_cold_functions_never_compile;
        Alcotest.test_case "hot function specializes" `Quick
          test_hot_function_compiles_specialized;
        Alcotest.test_case "deopt and blacklist" `Quick test_deopt_and_blacklist;
        Alcotest.test_case "argument cache hit" `Quick test_cache_hit_on_same_args;
        Alcotest.test_case "identity-keyed cache" `Quick test_object_identity_cache;
        Alcotest.test_case "interp-only mode" `Quick test_interp_only_never_compiles;
        Alcotest.test_case "hot calls off the callee's arity" `Quick test_arity_edge_calls;
      ] );
    ( "engine.osr",
      [
        Alcotest.test_case "hot loop OSR" `Quick test_osr_compiles_hot_loop;
        Alcotest.test_case "toplevel OSR" `Quick test_toplevel_osr;
        Alcotest.test_case "OSR inside for-in" `Quick test_osr_in_for_in_loop;
        Alcotest.test_case "OSR binary reused via entry" `Quick
          test_osr_binary_reused_via_entry;
      ] );
    ( "engine.bailout",
      [
        Alcotest.test_case "resume preserves semantics" `Quick
          test_bailout_resumes_correctly;
        Alcotest.test_case "bailout counter discards binaries" `Quick
          test_bailout_counter_discards;
      ] );
    ( "engine.misc",
      [
        Alcotest.test_case "report accounting" `Quick test_report_accounting;
        Alcotest.test_case "runtime errors surface" `Quick test_runtime_error_surfaces;
        Alcotest.test_case "a raising compile is contained" `Quick
          test_compile_exception_contained;
        Alcotest.test_case "closure environments" `Quick
          test_closure_specialization_per_instance;
        Alcotest.test_case "cache-size extension (§6)" `Quick test_cache_size_extension;
        Alcotest.test_case "selective specialization keeps stable args" `Quick
          test_selective_specialization;
        Alcotest.test_case "selective narrowing settles" `Quick
          test_selective_narrows_then_settles;
        Alcotest.test_case "selective all-varying goes generic" `Quick
          test_selective_all_varying_goes_generic;
        Alcotest.test_case "LRU: rejected probes do not refresh last_use" `Quick
          test_lru_missing_probe_no_refresh;
        QCheck_alcotest.to_alcotest ~long:false prop_report_invariants;
        Alcotest.test_case "deterministic accounting" `Quick test_engine_determinism;
      ] );
    ( "engine.warm",
      [
        Alcotest.test_case "the callbacks record follows what it reads" `Quick
          test_callbacks_follow_settings;
        Alcotest.test_case "depth is restored on unwind" `Quick test_depth_restored_on_unwind;
      ] );
    ( "engine.isolation",
      [ Alcotest.test_case "two engines interleaved on one domain" `Quick test_engines_interleave ] );
  ]
