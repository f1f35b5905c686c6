(* vs-bg-check: the @bg gate.

   Three modes over a fixed workload set (two V8 members + a synthetic
   web request + an operand-drift schedule):

   - default: one summary line per (workload, policy) cell with the
     engine's model-cycle split and the bg counter footprint. The alias
     diffs it against the committed bg_check.expected, and --jobs 4
     against --jobs 1: the deterministic completion model must make the
     whole summary byte-identical however the physical compiles are
     scheduled.
   - --identity: every cell runs bg-off and bg-on; the program output
     must agree, the bg-on run must never charge a synchronous compile
     cycle, and the bg-off run must carry zero bg footprint (the flag off
     is the engine that predates the queue).
   - --overflow-smoke: a many-hot-functions program on a depth-1 queue;
     the overflow path must fire and the output must still agree with
     the synchronous engine.

   Exits 1 on the first violation. *)

let jobs = ref 1
let mode = ref `Summary

let () =
  Arg.parse
    [
      ("--identity", Arg.Unit (fun () -> mode := `Identity), " bg-off vs bg-on agreement");
      ( "--overflow-smoke",
        Arg.Unit (fun () -> mode := `Overflow),
        " depth-1 queue overflow path" );
      ("--jobs", Arg.Set_int jobs, "N pool size (default 1)");
    ]
    (fun a ->
      Printf.eprintf "unexpected argument %S\n" a;
      exit 2)
    "vs-bg-check [--identity|--overflow-smoke] [--jobs N]"

let member suite name =
  let s = List.find (fun (s : Suite.t) -> s.Suite.s_name = suite) Suites.all in
  let m = List.find (fun (m : Suite.member) -> m.Suite.m_name = name) s.Suite.members in
  m.Suite.m_source

let drift_src =
  "function f(x) { return (x * 3 + 1) | 0; }\n\
   var t = 0;\n\
   for (var i = 0; i < 40; i++) t = (t + f(5)) | 0;\n\
   for (var i = 0; i < 60; i++) t = (t + f(i)) | 0;\n\
   print(t);"

let workloads () =
  [
    ("richards", member "V8 version 6" "richards");
    ("deltablue", member "V8 version 6" "deltablue");
    ("web-request", Web.request_source ~seed:7);
    ("drift", drift_src);
  ]

let policies = [ ("paper", Policy.Paper); ("polyvariant", Policy.Polyvariant) ]

let cfg ~bg ~policy =
  Engine.default_config ~opt:Pipeline.all_on ~policy ~cache_size:4 ~bg_compile:bg
    ~bg_queue_depth:8 ()

let run_engine cfg src =
  Runtime.Builtins.with_print_hook ignore (fun () ->
      let engine = Engine.make cfg (Bytecode.Compile.program_of_source src) in
      let report = Engine.run engine in
      (engine, report))

let run_capture cfg src =
  let buf = Buffer.create 256 in
  Runtime.Builtins.with_print_hook
    (fun s ->
      Buffer.add_string buf s;
      Buffer.add_char buf '\n')
    (fun () ->
      let engine = Engine.make cfg (Bytecode.Compile.program_of_source src) in
      let report = Engine.run engine in
      (engine, report, Buffer.contents buf))

let total engine name =
  Telemetry.Counters.total (Telemetry.counters (Engine.telemetry engine)) name

let bg_keys =
  Telemetry.Key.
    [ bg_queued; bg_installed; bg_cancelled; bg_superseded; bg_overflow;
      bg_osr_entries; bg_osr_stale ]

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("bg-check: " ^ s); exit 1) fmt

let summary () =
  List.iter
    (fun (wname, src) ->
      List.iter
        (fun (pname, policy) ->
          let engine, r = run_engine (cfg ~bg:true ~policy) src in
          Printf.printf "%-12s %-11s total=%d interp=%d native=%d compile=%d bg=%d %s\n"
            wname pname r.Engine.total_cycles r.Engine.interp_cycles r.Engine.native_cycles
            r.Engine.compile_cycles r.Engine.bg_compile_cycles
            (String.concat " "
               (List.map (fun k -> Printf.sprintf "%s=%d" k (total engine k)) bg_keys)))
        policies)
    (workloads ())

let identity () =
  List.iter
    (fun (wname, src) ->
      List.iter
        (fun (pname, policy) ->
          let off_engine, off_r, off_out = run_capture (cfg ~bg:false ~policy) src in
          let on_engine, on_r, on_out = run_capture (cfg ~bg:true ~policy) src in
          if off_out <> on_out then
            fail "%s/%s: bg-on output diverges from bg-off" wname pname;
          if on_r.Engine.compile_cycles <> 0 then
            fail "%s/%s: bg-on charged %d synchronous compile cycles" wname pname
              on_r.Engine.compile_cycles;
          if off_r.Engine.bg_compile_cycles <> 0 then
            fail "%s/%s: bg-off charged off-clock cycles" wname pname;
          List.iter
            (fun k ->
              if total off_engine k <> 0 then fail "%s/%s: bg-off bumped %s" wname pname k)
            bg_keys;
          if total on_engine Telemetry.Key.bg_queued = 0 then
            fail "%s/%s: bg-on never used the queue" wname pname;
          ignore off_engine)
        policies)
    (workloads ());
  print_endline "bg-check identity: bg-off is clean, bg-on never stalls, outputs agree"

let overflow () =
  let src =
    "function a(x) { return (x + 1) | 0; }\n\
     function b(x) { return (x + 2) | 0; }\n\
     function c(x) { return (x + 3) | 0; }\n\
     function d(x) { return (x + 4) | 0; }\n\
     var t = 0;\n\
     for (var i = 0; i < 50; i++) t = (t + a(1) + b(2) + c(3) + d(4)) | 0;\n\
     print(t);"
  in
  let shallow =
    Engine.default_config ~opt:Pipeline.all_on ~bg_compile:true ~bg_queue_depth:1 ()
  in
  let engine, r, out = run_capture shallow src in
  let _, _, sync_out = run_capture (Engine.default_config ~opt:Pipeline.all_on ()) src in
  if out <> sync_out then fail "overflow: output diverges from the synchronous engine";
  if total engine Telemetry.Key.bg_overflow = 0 then
    fail "overflow: a depth-1 queue never overflowed";
  if r.Engine.compile_cycles <> 0 then fail "overflow: synchronous compile cycles charged";
  Printf.printf "bg-check overflow: %d requests dropped at depth 1, output intact\n"
    (total engine Telemetry.Key.bg_overflow)

let () =
  Pool.set_default_jobs !jobs;
  match !mode with
  | `Summary -> summary ()
  | `Identity -> identity ()
  | `Overflow -> overflow ()
