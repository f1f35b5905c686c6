(* jsvm: run a MiniJS file under the VM.

   Examples:
     jsvm program.js                       # JIT with the baseline pipeline
     jsvm --no-jit program.js              # pure interpretation
     jsvm --spec program.js                # value specialization (all opts)
     jsvm --config PS+CP+DCE program.js    # a specific Figure 9 column
     jsvm --stats program.js               # engine report + counters
     jsvm --trace program.js               # JIT event stream on stderr
     jsvm --trace-json t.jsonl program.js  # same stream, as JSONL
     jsvm --profile program.js             # per-function cycle attribution
     jsvm --profile-folded p.folded x.js   # flamegraph folded stacks
     jsvm --trace-spans t.json x.js        # Chrome trace (Perfetto) spans *)

let find_config name =
  if String.lowercase_ascii name = "baseline" then Some Pipeline.baseline
  else
    List.find_opt
      (fun c -> String.lowercase_ascii c.Pipeline.name = String.lowercase_ascii name)
      Pipeline.figure9_configs

(* Pool utilization for the differential modes (--check / --chaos fan their
   configuration runs out over the domain pool). Printed only when a pool
   was actually created; join_wait is wall-clock, so this section is
   diagnostic output, not part of the deterministic report. *)
let print_pool_stats () =
  match Pool.peek_default () with
  | None -> ()
  | Some pool ->
    let s = Pool.stats pool in
    print_endline "-- pool utilization --";
    Printf.printf "jobs=%d steals=%d joins=%d join_wait=%.3fs tasks/participant=[%s]\n"
      s.Pool.st_jobs s.Pool.st_steals s.Pool.st_joins s.Pool.st_join_wait
      (String.concat ";" (Array.to_list (Array.map string_of_int s.Pool.st_tasks)))

(* Report the first disagreement of a differential run (--check, --chaos)
   and exit 1. *)
let fail_differential failure =
  (match failure with
  | Fuzz_diff.Mismatch m ->
    Printf.printf "MISMATCH under %s\n-- interpreter --\n%s-- %s --\n%s" m.Fuzz_diff.mm_config
      m.Fuzz_diff.mm_expected m.Fuzz_diff.mm_config m.Fuzz_diff.mm_got
  | Fuzz_diff.Verifier_diag { vd_config; vd_diag } ->
    Printf.printf "VERIFIER DIAGNOSTIC under %s\n%s\n" vd_config (Diag.to_string vd_diag));
  exit 1

let run_file path no_jit spec selective policy_name cache_size code_cache_bytes max_depth
    bg_compile compile_queue_depth config_name
    stats trace trace_json trace_spans flight_file profile_folded dump_bytecode dump_mir
    profile check chaos jobs =
  (match jobs with Some n -> Pool.set_default_jobs n | None -> ());
  let src = In_channel.with_open_text path In_channel.input_all in
  (match chaos with
  | None -> ()
  | Some seed -> (
    (* Chaos differential: the fault plan sampled from SEED is injected
       into every JIT configuration; all of them must still produce the
       pure interpreter's output. *)
    let plan = Faults.sample seed in
    Printf.printf "chaos plan: %s\n" (Faults.describe plan);
    match Fuzz_diff.check_chaos ~seed src with
    | None ->
      Printf.printf "ok: %d configurations survive the fault plan\n"
        (List.length Fuzz_diff.default_configs);
      if stats then print_pool_stats ();
      exit 0
    | Some failure -> fail_differential failure));
  if check then begin
    (* Differential mode: run under the interpreter and every JIT
       configuration (including the selective / k-entry-cache / SCCP
       extensions) and report the first disagreement. *)
    match Fuzz_diff.check src with
    | None ->
      Printf.printf "ok: interpreter and %d configurations agree\n"
        (List.length Fuzz_diff.default_configs);
      if stats then print_pool_stats ();
      exit 0
    | Some failure -> fail_differential failure
  end;
  let policy =
    match Policy.kind_of_string policy_name with
    | Some k -> k
    | None ->
      prerr_endline ("unknown policy: " ^ policy_name ^ " (expected 'paper' or 'polyvariant')");
      exit 2
  in
  let opt =
    match config_name with
    | Some name -> (
      match find_config name with
      | Some c -> c
      | None ->
        prerr_endline
          ("unknown config: " ^ name ^ " (expected 'baseline' or a Figure 9 column name)");
        exit 2)
    | None ->
      if spec || selective || policy = Policy.Polyvariant then Pipeline.all_on
      else Pipeline.baseline
  in
  let cfg =
    {
      (Engine.default_config ~opt ~policy ~cache_size ~selective ~code_cache_bytes
         ~max_depth ~bg_compile ~bg_queue_depth:compile_queue_depth ())
      with
      Engine.jit = not no_jit
    }
  in
  match Bytecode.Compile.program_of_source src with
  | exception Jsfront.Lexer.Error (pos, msg) ->
    Printf.eprintf "%s:%s: lexical error: %s\n" path (Jsfront.Pos.to_string pos) msg;
    exit 1
  | exception Jsfront.Parser.Error (pos, msg) ->
    Printf.eprintf "%s:%s: syntax error: %s\n" path (Jsfront.Pos.to_string pos) msg;
    exit 1
  | exception Bytecode.Compile.Error msg ->
    Printf.eprintf "%s: compile error: %s\n" path msg;
    exit 1
  | program -> (
    if dump_bytecode then print_endline (Bytecode.Program.disassemble program);
    let dump_mir_of f =
      Printf.printf "-- optimized MIR (%s%s) --\n" f.Mir.source.Bytecode.Program.name
        (match f.Mir.key with
        | Spec_key.Key_values _ -> ", specialized"
        | Spec_key.Key_tags _ | Spec_key.Key_generic -> "");
      print_string (Mir.to_string f)
    in
    (* The cycle-attribution recorder (--profile tables, --profile-folded). *)
    let recorder =
      if profile || profile_folded <> None then Some (Profile.Recorder.create ~program)
      else None
    in
    let engine = Engine.make cfg program in
    Option.iter (Engine.attach_profile engine) recorder;
    let spans_acc = ref [] in
    if trace_spans <> None then
      Telemetry.attach_span (Engine.telemetry engine) (fun s -> spans_acc := s :: !spans_acc);
    (* The flight recorder keeps the engine's events as its hub stamped
       them; quarantines and deopt storms self-trigger dumps, and the run
       adds its own trigger on a fault or at end of run. *)
    let flight =
      Option.map
        (fun _ ->
          let fl = Flight.create () in
          Flight.attach fl (Engine.telemetry engine);
          fl)
        flight_file
    in
    let dump_flight ~trigger ~detail =
      match (flight, flight_file) with
      | Some fl, Some file ->
        if trigger <> "" then
          Flight.trigger fl ~trigger ~detail ~at:(Engine.clock engine);
        Out_channel.with_open_text file (fun oc -> Flight.output_jsonl oc (Flight.dumps fl))
      | _ -> ()
    in
    if trace then Telemetry.attach (Engine.telemetry engine) (Telemetry.text_sink stderr);
    let json_oc =
      Option.map
        (fun file ->
          let oc = open_out file in
          Telemetry.attach (Engine.telemetry engine) (Telemetry.jsonl_sink oc);
          oc)
        trace_json
    in
    let run () = Engine.run engine in
    match if dump_mir then Engine.with_mir_hook dump_mir_of run else run () with
    | exception Engine.Runtime_error msg ->
      Option.iter close_out json_oc;
      dump_flight ~trigger:"fault" ~detail:msg;
      Printf.eprintf "%s: runtime error: %s\n" path msg;
      exit 1
    | report ->
      Option.iter close_out json_oc;
      (* End-of-run dump only when nothing self-triggered: the on-demand
         post-mortem; a run with quarantine dumps keeps exactly those. *)
      (match flight with
      | Some fl when Flight.dumps fl = [] ->
        dump_flight ~trigger:"end-of-run" ~detail:path
      | Some _ -> dump_flight ~trigger:"" ~detail:""
      | None -> ());
      Option.iter
        (fun file ->
          Out_channel.with_open_text file (fun oc ->
              Telemetry.output_chrome_trace oc (List.rev !spans_acc)))
        trace_spans;
      (match (recorder, profile_folded) with
      | Some r, Some file ->
        Out_channel.with_open_text file (fun oc ->
            output_string oc (Profile.Recorder.folded r))
      | _ -> ());
      (match recorder with
      | Some r when profile ->
        print_endline "-- cycle attribution --";
        print_string (Profile.Recorder.table r);
        (* Sanity anchor: the attribution is exact by construction. *)
        Printf.printf "attributed=%d of total=%d\n" (Profile.Recorder.total_cycles r)
          report.Engine.total_cycles;
        print_endline "-- native execution profile --";
        print_string (Profile.Recorder.op_table r)
      | _ -> ());
      if stats then begin
        Printf.printf "-- engine report (%s%s) --\n" opt.Pipeline.name
          (if no_jit then ", jit off" else "");
        Printf.printf "cycles: total=%d interp=%d native=%d compile=%d\n"
          report.Engine.total_cycles report.Engine.interp_cycles
          report.Engine.native_cycles report.Engine.compile_cycles;
        if bg_compile then
          Printf.printf "bg-compile cycles (off-clock)=%d\n" report.Engine.bg_compile_cycles;
        Printf.printf
          "compilations=%d recompilations=%d specialized=%d successful=%d deoptimized=%d\n"
          report.Engine.compilations report.Engine.recompilations
          report.Engine.specialized_funcs report.Engine.successful_funcs
          report.Engine.deoptimized_funcs;
        List.iter
          (fun (f : Engine.func_report) ->
            if f.Engine.fr_compiles > 0 then
              Printf.printf "  %-24s calls=%-6d compiles=%d bailouts=%d%s%s sizes=[%s]\n"
                f.Engine.fr_name f.Engine.fr_calls f.Engine.fr_compiles
                f.Engine.fr_bailouts
                (if f.Engine.fr_was_specialized then " specialized" else "")
                (if f.Engine.fr_deoptimized then " deoptimized" else "")
                (String.concat ";"
                   (List.map
                      (fun (s, n) -> Printf.sprintf "%s%d" (if s then "spec:" else "gen:") n)
                      f.Engine.fr_sizes)))
          report.Engine.functions;
        (* The counter registry the report above is derived from. *)
        let c = Telemetry.counters (Engine.telemetry engine) in
        (match Telemetry.Counters.rows c with
        | [] -> ()
        | rows ->
          print_endline "-- telemetry counters --";
          print_string
            (Support.Table.render ~header:[ "counter"; "total" ]
               ~rows:(List.map (fun (k, v) -> [ k; string_of_int v ]) rows)
               ());
          List.iter
            (fun (f : Engine.func_report) ->
              if f.Engine.fr_compiles > 0 then
                Printf.printf "  %s: %s\n" f.Engine.fr_name
                  (String.concat " "
                     (List.map
                        (fun (k, v) -> Printf.sprintf "%s=%d" k v)
                        (Telemetry.Counters.fid_rows c f.Engine.fr_fid))))
            report.Engine.functions);
        print_pool_stats ()
      end)

open Cmdliner

let path_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"MiniJS source file")

let no_jit = Arg.(value & flag & info [ "no-jit" ] ~doc:"Interpret only; never compile.")

let spec =
  Arg.(
    value & flag
    & info [ "spec" ]
        ~doc:"Enable parameter-based value specialization with every optimization.")

let selective =
  Arg.(
    value & flag
    & info [ "selective" ]
        ~doc:
          "Selective specialization: burn in only arguments observed value-stable; \
           implies --spec unless --config overrides the pipeline.")

let policy_arg =
  Arg.(
    value & opt string "paper"
    & info [ "policy" ] ~docv:"POLICY"
        ~doc:
          "Specialization policy: $(b,paper) (one-entry cache, miss deoptimizes and \
           blacklists, \u{00a7}4) or $(b,polyvariant) (multi-entry version cache; a miss \
           widens values\u{2192}tags\u{2192}generic instead of discarding). Implies --spec's \
           pipeline for $(b,polyvariant).")

let cache_size =
  Arg.(
    value & opt int 1
    & info [ "cache-size" ] ~docv:"K"
        ~doc:
          "Specialized binaries cached per function (the paper uses 1; larger values \
           are the section-6 extension).")

let code_cache_bytes =
  Arg.(
    value & opt int 0
    & info [ "code-cache-bytes" ] ~docv:"N"
        ~doc:
          "Global code-cache byte budget across all functions, with cross-function LRU \
           eviction on admission (0 = unbounded).")

let max_depth =
  Arg.(
    value & opt int Interp.default_max_depth
    & info [ "max-depth" ] ~docv:"N"
        ~doc:
          "MiniJS call-depth limit; deeper recursion is a runtime error ('stack \
           overflow') instead of a process crash.")

let bg_compile_arg =
  Arg.(
    value & flag
    & info [ "bg-compile" ]
        ~doc:
          "Background tiered compilation: hot functions and loops enqueue compile \
           requests on a bounded queue and keep interpreting; finished binaries are \
           picked up at later calls, and a still-hot loop transfers into its binary at \
           a loop edge (OSR). Artifact visibility follows a deterministic completion \
           model, so output and the engine report are byte-identical at any --jobs; \
           background compile cycles are reported off the model clock.")

let compile_queue_depth =
  Arg.(
    value & opt int 8
    & info [ "compile-queue-depth" ] ~docv:"N"
        ~doc:
          "In-flight background compile requests admitted before further requests are \
           dropped (with --bg-compile; counted under bg.overflow).")

let config_name =
  Arg.(
    value
    & opt (some string) None
    & info [ "config" ] ~docv:"NAME"
        ~doc:"Optimization configuration: 'baseline' or a Figure 9 column, e.g. PS+CP+DCE.")

let stats =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:"Print the engine report and the telemetry counter registry after the run.")

let trace =
  Arg.(
    value & flag
    & info [ "trace" ]
        ~doc:
          "Stream JIT events (compiles, cache probes, specializations, bailouts, \
           deoptimizations, blacklists, OSR entries) to stderr as they happen.")

let trace_json =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-json" ] ~docv:"FILE"
        ~doc:"Write the JIT event stream to $(docv) as JSON Lines.")

let trace_spans =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-spans" ] ~docv:"FILE"
        ~doc:
          "Write engine lifecycle spans (interpret, compile with per-pass children, \
           codegen, native runs, bailouts, OSR) to $(docv) as Chrome trace-event JSON \
           on the model-cycle clock — load it in Perfetto or chrome://tracing.")

let flight_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "flight-recorder" ] ~docv:"FILE"
        ~doc:
          "Record the most recent JIT events in a bounded ring and write \
           post-mortem dumps to $(docv) as JSONL: automatically on a quarantine, \
           deopt storm or runtime fault (the window leading up to it), otherwise \
           once at end of run. Timestamps are model cycles, so dumps are \
           byte-reproducible.")

let profile_folded =
  Arg.(
    value
    & opt (some string) None
    & info [ "profile-folded" ] ~docv:"FILE"
        ~doc:
          "Write the cycle attribution as folded stacks \
           (function;tier;pass;category cycles) to $(docv), ready for any flamegraph \
           tool.")

let dump_bytecode =
  Arg.(value & flag & info [ "dump-bytecode" ] ~doc:"Disassemble the program before running.")

let dump_mir =
  Arg.(
    value & flag
    & info [ "dump-mir" ]
        ~doc:"Print each function's optimized MIR graph as it is compiled.")

let check =
  Arg.(
    value & flag
    & info [ "check" ]
        ~doc:
          "Differential check: run the program under the interpreter and every JIT \
           configuration and report the first disagreement (exit 1).")

let profile =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:
          "Print the per-function cycle-attribution table (interp / native-gen / \
           native-spec / compile split plus the native guard/alu/mem percentages) and \
           the per-opcode execution profile of the compiled code after the run.")

let chaos =
  Arg.(
    value
    & opt (some int) None
    & info [ "chaos" ] ~docv:"SEED"
        ~doc:
          "Chaos differential: inject the deterministic fault plan sampled from $(docv) \
           (aborted compilations, rejected binaries, forced guard bailouts, cache \
           exhaustion) into every JIT configuration and require the interpreter's \
           output from all of them (exit 1 on divergence).")

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Domains the differential modes (--check, --chaos) fan their configuration \
           runs out over (default: \\$(b,VS_JOBS) or the machine's core count, capped \
           at 8); 1 runs serially. Output is byte-identical at any value.")

let cmd =
  let doc = "Run MiniJS programs under a JIT with parameter-based value specialization" in
  Cmd.v
    (Cmd.info "jsvm" ~version:"1.0" ~doc)
    Term.(
      const run_file $ path_arg $ no_jit $ spec $ selective $ policy_arg $ cache_size
      $ code_cache_bytes $ max_depth $ bg_compile_arg $ compile_queue_depth
      $ config_name $ stats $ trace $ trace_json
      $ trace_spans $ flight_arg $ profile_folded $ dump_bytecode $ dump_mir $ profile
      $ check $ chaos $ jobs_arg)

let () = exit (Cmd.eval cmd)
