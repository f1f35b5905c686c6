(* The benchmark harness: regenerates every table and figure of the paper
   (deterministic model-cycle measurements through the experiment drivers)
   and then takes Bechamel wall-clock measurements of the VM itself — one
   Test.make per table/figure driver plus ablation benches for the design
   choices DESIGN.md calls out.

     dune exec bench/main.exe                  # everything below
     dune exec bench/main.exe -- tables        # only the paper tables
     dune exec bench/main.exe -- attribution   # per-pass compile-time split
     dune exec bench/main.exe -- wall          # only the Bechamel measurements *)

open Bechamel
open Toolkit

(* Domain-safe print silencing: the hook is a [Support.Tls] slot now, so
   this composes with the drivers fanning out over the pool. *)
let quiet f = Runtime.Builtins.with_print_hook ignore f

(* ------------------------------------------------------------------ *)
(* Part 1: the paper's tables and figures (model cycles)               *)
(* ------------------------------------------------------------------ *)

let print_tables () =
  print_endline "==================================================================";
  print_endline " Figures 1, 2 and 4 (web)";
  print_endline "==================================================================";
  Fig_web.print (Fig_web.run ());
  print_endline "\n==================================================================";
  print_endline " Figure 3 and Figure 4 (benchmark suites)";
  print_endline "==================================================================";
  Fig_suite_calls.print (Fig_suite_calls.run ());
  print_endline "\n==================================================================";
  print_endline " Figure 9 (runtime speedup and compilation overhead)";
  print_endline "==================================================================";
  Fig_speedup.print (Fig_speedup.run ());
  print_endline "\n==================================================================";
  print_endline " Figure 10 (code size) and the web code-size study";
  print_endline "==================================================================";
  Fig_codesize.print (Fig_codesize.run_suites ()) (Fig_codesize.run_sites ());
  print_endline "\n==================================================================";
  print_endline " Section 4: specialization policy and recompilations";
  print_endline "==================================================================";
  Fig_policy.print (Fig_policy.run ());
  print_newline ();
  Fig_recompile.print (Fig_recompile.run ())

(* ------------------------------------------------------------------ *)
(* Part 2: ablations over the cost model (DESIGN.md design choices)    *)
(* ------------------------------------------------------------------ *)

let member_of suite_name member_name =
  let suite = Option.get (Suites.find suite_name) in
  List.find (fun (m : Suite.member) -> m.Suite.m_name = member_name) suite.Suite.members

let cycles cfg (m : Suite.member) =
  quiet (fun () -> (Engine.run_source cfg m.Suite.m_source).Engine.total_cycles)

let cfg_of opt = Engine.default_config ~opt ()

let print_ablations () =
  let pct base v =
    Support.Stats.percent_change ~base:(float_of_int base) ~v:(float_of_int v)
  in
  print_endline "\n==================================================================";
  print_endline
    " Ablations (model cycles; positive % = variant costs more than PS+CP+DCE)";
  print_endline "==================================================================";
  let bench_row name m pairs =
    let base = cycles (cfg_of Pipeline.best) m in
    Printf.printf "%-34s PS+CP+DCE = %d cycles\n" name base;
    List.iter
      (fun (label, opt) ->
        let v = cycles (cfg_of opt) m in
        Printf.printf "  %-32s %10d  (%+.2f%%)\n" label v (pct v base))
      pairs
  in
  (* Store-conservative alias rule vs the precise rule (§4's explanation of
     why the paper's BCE rarely paid off). *)
  bench_row "bce alias rule (imaging-desaturate)"
    (member_of "kraken 1.1" "imaging-desaturate")
    [
      ("conservative BCE", Pipeline.make ~ps:true ~cp:true ~dce:true ~bce:true "a");
      ( "precise-alias BCE",
        Pipeline.make ~ps:true ~cp:true ~dce:true ~bce:true ~precise_alias:true "b" );
      ( "precise + overflow elim (S6)",
        Pipeline.make ~ps:true ~cp:true ~dce:true ~bce:true ~precise_alias:true
          ~overflow_elim:true "c" );
    ];
  (* §3.3's algorithm choice: the paper uses Aho's branch-insensitive
     constant propagation "for compile-time economy"; the Sccp pass
     measures what Wegman-Zadeck conditional propagation would add. *)
  bench_row "constprop algorithm (richards)"
    (member_of "v8 version 6" "richards")
    [
      ("Aho (paper §3.3)", Pipeline.make ~ps:true ~cp:true ~dce:true "h");
      ("Wegman-Zadeck SCCP", Pipeline.make ~ps:true ~sccp:true ~dce:true "i");
    ];
  (* The baseline passes the whole study stands on. *)
  bench_row "baseline passes (bits-in-byte)"
    (member_of "sunspider 1.0" "bitops-bits-in-byte")
    [
      ("without GVN", Pipeline.make ~ps:true ~cp:true ~dce:true ~gvn:false "d");
      ("without LICM", Pipeline.make ~ps:true ~cp:true ~dce:true ~licm:false "e");
      ("with loop inversion", Pipeline.make ~ps:true ~cp:true ~dce:true ~li:true "f");
      ( "with loop unrolling (S6)",
        Pipeline.make ~ps:true ~cp:true ~dce:true ~loop_unroll:true "g" );
    ];
  (* S6's cache-size tradeoff: "we cache only one binary per function...
     more experiments are necessary to confirm this hypothesis". The
     md5 mixers see always-different arguments, so extra cache entries only
     delay the inevitable deoptimization; crypto (two alternating argument
     shapes in its driver) can profit. *)
  print_endline "\nspecialization cache size (S6 future work):";
  List.iter
    (fun (sname, mname) ->
      let m = member_of sname mname in
      Printf.printf "  %-26s" mname;
      List.iter
        (fun k ->
          let cfg = Engine.default_config ~opt:Pipeline.all_on ~cache_size:k () in
          let r =
            quiet (fun () -> Engine.run_source cfg m.Suite.m_source)
          in
          Printf.printf "  k=%d: %9d (deopt %d)" k r.Engine.total_cycles
            r.Engine.deoptimized_funcs)
        [ 1; 2; 4 ];
      print_newline ())
    [ ("sunspider 1.0", "crypto-md5"); ("v8 version 6", "crypto") ];
  (* Selective specialization (extension): on mixed-stability call sites the
     paper's policy deoptimizes and blacklists, a k-entry cache thrashes,
     and selective narrowing keeps the stable arguments burned in. richards
     passes stable task closures next to per-packet state; the web workloads
     are the paper's §2 motivation with exactly this profile. *)
  print_endline "\ndeoptimization policy on mixed-stability arguments:";
  let policies =
    [
      ("one-entry (paper §4)", Engine.default_config ~opt:Pipeline.all_on ());
      ("4-entry cache (§6)", Engine.default_config ~opt:Pipeline.all_on ~cache_size:4 ());
      ( "selective (extension)",
        Engine.default_config ~opt:Pipeline.all_on ~selective:true () );
    ]
  in
  List.iter
    (fun (sname, mname) ->
      let m = member_of sname mname in
      Printf.printf "  %-26s" mname;
      List.iter
        (fun (label, cfg) ->
          let r = quiet (fun () -> Engine.run_source cfg m.Suite.m_source) in
          Printf.printf "  %s: %9d (deopt %d, compiles %d)" label r.Engine.total_cycles
            r.Engine.deoptimized_funcs r.Engine.compilations)
        policies;
      print_newline ())
    [ ("v8 version 6", "richards"); ("sunspider 1.0", "crypto-md5") ]

(* ------------------------------------------------------------------ *)
(* Part 3: compilation-overhead attribution (telemetry)                *)
(* ------------------------------------------------------------------ *)

(* Where do the compile cycles of Figure 9(c,d) actually go? The engine's
   [Compile_end] events carry per-pass size deltas; since the model charges
   {!Cost.compile_per_mir_instr} per instruction a pass visits, the
   instructions entering each pass attribute the pipeline's share of the
   compile time pass by pass. *)
let print_compile_attribution () =
  print_endline "\n==================================================================";
  print_endline " Compilation overhead attribution (telemetry compile events)";
  print_endline "==================================================================";
  List.iter
    (fun (sname, mname) ->
      let m = member_of sname mname in
      let passes : (string, int * int) Hashtbl.t = Hashtbl.create 16 in
      let spec = ref (0, 0) and gen = ref (0, 0) in
      let sink = function
        | Telemetry.Compile_end e ->
          let bucket = if e.specialized then spec else gen in
          let n, cy = !bucket in
          bucket := (n + 1, cy + e.cycles);
          List.iter
            (fun pd ->
              let runs, visited =
                Option.value (Hashtbl.find_opt passes pd.Telemetry.pd_pass) ~default:(0, 0)
              in
              Hashtbl.replace passes pd.Telemetry.pd_pass
                (runs + 1, visited + pd.Telemetry.pd_before))
            e.passes
        | _ -> ()
      in
      let engine =
        Engine.make (Engine.default_config ~opt:Pipeline.best ())
          (Bytecode.Compile.program_of_source m.Suite.m_source)
      in
      Telemetry.attach (Engine.telemetry engine) sink;
      let r = quiet (fun () -> Engine.run engine) in
      let spec_n, spec_cy = !spec and gen_n, gen_cy = !gen in
      Printf.printf "\n%s: compile=%d cycles (%d specialized: %d; %d generic: %d)\n" mname
        r.Engine.compile_cycles spec_n spec_cy gen_n gen_cy;
      let rows =
        Hashtbl.fold
          (fun pass (runs, visited) acc ->
            let cycles = Cost.compile_per_mir_instr * visited in
            ( cycles,
              [
                pass; string_of_int runs; string_of_int visited; string_of_int cycles;
                Printf.sprintf "%.1f%%"
                  (100. *. float_of_int cycles /. float_of_int (max 1 r.Engine.compile_cycles));
              ] )
            :: acc)
          passes []
        |> List.sort (fun (a, _) (b, _) -> compare b a)
        |> List.map snd
      in
      print_string
        (Support.Table.render
           ~header:[ "pass"; "runs"; "instrs in"; "cycles"; "of compile" ]
           ~rows ()))
    [
      ("sunspider 1.0", "bitops-bits-in-byte"); ("sunspider 1.0", "string-unpack-code");
      ("v8 version 6", "richards");
    ]

(* ------------------------------------------------------------------ *)
(* Part 4: Bechamel wall-clock benches                                 *)
(* ------------------------------------------------------------------ *)

let engine_test name cfg (m : Suite.member) =
  Test.make ~name
    (Staged.stage (fun () ->
         quiet (fun () -> ignore (Engine.run_source cfg m.Suite.m_source))))

let compile_test name ~spec =
  (* Wall-clock cost of one full compilation (build -> passes -> lowering ->
     regalloc) of the paper's running example. *)
  let source =
    "function map(s, b, n, f) { var i = b; while (i < n) { s[i] = f(s[i]); i++; } \
     return s; }"
  in
  let program = Bytecode.Compile.program_of_source source in
  let func = program.Bytecode.Program.funcs.(1) in
  let spec_args =
    if spec then
      Some
        [|
          Runtime.Value.Arr (Runtime.Value.new_arr 8);
          Runtime.Value.Int 0; Runtime.Value.Int 8;
          Runtime.Value.Native_fun "Math.floor";
        |]
    else None
  in
  Test.make ~name
    (Staged.stage (fun () ->
         let f = Builder.build ~program ~func ?spec_args () in
         ignore (Pipeline.apply ~program Pipeline.all_on f);
         ignore (Regalloc.run (Lower.run f))))

(* Guard-heavy microbench for the abstract-interpretation elision pass:
   a hot in-bounds array loop where specialization proves every type,
   array and bounds guard, so the specialized series measures the elided
   loop against the baseline's fully guarded one. Source-based on purpose
   — not a suite member, so the 48-workload sweeps stay as the paper
   defines them. *)
let bounds_hotloop_member =
  Suite.member "bounds_hotloop"
    "function hot(s, n) { var t = 0; for (var i = 0; i < n; i++) t = (t + s[i]) | 0; \
     return t; }\n\
     var a = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16];\n\
     var t = 0; var j = 0; while (j < 200) { t = (t + hot(a, 16)) | 0; j = j + 1; }\n\
     print(t);"

(* The engine-level benches, listed once so BENCH_wall.json can pair each
   wall-clock estimate with the deterministic model-cycle cost of the same
   run — the data needed to recalibrate the cost model against reality. *)
let engine_benches =
  [
    ("fig9_sunspider_bitsinbyte_base", cfg_of Pipeline.baseline, member_of "sunspider 1.0" "bitops-bits-in-byte");
    ("fig9_sunspider_bitsinbyte_spec", cfg_of Pipeline.best, member_of "sunspider 1.0" "bitops-bits-in-byte");
    ("fig9_sunspider_unpack_base", cfg_of Pipeline.baseline, member_of "sunspider 1.0" "string-unpack-code");
    ("fig9_sunspider_unpack_spec", cfg_of Pipeline.best, member_of "sunspider 1.0" "string-unpack-code");
    ("fig9_v8_earleyboyer_base", cfg_of Pipeline.baseline, member_of "v8 version 6" "earley-boyer");
    ("fig9_v8_earleyboyer_spec", cfg_of Pipeline.best, member_of "v8 version 6" "earley-boyer");
    (* The polyvariant recovery of the earley-boyer specialization loss:
       same pipeline as the _spec row, tiered policy, two-slot cache. *)
    ( "fig9_v8_earleyboyer_poly",
      Engine.default_config ~opt:Pipeline.best ~policy:Policy.Polyvariant
        ~cache_size:2 (),
      member_of "v8 version 6" "earley-boyer" );
    ("fig9_kraken_desaturate_base", cfg_of Pipeline.baseline, member_of "kraken 1.1" "imaging-desaturate");
    ("fig9_kraken_desaturate_spec", cfg_of Pipeline.best, member_of "kraken 1.1" "imaging-desaturate");
    ("bounds_hotloop_base", cfg_of Pipeline.baseline, bounds_hotloop_member);
    ("bounds_hotloop_spec", cfg_of Pipeline.all_on, bounds_hotloop_member);
    (* Background tiered compilation on the call-heavy V8 member: the same
       pipeline with compiles routed through the queue. The model companion
       drops by exactly the synchronous compile charge (the fig9(c,d) stall
       the queue removes — bg cycles are off-clock by design); the wall
       pair shows what the physical overlap buys on top. *)
    ("bg_richards_sync", cfg_of Pipeline.all_on, member_of "v8 version 6" "richards");
    ( "bg_richards_bg",
      Engine.default_config ~opt:Pipeline.all_on ~bg_compile:true (),
      member_of "v8 version 6" "richards" );
  ]

(* Service-layer soaks: the forced-overload smoke scenario (bounded queue,
   deadlines, poison tenants, chaos plans) once per policy. Wall-clock
   measures the whole service simulation; the deterministic model-cycle
   companion recorded in BENCH_wall.json is the run's makespan — the
   service-level figure check-model pins, so a silent shift in admission,
   deadline or backoff accounting shows up as drift. *)
let serve_benches =
  [
    ( "serve_soak_paper",
      fun () ->
        { (Serve.smoke_config ()) with
          Serve.engine = Engine.default_config ~opt:Pipeline.all_on () } );
    ("serve_soak_poly", fun () -> Serve.smoke_config ());
    (* The paper-policy soak again with background compilation on. The
       overload scenario is where the queue must get out of the way —
       degrade drains and suppresses it — so this row pins that the
       queue-aware engine keeps the same deterministic makespan shape
       under forced overload, not a latency win (the win is measured by
       the cold-tail pair below, where compiles dominate the tail). *)
    ( "serve_soak_bg",
      fun () ->
        { (Serve.smoke_config ()) with
          Serve.engine = Engine.default_config ~opt:Pipeline.all_on ~bg_compile:true () }
    );
  ]

let serve_makespan cfg = (Serve.run cfg).Serve.sm_makespan

(* Cold-tail SLO pair: a many-tenant scenario (24 tenants over 2
   isolates, no deadlines, no chaos, no poison) where nearly every
   tail>=p95 request is a cold tenant paying its first compiles — the
   PR-8 attribution showed exactly this profile dominating the p99. The
   recorded model companion for these two rows is the served p99 itself,
   so BENCH_wall.json pins the service-level claim: with compiles routed
   off the request path, the cold tail contracts. *)
let serve_cold_config ~bg () =
  Serve.default_config ~isolates:2 ~requests:160 ~tenants:24 ~mean_gap:20000
    ~seed:20130223
    ~engine:(Engine.default_config ~opt:Pipeline.all_on ~bg_compile:bg ())
    ()

let serve_cold_benches =
  [
    ("serve_cold_paper", fun () -> serve_cold_config ~bg:false ());
    ("serve_cold_bg", fun () -> serve_cold_config ~bg:true ());
  ]

let serve_p99 cfg = (Serve.run cfg).Serve.sm_p99

(* Dispatch ablation: the interpreter alone on a hot arithmetic loop — the
   series the dispatch overhaul (exception-based loop exit, unsafe in-bounds
   code fetch, allocation-free operand handling) is measured by. *)
let interp_hotloop_program =
  lazy
    (Bytecode.Compile.program_of_source
       "function work(n) { var s = 0; var i = 0; while (i < n) { s = s + i % 7 + (i * 3 \
        - s % 13); i = i + 1; } return s; }\n\
        var t = 0; var j = 0; while (j < 20) { t = t + work(2500); j = j + 1; } print(t);")

let wall_tests () =
  Test.make_grouped ~name:"vs" ~fmt:"%s.%s"
    ((* One wall-clock series per paper artifact family. *)
     List.map (fun (name, cfg, m) -> engine_test name cfg m) engine_benches
    @ List.map
        (fun (name, cfg) ->
          Test.make ~name (Staged.stage (fun () -> ignore (Serve.run (cfg ())))))
        (serve_benches @ serve_cold_benches)
    @ [
        Test.make ~name:"interp_dispatch_hotloop"
          (Staged.stage (fun () ->
               quiet (fun () -> ignore (Interp.run_program (Lazy.force interp_hotloop_program)))));
        (* Figure 9(c,d): compilation time itself. *)
        compile_test "fig9cd_compile_generic" ~spec:false;
        compile_test "fig9cd_compile_specialized" ~spec:true;
        (* Figures 1/2/4: the workload generator. *)
        Test.make ~name:"fig1_2_4_web_session"
          (Staged.stage (fun () -> ignore (Web.session ~seed:1 ~nfunctions:4000)));
        (* Figure 10: code-size measurement of one site program. *)
        Test.make ~name:"fig10_site_program"
          (Staged.stage (fun () ->
               quiet (fun () ->
                   ignore
                     (Engine.run_source
                        (Engine.default_config ~opt:Pipeline.all_on ())
                        (Web.synthetic_site ~seed:1 Web.google)))));
      ])

(* Machine-readable companion to the wall table: one object per bench with
   the OLS ns/run estimate, its r-square, and (for the engine benches) the
   model cycles the identical run charges. *)
let write_wall_json rows =
  let model_cycles =
    List.map (fun (name, cfg, m) -> ("vs." ^ name, cycles cfg m)) engine_benches
    @ List.map (fun (name, cfg) -> ("vs." ^ name, serve_makespan (cfg ()))) serve_benches
    @ List.map (fun (name, cfg) -> ("vs." ^ name, serve_p99 (cfg ()))) serve_cold_benches
  in
  let oc = open_out "BENCH_wall.json" in
  output_string oc "{\n  \"schema\": \"vs-bench-wall/1\",\n  \"benches\": [\n";
  List.iteri
    (fun i (name, ns, r2) ->
      let opt_f = function Some f -> Printf.sprintf "%.2f" f | None -> "null" in
      Printf.fprintf oc "    { \"name\": %S, \"ns_per_run\": %s, \"r_square\": %s, \"model_cycles\": %s }%s\n"
        name (opt_f ns)
        (match r2 with Some r -> Printf.sprintf "%.4f" r | None -> "null")
        (match List.assoc_opt name model_cycles with
        | Some c -> string_of_int c
        | None -> "null")
        (if i < List.length rows - 1 then "," else ""))
    rows;
  output_string oc "  ]\n}\n";
  close_out oc;
  print_endline "\nwrote BENCH_wall.json"

let run_wall () =
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  (* The long-running soaks (a whole service simulation or a 70ms+ suite
     member per run) need a much bigger sample than the microbenches: at
     0.5s they fit so few points that OLS r-square fell to ~0.75 on the
     recorded rows. Eight times the quota and a raised sample cap give
     every series enough points to ride out scheduler noise and keep
     every recorded row's fit above 0.95. *)
  let cfg = Benchmark.cfg ~limit:400 ~quota:(Time.second 4.0) ~kde:None () in
  let instances = Instance.[ monotonic_clock ] in
  (* One transient noise burst (another process waking mid-series) can sink
     a single series' fit while every neighbour stays clean. Rather than
     discard a whole recording over one bad row, re-measure any series
     whose fit lands under the floor and keep the best attempt. *)
  let r2_floor = 0.95 and max_attempts = 5 in
  let measure elt =
    let rec go best best_r2 attempt =
      let raw = Benchmark.run cfg instances elt in
      let res = Analyze.one ols Instance.monotonic_clock raw in
      let r2 = Option.value ~default:0.0 (Analyze.OLS.r_square res) in
      let best, best_r2 = if r2 > best_r2 then (Some res, r2) else (best, best_r2) in
      if best_r2 >= r2_floor || attempt >= max_attempts then Option.get best
      else go best best_r2 (attempt + 1)
    in
    go None (-1.0) 1
  in
  print_endline "\n==================================================================";
  print_endline " Bechamel wall-clock (ns per run, OLS on monotonic clock)";
  print_endline "==================================================================";
  let rows = ref [] in
  List.iter
    (fun elt ->
      let ols_result = measure elt in
      let ns =
        match Analyze.OLS.estimates ols_result with Some (x :: _) -> Some x | _ -> None
      in
      let r2 = Analyze.OLS.r_square ols_result in
      rows := (Test.Elt.name elt, ns, r2) :: !rows)
    (Test.elements (wall_tests ()));
  let rows = List.sort compare !rows in
  print_string
    (Support.Table.render ~header:[ "bench"; "ns/run"; "r2" ]
       ~rows:
         (List.map
            (fun (name, ns, r2) ->
              [
                name;
                (match ns with Some x -> Printf.sprintf "%.0f" x | None -> "n/a");
                (match r2 with Some r -> Printf.sprintf "%.4f" r | None -> "-");
              ])
            rows)
       ());
  write_wall_json rows;
  (* The service-level claim behind the bg rows, stated in the run log:
     with compiles off the request path, cold tenants stop paying the
     first-compile stall inline and the tail contracts. *)
  let p99 name = serve_p99 ((List.assoc name serve_cold_benches) ()) in
  let sync = p99 "serve_cold_paper" and bg = p99 "serve_cold_bg" in
  Printf.printf "serve cold-tail p99 (model cycles): sync=%d bg=%d (%+.2f%%)\n" sync bg
    (Support.Stats.percent_change ~base:(float_of_int sync) ~v:(float_of_int bg))

(* ------------------------------------------------------------------ *)
(* check-model: guard the committed model cycles                       *)
(* ------------------------------------------------------------------ *)

(* The model cycles in BENCH_wall.json are part of the repo's record: they
   pair each wall-clock estimate with the deterministic cost of the same
   run. Any change to the VM that shifts them must regenerate the file
   deliberately (run `bench wall`), never silently — this mode recomputes
   the engine benches' cycles and fails on drift, and check.sh runs it. *)

(* Minimal extraction from our own writer's output: one bench object per
   line, ["name"] a JSON string, ["model_cycles"] an integer or null,
   ["ns_per_run"] a float or null. *)
let parse_wall_json path =
  let lines = In_channel.with_open_text path In_channel.input_lines in
  (match lines with
  | _ :: schema :: _
    when Support.Strings.contains_substring schema "vs-bench-wall/1" ->
    ()
  | _ ->
    Printf.eprintf "check-model: %s is not a vs-bench-wall/1 file\n" path;
    exit 1);
  List.filter_map
    (fun line ->
      let find_field key =
        let marker = Printf.sprintf "\"%s\": " key in
        Option.map
          (fun i -> i + String.length marker)
          (Support.Strings.find_substring line marker)
      in
      match find_field "name" with
      | None -> None
      | Some start -> (
        match String.index_from_opt line start '"' with
        | None -> None
        | Some _ ->
          let stop = String.index_from line (start + 1) '"' in
          let name =
            Telemetry.json_unescape (String.sub line (start + 1) (stop - start - 1))
          in
          let number_at i charset of_string =
            let j = ref i in
            while !j < String.length line && charset line.[!j] do
              incr j
            done;
            of_string (String.sub line i (!j - i))
          in
          let cycles =
            match find_field "model_cycles" with
            | None -> None
            | Some i ->
              number_at i
                (function '0' .. '9' | '-' -> true | _ -> false)
                int_of_string_opt
          in
          let ns =
            match find_field "ns_per_run" with
            | None -> None
            | Some i ->
              number_at i
                (function '0' .. '9' | '-' | '.' -> true | _ -> false)
                float_of_string_opt
          in
          Some (name, cycles, ns)))
    lines

(* Wall-vs-model divergence advisory: within a family of variants of the
   same workload (names differing only in the last _suffix — base/spec/
   poly, sync/bg, paper/poly), the model may rank the configurations one
   way while the committed wall-clock estimates rank them another. The
   canonical case is fig9_v8_earleyboyer_poly: fewest model cycles of its
   family yet the worst ns/run, because the polyvariant version-cache
   probe is host-side work the cost model charges nothing for (see
   bench/README.md). Rank disagreement marks a cost-model coverage gap,
   not a regression, so this warns and never fails. *)
let warn_rank_disagreements committed =
  let family name =
    match String.rindex_opt name '_' with
    | Some i -> String.sub name 0 i
    | None -> name
  in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (name, cycles, ns) ->
      match (cycles, ns) with
      | Some c, Some n ->
        let fam = family name in
        Hashtbl.replace tbl fam
          ((name, c, n) :: Option.value (Hashtbl.find_opt tbl fam) ~default:[])
      | _ -> ())
    committed;
  Hashtbl.fold (fun fam members acc -> (fam, members) :: acc) tbl []
  |> List.sort compare
  |> List.iter (fun (fam, members) ->
         if List.length members >= 2 then begin
           let names order =
             List.map (fun (n, _, _) -> n) (List.sort order members)
           in
           let by_model = names (fun (_, c1, _) (_, c2, _) -> compare c1 c2) in
           let by_wall = names (fun (_, _, n1) (_, _, n2) -> compare n1 n2) in
           if by_model <> by_wall then begin
             Printf.printf
               "check-model: warning: %s_*: model and wall-clock rank orders disagree \
                (unmodeled host-side cost; see bench/README.md)\n"
               fam;
             Printf.printf "  by model cycles: %s\n" (String.concat " < " by_model);
             Printf.printf "  by ns/run:       %s\n" (String.concat " < " by_wall)
           end
         end)

let check_model () =
  let path = "BENCH_wall.json" in
  if not (Sys.file_exists path) then begin
    Printf.eprintf "check-model: %s not found (run `bench wall` and commit it)\n" path;
    exit 1
  end;
  let committed = parse_wall_json path in
  warn_rank_disagreements committed;
  let current_rows =
    List.map (fun (name, cfg, m) -> ("vs." ^ name, cycles cfg m)) engine_benches
    @ List.map (fun (name, cfg) -> ("vs." ^ name, serve_makespan (cfg ()))) serve_benches
    @ List.map (fun (name, cfg) -> ("vs." ^ name, serve_p99 (cfg ()))) serve_cold_benches
  in
  let drifted =
    List.filter_map
      (fun (name, current) ->
        match
          List.find_map
            (fun (n, cycles, _) -> if n = name then Some cycles else None)
            committed
        with
        | Some (Some c) when c = current -> None
        | Some (Some c) -> Some (name, string_of_int c, current)
        | Some None | None -> Some (name, "absent", current))
      current_rows
  in
  match drifted with
  | [] ->
    Printf.printf "check-model: %d benches match %s\n" (List.length current_rows) path
  | _ ->
    Printf.eprintf "check-model: model cycles drifted from %s:\n" path;
    List.iter
      (fun (name, committed, current) ->
        Printf.eprintf "  %-36s committed=%s current=%d\n" name committed current)
      drifted;
    Printf.eprintf
      "if the change is intentional, regenerate with `dune exec bench/main.exe -- wall`\n";
    exit 1

let print_pool_stats () =
  (* Where the fan-out went: tasks per participant, steals (tasks run by a
     domain other than their submitter) and time spent inside joins. Only
     present when a pool was created (the tables fan out; [wall] alone
     never touches it). *)
  match Pool.peek_default () with
  | None -> ()
  | Some pool ->
    let s = Pool.stats pool in
    Printf.printf
      "\npool utilization: jobs=%d steals=%d joins=%d join_wait=%.3fs tasks/participant=[%s]\n"
      s.Pool.st_jobs s.Pool.st_steals s.Pool.st_joins s.Pool.st_join_wait
      (String.concat ";" (Array.to_list (Array.map string_of_int s.Pool.st_tasks)))

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let want x = args = [] || List.mem x args in
  if List.mem "check-model" args then begin
    (* Standalone gate: just the drift check, nothing else. *)
    check_model ();
    exit 0
  end;
  if want "tables" then print_tables ();
  if want "ablations" then print_ablations ();
  if want "attribution" then print_compile_attribution ();
  if want "wall" then run_wall ();
  print_pool_stats ()
