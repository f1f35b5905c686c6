(* irlint: run the full static-analysis suite over every workload under
   every Figure-9 configuration (plus the selective / k-entry-cache
   extensions, which exercise the specialization mask paths).

   For each suite member:
     1. compile to bytecode and run the bytecode verifier;
     2. run the program under the engine with per-pass pipeline checks on,
        so every compilation is re-verified after every pass, audited by
        the specialization-soundness checker, and code-verified after
        register allocation.

   Errors are printed individually; warnings are aggregated by kind (pass
   `--machine` for one tab-separated line per finding instead). Exit 1 on
   any error — or any warning under `--strict` — so the @lint alias can
   gate CI.

     dune exec bin/irlint.exe --
     dune exec bin/irlint.exe -- --suite kraken --config PS+CP+DCE
     dune exec bin/irlint.exe -- --machine --jobs 4

   The workload x config sweep fans out over the domain pool (--jobs /
   VS_JOBS): every cell runs with its own lint sinks installed
   domain-locally and returns its findings, which are replayed on the
   main domain in serial sweep order — the report is byte-identical at
   any pool size. *)

let engine_configs =
  (("baseline", Engine.default_config ())
  :: List.map
       (fun c -> (c.Pipeline.name, Engine.default_config ~opt:c ()))
       Pipeline.figure9_configs)
  @ [
      ("selective", Engine.default_config ~opt:Pipeline.all_on ~selective:true ());
      ("cache4", Engine.default_config ~opt:Pipeline.all_on ~cache_size:4 ());
    ]

(* Aggregation key for warnings: layer plus the first words of the message,
   enough to separate "redundant guard ..." from "dead resume point ...". *)
let kind_of (d : Diag.t) =
  let words = String.split_on_char ' ' d.Diag.message in
  let rec take n = function
    | x :: tl when n > 0 -> x :: take (n - 1) tl
    | _ -> []
  in
  Printf.sprintf "%s: %s" d.Diag.layer (String.concat " " (take 3 words))

(* One (workload, config) cell's findings, in the order the engine produced
   them. [Hard] is a pre-formatted non-diagnostic error line. *)
type item = Diagnostic of Diag.t | Hard of string

let run_cell ~missed_guards cfg src =
  let acc = ref [] in
  let report d = acc := Diagnostic d :: !acc in
  (* Missed-guard report: re-run the abstract interpreter over every
     post-pipeline MIR graph and warn about guards still standing that
     [Absint.prove] certifies can never fail — elisions the pipeline left
     on the table (e.g. a barrier whose declared type disagrees, or a
     bounds check whose def is still referenced). *)
  let missed_hook (mir : Mir.func) =
    let r = Absint.analyze mir in
    List.iter
      (fun (bid, (i : Mir.instr)) ->
        report
          (Diag.make ~severity:Diag.Warning ~layer:"missed-guard"
             ~func:mir.Mir.source.Bytecode.Program.name
             ~fid:mir.Mir.source.Bytecode.Program.fid ~block:bid
             ~value:i.Mir.def ~pc:i.Mir.org.Mir.o_pc
             (Printf.sprintf "provably redundant %s guard not elided"
                (Mir.guard_kind_name i.Mir.kind))))
      (Absint.survivors r mir)
  in
  let with_hook body = if missed_guards then Engine.with_mir_hook missed_hook body else body () in
  (match
     (* The engine contains mid-run compile diagnostics (quarantine +
        interpreter fallback) instead of letting [Diag.Failed] escape; its
        diagnostic sink is how those findings, and the check-mode
        warnings, still reach the report. *)
     with_hook (fun () ->
         Runner.quiet (fun () ->
             Engine.run_source ~diag:report { cfg with Engine.check = true } src))
   with
  | exception Diag.Failed d -> report d
  | exception e ->
    acc := Hard (Printf.sprintf "error: run failed: %s" (Printexc.to_string e)) :: !acc
  | _report -> ());
  List.rev !acc

let main suite_filter config_filter strict machine missed_guards jobs =
  (match jobs with Some n -> Pool.set_default_jobs n | None -> ());
  let suites =
    match suite_filter with
    | None -> Suites.all
    | Some name -> (
      match Suites.find name with
      | Some s -> [ s ]
      | None ->
        Printf.eprintf "unknown suite: %s (have: %s)\n" name
          (String.concat ", " (List.map (fun (s : Suite.t) -> s.Suite.s_name) Suites.all));
        exit 2)
  in
  let configs =
    match config_filter with
    | None -> engine_configs
    | Some name -> (
      match
        List.filter
          (fun (n, _) -> String.lowercase_ascii n = String.lowercase_ascii name)
          engine_configs
      with
      | [] ->
        Printf.eprintf "unknown config: %s (have: %s)\n" name
          (String.concat ", " (List.map fst engine_configs));
        exit 2
      | cs -> cs)
  in
  let members =
    List.concat_map
      (fun (suite : Suite.t) ->
        List.map
          (fun (m : Suite.member) ->
            (Printf.sprintf "%s/%s" suite.Suite.s_name m.Suite.m_name, m))
          suite.Suite.members)
      suites
  in
  let pool = Pool.default () in
  (* Phase 1: bytecode compile + verifier, one task per workload. *)
  let bc =
    Pool.map pool
      (fun (_, (m : Suite.member)) ->
        match Bytecode.Compile.program_of_source m.Suite.m_source with
        | exception e -> Error (Printexc.to_string e)
        | program -> Ok (Bc_verify.run_program program))
      members
  in
  (* Phase 2: one engine run per (workload, config) cell, for every workload
     that compiled. *)
  let cells =
    List.concat
      (List.map2
         (fun (workload, (m : Suite.member)) bc_result ->
           match bc_result with
           | Error _ -> []
           | Ok _ -> List.map (fun (_, cfg) -> (workload, cfg, m)) configs)
         members bc)
  in
  let cell_findings =
    Pool.map pool (fun ((_, cfg, m) : string * Engine.config * Suite.member) ->
        run_cell ~missed_guards cfg m.Suite.m_source)
      cells
  in
  (* Replay the findings on the main domain in serial sweep order: the
     printed report and the counters are exactly the serial ones. *)
  let errors = ref 0 in
  let warnings = ref 0 in
  let warn_counts : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let emit where = function
    | Diagnostic d ->
      if Diag.is_error d then begin
        incr errors;
        Printf.printf "%s\t%s\n" where
          (if machine then Diag.to_machine_string d else Diag.to_string d)
      end
      else begin
        incr warnings;
        let k = kind_of d in
        Hashtbl.replace warn_counts k
          (1 + Option.value (Hashtbl.find_opt warn_counts k) ~default:0);
        if machine then Printf.printf "%s\t%s\n" where (Diag.to_machine_string d)
      end
    | Hard msg ->
      incr errors;
      Printf.printf "%s\t%s\n" where msg
  in
  let n_members = ref 0 and runs = ref 0 in
  let remaining_cells = ref cell_findings in
  let next_cell () =
    match !remaining_cells with
    | [] -> assert false
    | x :: tl ->
      remaining_cells := tl;
      x
  in
  List.iter2
    (fun (workload, _) bc_result ->
      incr n_members;
      let where = workload ^ "\tbytecode" in
      match bc_result with
      | Error msg -> emit where (Hard (Printf.sprintf "error: does not compile: %s" msg))
      | Ok findings ->
        List.iter (fun d -> emit where (Diagnostic d)) findings;
        List.iter
          (fun (cname, _) ->
            incr runs;
            List.iter (emit (workload ^ "\t" ^ cname)) (next_cell ()))
          configs)
    members bc;
  assert (!remaining_cells = []);
  if not machine then begin
    Printf.printf "%d workloads x %d configs: %d runs, %d errors, %d warnings\n"
      !n_members (List.length configs) !runs !errors !warnings;
    if !warnings > 0 then begin
      print_endline "warning kinds:";
      Hashtbl.fold (fun k n acc -> (n, k) :: acc) warn_counts []
      |> List.sort compare |> List.rev
      |> List.iter (fun (n, k) -> Printf.printf "  %6d  %s ...\n" n k)
    end
  end;
  if !errors > 0 || (strict && !warnings > 0) then 1 else 0

open Cmdliner

let suite_arg =
  let doc = "Lint only this suite (sunspider, v8, kraken); default all." in
  Arg.(value & opt (some string) None & info [ "suite" ] ~docv:"NAME" ~doc)

let config_arg =
  let doc = "Lint only this configuration (baseline, a Figure-9 column, selective, cache4)." in
  Arg.(value & opt (some string) None & info [ "config" ] ~docv:"NAME" ~doc)

let strict_arg =
  let doc = "Exit nonzero on warnings too, not just errors." in
  Arg.(value & flag & info [ "strict" ] ~doc)

let machine_arg =
  let doc = "One tab-separated line per finding (including warnings); no summary." in
  Arg.(value & flag & info [ "machine" ] ~doc)

let missed_guards_arg =
  let doc =
    "Also run the abstract interpreter over every post-pipeline MIR graph and report \
     (as warnings) guards still present that it proves can never fail — the \
     missed-guard report gated by the @absint alias."
  in
  Arg.(value & flag & info [ "missed-guards" ] ~doc)

let jobs_arg =
  let doc =
    "Domains the workload x config sweep fans out over (default: \\$(b,VS_JOBS) or the \
     machine's core count, capped at 8); 1 runs serially. Output is byte-identical at \
     any value."
  in
  Arg.(value & opt (some int) None & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let cmd =
  let doc = "static-analysis lint of all IRs over the benchmark workloads" in
  Cmd.v
    (Cmd.info "vs-irlint" ~doc)
    Term.(
      const main $ suite_arg $ config_arg $ strict_arg $ machine_arg
      $ missed_guards_arg $ jobs_arg)

let () = exit (Cmd.eval' cmd)
