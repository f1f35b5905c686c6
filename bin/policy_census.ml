(* policy_census: the specialization-policy behavior census.

   Every irlint workload runs under both specialization policies at cache
   sizes 1, 2 and 4; each (workload, policy, size) cell prints one line of
   policy-relevant observables — model cycles plus the transition counts
   that distinguish the policies (compiles, §4 deoptimizations, ladder
   widenings, promotions, blacklists).

   The output is diffed against bin/policy_census.expected by the @policy
   alias (promotable with `dune promote`): the paper rows pin the default
   policy's byte-identity, the polyvariant rows pin the widening ladder
   and the promotion tier. Cells fan out over the domain pool and are
   replayed in serial sweep order, so the census is byte-identical at any
   --jobs / VS_JOBS. *)

let configs =
  List.concat_map
    (fun policy ->
      List.map
        (fun k ->
          ( Printf.sprintf "%s@%d" (Policy.kind_to_string policy) k,
            Engine.default_config ~opt:Pipeline.all_on ~policy ~cache_size:k () ))
        [ 1; 2; 4 ])
    Policy.all_kinds

let run_cell cfg src =
  Runner.quiet (fun () ->
      match Bytecode.Compile.program_of_source src with
      | exception e -> Printf.sprintf "compile error: %s" (Printexc.to_string e)
      | program ->
        let engine = Engine.make cfg program in
        (match Engine.run engine with
        | exception Engine.Runtime_error msg -> "runtime error: " ^ msg
        | report ->
          let total = Telemetry.Counters.total (Telemetry.counters (Engine.telemetry engine)) in
          Printf.sprintf
            "cycles=%d compiles=%d deopts=%d widens=%d promotions=%d blacklists=%d"
            report.Engine.total_cycles (total Telemetry.Key.compiles)
            (total Telemetry.Key.deopts + total Telemetry.Key.strike_discards)
            (total Telemetry.Key.versions_widened)
            (total Telemetry.Key.versions_promoted)
            (total Telemetry.Key.blacklists)))

let () =
  (match Sys.getenv_opt "VS_JOBS" with
  | Some s -> (try Pool.set_default_jobs (int_of_string s) with _ -> ())
  | None -> ());
  let members =
    List.concat_map
      (fun (suite : Suite.t) ->
        List.map
          (fun (m : Suite.member) ->
            (Printf.sprintf "%s/%s" suite.Suite.s_name m.Suite.m_name, m.Suite.m_source))
          suite.Suite.members)
      Suites.all
  in
  let cells =
    List.concat_map (fun (w, src) -> List.map (fun (c, cfg) -> (w, c, cfg, src)) configs)
      members
  in
  let lines =
    Pool.map (Pool.default ()) (fun (_, _, cfg, src) -> run_cell cfg src) cells
  in
  List.iter2
    (fun (workload, cname, _, _) line -> Printf.printf "%s\t%s\t%s\n" workload cname line)
    cells lines;
  Printf.printf "%d workloads x %d configs: %d cells\n" (List.length members)
    (List.length configs) (List.length cells)
