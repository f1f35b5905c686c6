(* [quiet] installs the domain-local print sink, which (with [Engine.run]
   reseeding [Math.random]) makes suite members valid pool tasks: a member
   run is self-contained wherever it executes and cycle results cannot
   depend on scheduling. *)
let quiet f = Runtime.Builtins.with_print_hook ignore f

let run_member config (m : Suite.member) =
  quiet (fun () -> Engine.run_source config m.Suite.m_source)

(* Members fan out over the default pool; the merge is by member index, so
   the (name, report) list is identical to the serial one. *)
let run_suite config (suite : Suite.t) =
  Pool.map (Pool.default ())
    (fun (m : Suite.member) -> (m.Suite.m_name, run_member config m))
    suite.Suite.members

let called_functions (r : Engine.report) =
  List.filter
    (fun (f : Engine.func_report) -> f.Engine.fr_calls > 0 && f.Engine.fr_fid <> 0)
    r.Engine.functions
