open Support

(* Where do specialization's savings come from? The speedup figures say how
   much faster specialized code is; this figure says *which* cycles
   disappeared, using the profiler's per-origin attribution: native-tier
   cycles per work category (guard / alu / mem / call / alloc / control)
   under the baseline pipeline versus the full specializing one. Guards
   (type barriers + bounds checks) eliminated by baking arguments in, loads
   folded away by constant propagation, and call overhead absorbed by
   inlining each show up as their category's delta. *)

type cell = {
  native : int;  (* native-tier cycles, all categories *)
  total : int;  (* whole-run model cycles (the recorder's exact sum) *)
  cats : (Profile.category * int) list;  (* native cycles per category *)
  compiles : int;
  deopts : int;
}

type row = { suite_name : string; base : cell; spec : cell }

type t = row list

let base_config = Engine.default_config ()
let spec_config = Engine.default_config ~opt:Pipeline.all_on ()

let empty_cell =
  {
    native = 0;
    total = 0;
    cats = List.map (fun (c, _) -> (c, 0)) [];
    compiles = 0;
    deopts = 0;
  }

let add_cells a b =
  {
    native = a.native + b.native;
    total = a.total + b.total;
    cats =
      (if a.cats = [] then b.cats
       else List.map2 (fun (c, x) (_, y) -> (c, x + y)) a.cats b.cats);
    compiles = a.compiles + b.compiles;
    deopts = a.deopts + b.deopts;
  }

(* One (member, config) cell: a fresh recorder attached to the cell's own
   engine for the attribution; the event counts come from that engine. *)
let run_cell config (m : Suite.member) =
  Runner.quiet (fun () ->
      let program = Bytecode.Compile.program_of_source m.Suite.m_source in
      let engine = Engine.make config program in
      let r = Profile.Recorder.create ~program in
      Engine.attach_profile engine r;
      ignore (Engine.run engine);
      let total = Telemetry.Counters.total (Telemetry.counters (Engine.telemetry engine)) in
      {
        native =
          Profile.Recorder.tier_cycles r Profile.T_native_gen
          + Profile.Recorder.tier_cycles r Profile.T_native_spec;
        total = Profile.Recorder.total_cycles r;
        cats = Profile.Recorder.native_category_cycles r;
        compiles = total Telemetry.Key.compiles;
        deopts = total Telemetry.Key.deopts + total Telemetry.Key.strike_discards;
      })

let run () =
  List.map
    (fun (suite : Suite.t) ->
      let cells =
        Pool.map (Pool.default ())
          (fun m -> (run_cell base_config m, run_cell spec_config m))
          suite.Suite.members
      in
      let base = List.fold_left (fun acc (b, _) -> add_cells acc b) empty_cell cells in
      let spec = List.fold_left (fun acc (_, s) -> add_cells acc s) empty_cell cells in
      { suite_name = suite.Suite.s_name; base; spec })
    Suites.all

let cat_of cell c = Option.value (List.assoc_opt c cell.cats) ~default:0

let delta_pct b s =
  if b = 0 then "-"
  else Printf.sprintf "%+.1f%%" (100.0 *. float_of_int (s - b) /. float_of_int b)

let print (t : t) =
  print_endline
    "Attribution - native cycles by category, baseline vs specialized (what the \
     specializer removed)";
  let cats =
    [ Profile.C_guard; Profile.C_alu; Profile.C_mem; Profile.C_call; Profile.C_alloc;
      Profile.C_control ]
  in
  let header =
    [ "suite"; "config"; "native"; "total" ]
    @ List.map Profile.category_to_string cats
    @ [ "compiles"; "deopts" ]
  in
  let cell_row name config cell =
    [ name; config; string_of_int cell.native; string_of_int cell.total ]
    @ List.map (fun c -> string_of_int (cat_of cell c)) cats
    @ [ string_of_int cell.compiles; string_of_int cell.deopts ]
  in
  let rows =
    List.concat_map
      (fun r ->
        [ cell_row r.suite_name "baseline" r.base;
          cell_row "" "specialized" r.spec;
          [ ""; "delta"; delta_pct r.base.native r.spec.native;
            delta_pct r.base.total r.spec.total ]
          @ List.map (fun c -> delta_pct (cat_of r.base c) (cat_of r.spec c)) cats
          @ [ ""; "" ] ])
      t
  in
  print_string (Table.render ~header ~rows ());
  print_endline
    "  (guard: type barriers + bounds checks eliminated by burning arguments in;\n\
    \   mem: loads folded by constant propagation; call: overhead absorbed by inlining)"
