(* The specialization-policy / version-count sweep on the synthetic
   web-session trace: generic code vs the paper's one-entry policy vs the
   polyvariant version cache at several sizes, in model cycles. The web
   sites are the adversarial workload for the paper's policy — their
   argument variability (google 5% → twitter 23% extra recompiles in the
   code-size study) is exactly what makes a one-entry value cache churn —
   so this is where a multi-entry widening cache has to earn its keep. *)

type cell = {
  config_name : string;
  total_cycles : int;
  native_cycles : int;
  compile_cycles : int;
  compiles : int;
  deopts : int;
  widens : int;
  promotions : int;
  seeded : int;
  blacklists : int;
}

type t = { site : string; cells : cell list }

let configs =
  [
    ("generic", Engine.default_config ());
    ("paper k=1", Engine.default_config ~opt:Pipeline.all_on ());
    ( "poly k=1",
      Engine.default_config ~opt:Pipeline.all_on ~policy:Policy.Polyvariant
        ~cache_size:1 () );
    ( "poly k=2",
      Engine.default_config ~opt:Pipeline.all_on ~policy:Policy.Polyvariant
        ~cache_size:2 () );
    ( "poly k=4",
      Engine.default_config ~opt:Pipeline.all_on ~policy:Policy.Polyvariant
        ~cache_size:4 () );
  ]

(* One (site, config) cell, counted by the cell's own engine. *)
let run_cell name config src =
  Runner.quiet (fun () ->
      let engine = Engine.make config (Bytecode.Compile.program_of_source src) in
      let report = Engine.run engine in
      let total = Telemetry.Counters.total (Telemetry.counters (Engine.telemetry engine)) in
      {
        config_name = name;
        total_cycles = report.Engine.total_cycles;
        native_cycles = report.Engine.native_cycles;
        compile_cycles = report.Engine.compile_cycles;
        compiles = total Telemetry.Key.compiles;
        deopts = total Telemetry.Key.deopts + total Telemetry.Key.strike_discards;
        widens = total Telemetry.Key.versions_widened;
        promotions = total Telemetry.Key.versions_promoted;
        seeded = total Telemetry.Key.interpro_seeded;
        blacklists = total Telemetry.Key.blacklists;
      })

let run ?(seed = 7) () =
  Pool.map (Pool.default ())
    (fun profile ->
      let src = Web.synthetic_site ~seed profile in
      {
        site = profile.Web.site_name;
        cells = List.map (fun (name, cfg) -> run_cell name cfg src) configs;
      })
    [ Web.google; Web.facebook; Web.twitter ]

let print rows =
  Printf.printf "Specialization policies on the web-session trace (model cycles)\n";
  List.iter
    (fun r ->
      let generic =
        match List.find_opt (fun c -> c.config_name = "generic") r.cells with
        | Some c -> c.total_cycles
        | None -> 0
      in
      Printf.printf "%s:\n" r.site;
      print_string
        (Support.Table.render
           ~header:
             [ "config"; "cycles"; "vs generic"; "native"; "compile"; "compiles";
               "deopts"; "widens"; "promo"; "seeded"; "blacklists" ]
           ~rows:
             (List.map
                (fun c ->
                  [
                    c.config_name;
                    string_of_int c.total_cycles;
                    (if generic = 0 then "-"
                     else
                       Printf.sprintf "%+.2f%%"
                         (100.0
                         *. (1.0
                            -. float_of_int c.total_cycles /. float_of_int generic)));
                    string_of_int c.native_cycles;
                    string_of_int c.compile_cycles;
                    string_of_int c.compiles;
                    string_of_int c.deopts;
                    string_of_int c.widens;
                    string_of_int c.promotions;
                    string_of_int c.seeded;
                    string_of_int c.blacklists;
                  ])
                r.cells)
           ()))
    rows
