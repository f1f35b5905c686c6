(* Policy-layer tests: the pure decision functions of [Policy] (probe
   matching, the widening ladder, hot-call keying, tier-2 promotion, miss
   actions, the tiered pass schedules), engine-level schedules under the
   polyvariant policy (anticipated seeding, version widening, cache fill,
   best-rank probing, promotion), interprocedural fact propagation through
   a two-deep call chain, a 60-seed differential pinning paper and
   polyvariant outputs to the interpreter's, and jobs-4-vs-1 determinism
   of the polyvariant verdicts and the version-count driver. *)

open Runtime

(* A list sink: [collect evs] records every event in [evs], newest first. *)
let collect evs ev = evs := ev :: !evs

let run ?(cfg = Engine.default_config ~opt:Pipeline.all_on ()) ?(sinks = []) src =
  let buf = Buffer.create 64 in
  Builtins.with_print_hook
    (fun s -> Buffer.add_string buf s; Buffer.add_char buf '\n')
    (fun () ->
      let engine = Engine.make cfg (Bytecode.Compile.program_of_source src) in
      List.iter (Telemetry.attach (Engine.telemetry engine)) sinks;
      let report = Engine.run engine in
      (engine, report, Buffer.contents buf))

let fn report name =
  List.find (fun (f : Engine.func_report) -> f.Engine.fr_name = name) report.Engine.functions

let counter engine report name key =
  Telemetry.Counters.get
    (Telemetry.counters (Engine.telemetry engine))
    ~fid:(fn report name).Engine.fr_fid key

(* What happened to [name], oldest first. *)
let events_of evs name =
  List.filter_map
    (fun (e : Telemetry.event) -> if e.fname = name then Some e.what else None)
    (List.rev !evs)

let poly_cfg ?(cache_size = 2) ?(opt = Pipeline.all_on) () =
  Engine.default_config ~opt ~policy:Policy.Polyvariant ~cache_size ()

(* A policy view with every field overridable; the defaults describe a
   hot, unblacklisted function with an empty cache. *)
let view ?(cache_size = 2) ?(selective = false) ?(want = true) ?(calls = 30)
    ?(changes = 1) ?(keys = []) ?(anticipated = []) () =
  {
    Policy.pv_cache_size = cache_size;
    pv_selective = selective;
    pv_want_specialize = want;
    pv_calls = calls;
    pv_arg_set_changes = changes;
    pv_keys = keys;
    pv_anticipated = anticipated;
  }

let ints xs = Array.of_list (List.map (fun i -> Value.Int i) xs)

(* ------------------------------------------------------------------ *)
(* The pure decision functions                                         *)
(* ------------------------------------------------------------------ *)

let test_matches () =
  let v52 = Spec_key.Key_values (ints [ 5; 2 ], None) in
  Alcotest.(check bool) "values: exact tuple" true (Spec_key.matches v52 (ints [ 5; 2 ]));
  Alcotest.(check bool) "values: wrong value" false (Spec_key.matches v52 (ints [ 5; 3 ]));
  Alcotest.(check bool) "values: wrong arity" false (Spec_key.matches v52 (ints [ 5 ]));
  let masked = Spec_key.Key_values (ints [ 5; 2 ], Some [| true; false |]) in
  Alcotest.(check bool) "mask: unburned position free" true
    (Spec_key.matches masked (ints [ 5; 99 ]));
  Alcotest.(check bool) "mask: burned position compared" false
    (Spec_key.matches masked (ints [ 6; 2 ]));
  let tags = Spec_key.Key_tags [| Value.Tag_int; Value.Tag_string |] in
  Alcotest.(check bool) "tags: same tags, any values" true
    (Spec_key.matches tags [| Value.Int 9; Value.Str "x" |]);
  Alcotest.(check bool) "tags: tag mismatch" false
    (Spec_key.matches tags [| Value.Str "x"; Value.Str "x" |]);
  Alcotest.(check bool) "generic: anything" true
    (Spec_key.matches Spec_key.Key_generic [| Value.Undefined |]);
  (* A mask recorded from a longer tuple than the key's own: the probe
     compares only positions the tuple has, and what the entry may assume
     past it is [Undefined] (the probe admitted only this length). *)
  let short = Spec_key.Key_values (ints [ 5 ], Some [| true; true; false |]) in
  Alcotest.(check bool) "short tuple, long mask: same tuple" true
    (Spec_key.matches short (ints [ 5 ]));
  Alcotest.(check bool) "short tuple, long mask: other value" false
    (Spec_key.matches short (ints [ 6 ]));
  let known key i =
    match Spec_key.at_entry key i with
    | Spec_key.Known_value v -> Value.to_display_string v
    | Spec_key.Known_tag t -> Value.tag_to_string t
    | Spec_key.Unknown -> "?"
  in
  Alcotest.(check (list string)) "entry facts: value key with mask"
    [ "5"; "undefined"; "?"; "?" ]
    (List.map (known short) [ 0; 1; 2; 3 ]);
  Alcotest.(check (list string)) "entry facts: tag key"
    [ "Int32"; "String"; "?" ]
    (List.map (known tags) [ 0; 1; 2 ])

let test_widen_ladder () =
  (* One step per rung, keyed to serve the arguments that missed; nothing
     is wider than generic. Never compare keys structurally (values can be
     cyclic) — pattern-match the shape. *)
  (match Policy.widen (Spec_key.Key_values (ints [ 5 ], None)) (ints [ 9 ]) with
  | Some (Spec_key.Key_tags [| Value.Tag_int |]) -> ()
  | _ -> Alcotest.fail "values must widen to the missing args' tags");
  (match Policy.widen (Spec_key.Key_tags [| Value.Tag_int |]) [| Value.Str "s" |] with
  | Some Spec_key.Key_generic -> ()
  | _ -> Alcotest.fail "tags must widen to generic");
  (match Policy.widen Spec_key.Key_generic (ints [ 1 ]) with
  | None -> ()
  | Some _ -> Alcotest.fail "generic must not widen");
  Alcotest.(check int) "rank: values" 0 (Policy.key_rank (Spec_key.Key_values (ints [ 5 ], None)));
  Alcotest.(check int) "rank: tags" 1 (Policy.key_rank (Spec_key.Key_tags [| Value.Tag_int |]));
  Alcotest.(check int) "rank: generic" 2 (Policy.key_rank Spec_key.Key_generic);
  Alcotest.(check string) "display: values" "(5)"
    (Spec_key.to_string (Spec_key.Key_values (ints [ 5 ], None)));
  Alcotest.(check string) "display: tags" "[Int32]"
    (Spec_key.to_string (Spec_key.Key_tags [| Value.Tag_int |]));
  Alcotest.(check string) "display: generic" "generic"
    (Spec_key.to_string Spec_key.Key_generic)

let choice = function
  | Policy.Spec_values -> "values"
  | Policy.Spec_selective -> "selective"
  | Policy.Spec_tags -> "tags"
  | Policy.Spec_generic -> "generic"

let test_choose_hot () =
  let args = ints [ 5 ] in
  Alcotest.(check string) "paper: specialize immediately" "values"
    (choice (Policy.choose_hot Policy.Paper (view ()) ~args));
  Alcotest.(check string) "poly: tier-1 is generic" "generic"
    (choice (Policy.choose_hot Policy.Polyvariant (view ()) ~args));
  Alcotest.(check string) "poly: anticipated signature skips the generic tier" "values"
    (choice (Policy.choose_hot Policy.Polyvariant (view ~anticipated:[ ints [ 5 ] ] ()) ~args));
  Alcotest.(check string) "poly: anticipated but different tuple" "generic"
    (choice (Policy.choose_hot Policy.Polyvariant (view ~anticipated:[ ints [ 6 ] ] ()) ~args));
  Alcotest.(check string) "selective wins in either policy" "selective"
    (choice (Policy.choose_hot Policy.Polyvariant (view ~selective:true ()) ~args));
  Alcotest.(check string) "blacklisted: generic" "generic"
    (choice (Policy.choose_hot Policy.Paper (view ~want:false ()) ~args))

let test_compile_opt () =
  let opt_name cfg = cfg.Pipeline.name in
  Alcotest.(check string) "paper: configured pipeline always" Pipeline.all_on.Pipeline.name
    (opt_name (Policy.compile_opt Policy.Paper Pipeline.all_on ~specialized:false ~size:10));
  Alcotest.(check string) "poly: generic tier compiles quick"
    Pipeline.baseline.Pipeline.name
    (opt_name (Policy.compile_opt Policy.Polyvariant Pipeline.all_on ~specialized:false ~size:10));
  Alcotest.(check string) "poly: specialized small body gets the full pipeline"
    Pipeline.all_on.Pipeline.name
    (opt_name
       (Policy.compile_opt Policy.Polyvariant Pipeline.all_on ~specialized:true
          ~size:Policy.opt_size_cap));
  Alcotest.(check string) "poly: too big to optimize" Pipeline.baseline.Pipeline.name
    (opt_name
       (Policy.compile_opt Policy.Polyvariant Pipeline.all_on ~specialized:true
          ~size:(Policy.opt_size_cap + 1)))

let test_promote () =
  let args = ints [ 5 ] in
  let hot_calls = 10 in
  let promoted v = Policy.promote Policy.Polyvariant v ~args ~hot_calls in
  Alcotest.(check (option string)) "paper never promotes" None
    (Option.map choice
       (Policy.promote Policy.Paper (view ~keys:[ Spec_key.Key_generic ] ()) ~args ~hot_calls));
  let generic_one = [ Spec_key.Key_generic ] in
  Alcotest.(check (option string)) "needs promote_factor × hot_calls calls" None
    (Option.map choice
       (promoted (view ~keys:generic_one ~calls:((Policy.promote_factor * hot_calls) - 1) ())));
  Alcotest.(check (option string)) "needs a free slot" None
    (Option.map choice (promoted (view ~cache_size:1 ~keys:generic_one ())));
  Alcotest.(check (option string)) "stable tuples promote to a value version"
    (Some "values")
    (Option.map choice (promoted (view ~keys:generic_one ~changes:2 ())));
  Alcotest.(check (option string)) "always-varying tuples promote to tags"
    (Some "tags")
    (Option.map choice (promoted (view ~keys:generic_one ~changes:20 ())));
  Alcotest.(check (option string)) "anticipated signature beats the variability heuristic"
    (Some "values")
    (Option.map choice
       (promoted (view ~keys:generic_one ~changes:20 ~anticipated:[ ints [ 5 ] ] ())));
  Alcotest.(check (option string)) "blacklisted functions stay generic" None
    (Option.map choice (promoted (view ~want:false ~keys:generic_one ())))

let miss = function
  | Policy.Miss_respecialize -> "respecialize"
  | Policy.Miss_fill c -> "fill:" ^ choice c
  | Policy.Miss_widen i -> "widen:" ^ string_of_int i
  | Policy.Miss_deopt_generic -> "deopt"

let test_on_miss_paper () =
  let args = ints [ 9 ] in
  let v5 = Spec_key.Key_values (ints [ 5 ], None) in
  Alcotest.(check string) "§6 fill while there is room" "fill:values"
    (miss (Policy.on_miss Policy.Paper (view ~cache_size:2 ~keys:[ v5 ] ()) ~args));
  Alcotest.(check string) "§4 deopt on a full cache" "deopt"
    (miss (Policy.on_miss Policy.Paper (view ~cache_size:1 ~keys:[ v5 ] ()) ~args));
  Alcotest.(check string) "selective narrows instead" "respecialize"
    (miss (Policy.on_miss Policy.Paper (view ~selective:true ~keys:[ v5 ] ()) ~args));
  Alcotest.(check string) "blacklisted: plain deopt" "deopt"
    (miss (Policy.on_miss Policy.Paper (view ~want:false ~keys:[ v5 ] ()) ~args))

let test_on_miss_polyvariant () =
  let v5 = Spec_key.Key_values (ints [ 5 ], None) in
  let vstr = Spec_key.Key_values ([| Value.Str "a" |], None) in
  let tags = Spec_key.Key_tags [| Value.Tag_int |] in
  let on keys args = miss (Policy.on_miss Policy.Polyvariant (view ~keys ()) ~args) in
  (* Second mismatching tuple for a value signature: widen that version
     (by MRU index), even when the cache still has room. *)
  Alcotest.(check string) "same-tag value version widens" "widen:1"
    (on [ vstr; v5 ] (ints [ 9 ]));
  (* No same-tag value version and room: fill. The novel shape has no
     anticipated signature, so the fill is a tier-1 generic catch-all. *)
  Alcotest.(check string) "novel shape fills (tier-1 generic)" "fill:generic"
    (on [ v5 ] [| Value.Str "x" |]);
  Alcotest.(check string) "anticipated novel shape fills a value version" "fill:values"
    (miss
       (Policy.on_miss Policy.Polyvariant
          (view ~keys:[ v5 ] ~anticipated:[ [| Value.Str "x" |] ] ())
          ~args:[| Value.Str "x" |]));
  (* Full cache, nothing to widen in place: repurpose the LRU slot one
     rank wider. Tag versions never widen in place on a same-tag miss —
     a same-tag call would have hit them. *)
  Alcotest.(check string) "full cache repurposes the LRU slot" "widen:1"
    (miss
       (Policy.on_miss Policy.Polyvariant
          (view ~cache_size:2 ~keys:[ tags; vstr ] ())
          ~args:[| Value.Arr (Value.new_arr 0) |]));
  Alcotest.(check string) "blacklisted: §4 deopt" "deopt"
    (miss (Policy.on_miss Policy.Polyvariant (view ~want:false ~keys:[ v5 ] ()) ~args:(ints [ 9 ])))

(* ------------------------------------------------------------------ *)
(* Engine-level schedules                                              *)
(* ------------------------------------------------------------------ *)

(* The caller compiles at its 10th call — recording f's constant argument
   signature — and then immediately calls f for f's 10th time, so f's
   hot-call compile sees the anticipated signature and value-specializes
   without ever owning a generic catch-all. That is the configuration in
   which the miss path (and hence the widening ladder) is observable. *)

let test_widening_ladder_schedule () =
  let evs = ref [] in
  let cfg = poly_cfg ~cache_size:1 () in
  let src =
    "function f(x) { return x + 1; }\n\
     function c() { return f(5); }\n\
     var t = 0;\n\
     for (var i = 0; i < 25; i++) t += c();\n\
     t = f(9);\n\
     t = f(1.5);\n\
     print(t);"
  in
  let engine, report, out = run ~cfg ~sinks:[ collect evs ] src in
  Alcotest.(check string) "result" "2.5\n" out;
  let get = counter engine report "f" in
  (* Caller-seeded value version, then the full ladder: f(9) has the same
     tag as the burned-in (5) → widen to [Int32]; f(1.5) misses the tag
     version with the cache full → the LRU (only) slot widens to generic. *)
  Alcotest.(check int) "caller published one fact" 1 (get Telemetry.Key.interpro_facts);
  Alcotest.(check int) "hot compile was seeded by it" 1 (get Telemetry.Key.interpro_seeded);
  Alcotest.(check int) "two ladder steps" 2 (get Telemetry.Key.versions_widened);
  Alcotest.(check int) "compiles: values, tags, generic" 3 (get Telemetry.Key.compiles);
  Alcotest.(check int) "widening is not §4 deoptimization" 0 (get Telemetry.Key.deopts);
  Alcotest.(check int) "no blacklist" 0 (get Telemetry.Key.blacklists);
  Alcotest.(check bool) "not reported deoptimized" false (fn report "f").Engine.fr_deoptimized;
  let widens =
    List.filter_map
      (function
        | Telemetry.Version_widen { from_key; to_key; _ } -> Some (from_key, to_key)
        | _ -> None)
      (events_of evs "f")
  in
  Alcotest.(check (list (pair string string)))
    "ladder transitions"
    [ ("(5)", "[Int32]"); ("[Int32]", "generic") ]
    widens

let test_fill_and_best_rank_probe () =
  let evs = ref [] in
  let cfg = poly_cfg ~cache_size:2 () in
  let src =
    "function f(x) { return x; }\n\
     function c() { return f(5); }\n\
     var t = 0;\n\
     for (var i = 0; i < 12; i++) t += c();\n\
     t = f(\"a\");\n\
     t = f(\"a\");\n\
     print(f(5));"
  in
  let engine, report, out = run ~cfg ~sinks:[ collect evs ] src in
  Alcotest.(check string) "result" "5\n" out;
  let get = counter engine report "f" in
  (* The string call misses the value version; a novel tag with room
     fills a generic catch-all alongside it instead of widening. *)
  Alcotest.(check int) "one miss" 1 (get Telemetry.Key.cache_misses);
  Alcotest.(check int) "no widening" 0 (get Telemetry.Key.versions_widened);
  Alcotest.(check int) "compiles: values + generic fill" 2 (get Telemetry.Key.compiles);
  (* The final f(5): the generic catch-all is at the front of the MRU list
     (the second string call hit it), but the probe must prefer the more
     specific value version behind it. *)
  (match List.rev (events_of evs "f") with
  | Telemetry.Cache_hit { index; entries; _ } :: _ ->
    Alcotest.(check int) "entries at the last probe" 2 entries;
    Alcotest.(check int) "most specific version wins, not the MRU generic" 1 index
  | _ -> Alcotest.fail "expected the last f event to be a cache hit")

let test_promotion_fills_value_versions () =
  let cfg = poly_cfg ~cache_size:3 () in
  let src =
    "function f(x) { return x; }\n\
     function c() { return f(5) + f(\"a\"); }\n\
     var t = 0;\n\
     for (var i = 0; i < 20; i++) t = c();\n\
     print(t);"
  in
  let engine, report, out = run ~cfg src in
  Alcotest.(check string) "result" "5a\n" out;
  let get = counter engine report "f" in
  (* f goes hot (call 10, iteration 5) before its caller compiles, so
     tier-1 is a generic catch-all. The caller's compile at iteration 10
     publishes both constant signatures; once f crosses promote_factor ×
     hot_calls calls, each generic hit whose tuple matches an anticipated
     signature promotes a value version into a free slot — one per
     signature, and the best-rank probe then routes both tuples to their
     specialized versions so promotion stops by itself. *)
  Alcotest.(check int) "caller published both signatures" 2 (get Telemetry.Key.interpro_facts);
  Alcotest.(check int) "two promotions" 2 (get Telemetry.Key.versions_promoted);
  Alcotest.(check int) "both promotions were seeded" 2 (get Telemetry.Key.interpro_seeded);
  Alcotest.(check int) "compiles: generic + two value versions" 3 (get Telemetry.Key.compiles);
  Alcotest.(check int) "no misses (the catch-all absorbed the novelty)" 0
    (get Telemetry.Key.cache_misses);
  Alcotest.(check int) "no widening" 0 (get Telemetry.Key.versions_widened);
  Alcotest.(check int) "no deopt" 0 (get Telemetry.Key.deopts)

let test_interprocedural_two_deep_chain () =
  let cfg = poly_cfg ~cache_size:2 () in
  let src =
    "function h(a, b) { return a + b; }\n\
     function g(x) { return h(x, 9); }\n\
     function f() { return g(5); }\n\
     var t = 0;\n\
     for (var i = 0; i < 25; i++) t += f();\n\
     print(t);"
  in
  let engine, report, out = run ~cfg src in
  Alcotest.(check string) "result" (string_of_int (25 * 14) ^ "\n") out;
  (* The chain resolves in one iteration: f's tier-1 compile records the
     constant signature g(5); g's hot-call compile is therefore seeded
     with (5), and with x burned in its own call site h(x, 9) becomes the
     constant signature (5, 9); h's hot-call compile is seeded in turn.
     Facts crossed two call-graph edges without any call-history support. *)
  let get name = counter engine report name in
  Alcotest.(check int) "g received f's fact" 1 (get "g" Telemetry.Key.interpro_facts);
  Alcotest.(check int) "g's compile was seeded" 1 (get "g" Telemetry.Key.interpro_seeded);
  Alcotest.(check int) "h received g's fact" 1 (get "h" Telemetry.Key.interpro_facts);
  Alcotest.(check int) "h's compile was seeded" 1 (get "h" Telemetry.Key.interpro_seeded);
  Alcotest.(check bool) "g value-specialized" true (fn report "g").Engine.fr_was_specialized;
  Alcotest.(check bool) "h value-specialized" true (fn report "h").Engine.fr_was_specialized;
  Alcotest.(check bool) "f stayed on the generic tier" false
    (fn report "f").Engine.fr_was_specialized;
  Alcotest.(check int) "one compile each" 1 (get "g" Telemetry.Key.compiles);
  Alcotest.(check int) "one compile each (h)" 1 (get "h" Telemetry.Key.compiles);
  Alcotest.(check int) "no deopts anywhere" 0
    (List.fold_left (fun acc (f : Engine.func_report) ->
         acc + get f.Engine.fr_name Telemetry.Key.deopts)
       0 report.Engine.functions)

(* An interpreted callee that assigns its parameter must not write into
   the caller's argument array: the engine keeps that array as the
   previous call's tuple (§2 statistics), so the write made every call
   after an interpreted one look like a new argument set. Under the
   polyvariant policy those phantom changes made [always_varying] promote
   f to a tag version although every call passed the same value. The cold
   branch only makes f's queued generic compile land late, so that many
   calls interpret before it does. *)
let test_param_writes_stay_in_frame () =
  let f_src cold =
    Printf.sprintf "function f(n) { n = n + 1; %sreturn n; }\n" cold
  in
  let engine, report, out =
    run (f_src "" ^ "var s = 0; for (var i = 0; i < 50; i++) s = s + f(1); print(s);")
  in
  Alcotest.(check string) "result" "100\n" out;
  Alcotest.(check int) "every call passed (1)" 0
    (counter engine report "f" Telemetry.Key.arg_set_changes);
  let cold =
    "if (n > 100) { "
    ^ String.concat " " (List.init 40 (fun i -> Printf.sprintf "n = n * 3 + %d;" i))
    ^ " } "
  in
  let evs = ref [] in
  let engine, report, out =
    run
      ~cfg:{ (poly_cfg ~cache_size:4 ()) with Engine.bg_compile = true }
      ~sinks:[ collect evs ]
      (f_src cold
     ^ "var one = 1; var s = 0; for (var i = 0; i < 200; i++) s = s + f(one); print(s);")
  in
  Alcotest.(check string) "polyvariant result" "400\n" out;
  Alcotest.(check int) "no phantom changes" 0
    (counter engine report "f" Telemetry.Key.arg_set_changes);
  Alcotest.(check (list string)) "generic tier, then promoted on values"
    [ "generic"; "values" ]
    (List.filter_map
       (function Telemetry.Compile_enqueue { kind; _ } -> Some kind | _ -> None)
       (events_of evs "f"))

(* ------------------------------------------------------------------ *)
(* Differential and determinism                                        *)
(* ------------------------------------------------------------------ *)

let policy_configs =
  [
    ("paper@1", Engine.default_config ~opt:Pipeline.all_on ());
    ("poly@1", poly_cfg ~cache_size:1 ());
    ("poly@2", poly_cfg ~cache_size:2 ());
    ("poly@4", poly_cfg ~cache_size:4 ());
  ]

let fixed_seed_sources n =
  List.init n (fun seed -> (seed, Fuzz_gen.any_program (Random.State.make [| seed |])))

let test_sixty_seed_differential () =
  (* Paper at cache size 1 (the seed engine's configuration) and the
     polyvariant policy at sizes 1/2/4 must all print exactly the
     interpreter's output on 60 generated programs, with per-pass pipeline
     checks on. *)
  List.iter
    (fun (seed, src) ->
      match Fuzz_diff.check ~configs:policy_configs src with
      | None -> ()
      | Some (Fuzz_diff.Mismatch m) ->
        Alcotest.failf "seed %d: %s diverged from the interpreter" seed m.Fuzz_diff.mm_config
      | Some (Fuzz_diff.Verifier_diag { vd_config; vd_diag }) ->
        Alcotest.failf "seed %d: %s rejected by the verifier: %s" seed vd_config
          (Diag.to_string vd_diag))
    (fixed_seed_sources 60)

let capture_stdout f =
  let tmp = Filename.temp_file "vs_policy" ".out" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let saved = Unix.dup Unix.stdout in
  flush stdout;
  Unix.dup2 fd Unix.stdout;
  Fun.protect
    ~finally:(fun () ->
      flush stdout;
      Unix.dup2 saved Unix.stdout;
      Unix.close saved;
      Unix.close fd)
    (fun () -> ignore (f ()));
  let out = In_channel.with_open_bin tmp In_channel.input_all in
  Sys.remove tmp;
  out

let at_jobs jobs f =
  Pool.set_default_jobs jobs;
  Fun.protect ~finally:(fun () -> Pool.set_default_jobs 1) f

let test_polyvariant_jobs_deterministic () =
  let cases = fixed_seed_sources 12 in
  let verdicts jobs =
    at_jobs jobs (fun () ->
        List.map
          (fun (_, src) ->
            match Fuzz_diff.check ~configs:policy_configs src with
            | None -> "pass"
            | Some (Fuzz_diff.Mismatch m) -> "mismatch:" ^ m.Fuzz_diff.mm_config
            | Some (Fuzz_diff.Verifier_diag { vd_config; _ }) -> "diag:" ^ vd_config)
          cases)
  in
  Alcotest.(check (list string)) "policy verdicts: jobs 4 ≡ jobs 1" (verdicts 1) (verdicts 4)

let test_versions_driver_deterministic () =
  let drive () = capture_stdout (fun () -> Fig_versions.print (Fig_versions.run ())) in
  let serial = at_jobs 1 drive in
  let parallel = at_jobs 4 drive in
  Alcotest.(check bool) "serial output nonempty" true (String.length serial > 0);
  Alcotest.(check string) "fig_versions: jobs 4 ≡ jobs 1" serial parallel

let suites =
  [
    ( "policy.unit",
      [
        Alcotest.test_case "probe matching per key shape" `Quick test_matches;
        Alcotest.test_case "widening ladder and key display" `Quick test_widen_ladder;
        Alcotest.test_case "hot-call keying decision table" `Quick test_choose_hot;
        Alcotest.test_case "tiered pass schedules (size cap)" `Quick test_compile_opt;
        Alcotest.test_case "tier-2 promotion gating" `Quick test_promote;
        Alcotest.test_case "miss actions: paper §4/§6" `Quick test_on_miss_paper;
        Alcotest.test_case "miss actions: polyvariant ladder" `Quick test_on_miss_polyvariant;
      ] );
    ( "policy.engine",
      [
        Alcotest.test_case "widening ladder schedule (values → tags → generic)" `Quick
          test_widening_ladder_schedule;
        Alcotest.test_case "novel-tag fill and best-rank probe" `Quick
          test_fill_and_best_rank_probe;
        Alcotest.test_case "promotion fills value versions beside the catch-all" `Quick
          test_promotion_fills_value_versions;
        Alcotest.test_case "interprocedural facts cross two call edges" `Quick
          test_interprocedural_two_deep_chain;
        Alcotest.test_case "parameter writes stay in the callee's frame" `Quick
          test_param_writes_stay_in_frame;
      ] );
    ( "policy.diff",
      [
        Alcotest.test_case "60-seed differential: paper and polyvariant ≡ interpreter"
          `Slow test_sixty_seed_differential;
        Alcotest.test_case "policy verdicts: jobs 4 ≡ jobs 1" `Quick
          test_polyvariant_jobs_deterministic;
        Alcotest.test_case "version-count driver: jobs 4 ≡ jobs 1" `Slow
          test_versions_driver_deterministic;
      ] );
  ]
