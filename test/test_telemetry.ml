(* Telemetry-layer tests: the JSON sinks themselves, exact event
   sequences through the engine's policy transitions, the counter registry
   as the report's source of truth, and regression coverage for the two
   deoptimization-policy bugs (per-binary strike counting; entry bails on
   specialized binaries counting as §4 deoptimizations). *)

open Runtime

(* A list sink: [collect evs] records every event in [evs], newest first. *)
let collect evs ev = evs := ev :: !evs

(* Run a source program on an explicit engine so the test can attach list
   sinks and read the counter registry afterwards. *)
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

(* What happened to [name], oldest first. *)
let events_of evs name =
  List.filter_map
    (fun (e : Telemetry.event) -> if e.fname = name then Some e.what else None)
    (List.rev !evs)

let kinds events = List.map Telemetry.event_kind events

(* The paper's guards survive in PS-only pipelines; the full pipeline would
   constant-fold a bounds check whose array and index are both burned in. *)
let ps_only = Pipeline.make ~ps:true "PS-only"

(* ------------------------------------------------------------------ *)
(* The sinks themselves                                                *)
(* ------------------------------------------------------------------ *)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* An event built by hand, as a hub with no request context would stamp
   it at cycle 0. *)
let ev fid fname what = { Telemetry.fid; fname; at = 0; ctx = None; what }

let test_json_escaping () =
  let j = Telemetry.to_json (ev 3 "we\"ird\\name" Telemetry.Blacklist) in
  Alcotest.(check bool) "kind tag" true (contains ~sub:{|"ev":"blacklist"|} j);
  Alcotest.(check bool) "escapes quotes and backslashes" true
    (contains ~sub:{|we\"ird\\name|} j)

let test_json_escape_controls () =
  (* RFC 8259: the short escapes where they exist, \u00XX elsewhere —
     including the whole < 0x10 range, whose hex digits need the leading
     zero the old %02x form already gave but \b and \f previously fell into. *)
  Alcotest.(check string) "short forms" {|a\bb\tc\nd\fe\rf|}
    (Telemetry.json_escape "a\bb\tc\nd\012e\rf");
  Alcotest.(check string) "below 0x10" {|\u0000\u0001\u000e\u000f|}
    (Telemetry.json_escape "\000\001\014\015");
  Alcotest.(check string) "0x10..0x1f" {|\u0010\u001f|}
    (Telemetry.json_escape "\016\031");
  Alcotest.(check string) "plain text untouched" "plain text!"
    (Telemetry.json_escape "plain text!")

let test_json_roundtrip () =
  let roundtrips s =
    Alcotest.(check string)
      (Printf.sprintf "roundtrip %S" s)
      s
      (Telemetry.json_unescape (Telemetry.json_escape s))
  in
  List.iter roundtrips
    [
      ""; "plain"; "quote\" backslash\\"; "\b\t\n\012\r"; "\000\001\015\016\031";
      "mixed \127\255 high bytes"; "trailing\\";
    ];
  (* Property: every byte string round-trips. *)
  let all_bytes = String.init 256 Char.chr in
  roundtrips all_bytes;
  QCheck.Test.check_exn
    (QCheck.Test.make ~name:"json escape roundtrip" ~count:500
       QCheck.(string_gen Gen.char)
       (fun s -> Telemetry.json_unescape (Telemetry.json_escape s) = s));
  (* Malformed escapes are rejected, not silently mangled. *)
  List.iter
    (fun bad ->
      Alcotest.(check bool)
        (Printf.sprintf "rejects %S" bad)
        true
        (match Telemetry.json_unescape bad with
        | _ -> false
        | exception Invalid_argument _ -> true))
    [ {|\q|}; {|\u12|}; {|\u12zz|}; "tail\\"; {|\u0100|} ]

(* ------------------------------------------------------------------ *)
(* Rendering: every kind, by hand                                      *)
(* ------------------------------------------------------------------ *)

(* One hand-built event of each kind with its [to_string] and [to_json]
   line, spelled out: a renderer change that moves a byte fails here by
   name. Covers a name that needs escaping, a selective mask, both
   quarantine forms and a pass list. *)
let rendered_events =
  Telemetry.
    [
      ( ev 1 "f" (Compile_start { specialized = true; selective = true; osr = true }),
        "compile-start f1 f specialized selective +OSR",
        {|{"ev":"compile_start","fid":1,"fn":"f","specialized":true,"selective":true,"osr":true}|}
      );
      ( ev 1 "f"
          (Compile_end
             { specialized = false; selective = false; osr = false; size = 42; cycles = 900;
               passes =
                 [ { pd_pass = "gvn"; pd_before = 10; pd_after = 8 };
                   { pd_pass = "dce"; pd_before = 8; pd_after = 6 } ] }),
        "compile-end   f1 f generic size=42 cycles=900 passes=[gvn:10->8 dce:8->6]",
        {|{"ev":"compile_end","fid":1,"fn":"f","specialized":false,"selective":false,"osr":false,"size":42,"cycles":900,"passes":[{"pass":"gvn","before":10,"after":8},{"pass":"dce","before":8,"after":6}]}|}
      );
      ( ev 2 "g" (Cache_hit { index = 1; entries = 3 }),
        "cache-hit     f2 g entry 1 of 3",
        {|{"ev":"cache_hit","fid":2,"fn":"g","index":1,"entries":3}|} );
      ( ev 2 "g" (Cache_miss { entries = 2 }),
        "cache-miss    f2 g (2 cached)",
        {|{"ev":"cache_miss","fid":2,"fn":"g","entries":2}|} );
      ( ev 3 "s" (Specialize { args = {|1, "a"|}; mask = Some [| true; false |] }),
        {|specialize    f3 s args=(1, "a") mask=10|},
        {|{"ev":"specialize","fid":3,"fn":"s","args":"1, \"a\"","mask":"10"}|} );
      ( ev 3 "s" (Specialize { args = "2.5"; mask = None }),
        "specialize    f3 s args=(2.5)",
        {|{"ev":"specialize","fid":3,"fn":"s","args":"2.5"}|} );
      ( ev 2 "g" (Deopt { reason = Strike_limit }),
        "deopt         f2 g (strike_limit)",
        {|{"ev":"deopt","fid":2,"fn":"g","reason":"strike_limit"}|} );
      ( ev 2 "g"
          (Bailout
             { pc = 7; native_pc = 19; reason = "type guard"; osr_entry = true; strikes = 2 }),
        "bailout       f2 g at pc 7 (native 19): type guard [osr entry] strikes=2",
        {|{"ev":"bailout","fid":2,"fn":"g","pc":7,"native_pc":19,"reason":"type guard","osr_entry":true,"strikes":2}|}
      );
      ( ev 4 "we\"ird\\name\n" Blacklist,
        "blacklist     f4 we\"ird\\name\n",
        {|{"ev":"blacklist","fid":4,"fn":"we\"ird\\name\n"}|} );
      ( ev 1 "f" (Osr_enter { pc = 12; loop_edges = 1000 }),
        "osr-enter     f1 f at pc 12 after 1000 loop edges",
        {|{"ev":"osr_enter","fid":1,"fn":"f","pc":12,"loop_edges":1000}|} );
      ( ev 1 "f" (Inline_decision { inlined = 2 }),
        "inline        f1 f 2 call site(s)",
        {|{"ev":"inline_decision","fid":1,"fn":"f","inlined":2}|} );
      ( ev 1 "f" (Guard_elided { guard = "bounds"; origin_fid = 5; pc = 9 }),
        "guard-elided  f1 f bounds guard from f5@9",
        {|{"ev":"guard_elided","fid":1,"fn":"f","guard":"bounds","origin_fid":5,"pc":9}|} );
      ( ev 1 "f"
          (Compile_abort
             { specialized = true; osr = false; reason = "verifier: bad"; cycles = 300 }),
        "compile-abort f1 f specialized: verifier: bad (300 cycles wasted)",
        {|{"ev":"compile_abort","fid":1,"fn":"f","specialized":true,"osr":false,"reason":"verifier: bad","cycles":300}|}
      );
      ( ev 1 "f" (Quarantine { reason = Compile_fault; backoff_calls = 20; permanent = false }),
        "quarantine    f1 f (compile_fault) retry after 20 calls",
        {|{"ev":"quarantine","fid":1,"fn":"f","reason":"compile_fault","backoff_calls":20,"permanent":false}|}
      );
      ( ev 1 "f" (Quarantine { reason = Deopt_storm; backoff_calls = 0; permanent = true }),
        "quarantine    f1 f (deopt_storm) pinned to interpreter",
        {|{"ev":"quarantine","fid":1,"fn":"f","reason":"deopt_storm","backoff_calls":0,"permanent":true}|}
      );
      ( ev 2 "g" (Cache_evict { bytes = 128; in_use = 512 }),
        "cache-evict   f2 g 128 bytes freed (512 in use)",
        {|{"ev":"cache_evict","fid":2,"fn":"g","bytes":128,"in_use":512}|} );
      ( ev 2 "g" (Version_widen { index = 0; from_key = "(1)"; to_key = "(int)"; entries = 2 }),
        "version-widen f2 g entry 0 of 2: (1) -> (int)",
        {|{"ev":"version_widen","fid":2,"fn":"g","index":0,"from":"(1)","to":"(int)","entries":2}|}
      );
      ( ev 1 "f" (Deadline_hit { spent = 5000; limit = 4000 }),
        "deadline-hit  f1 f spent 5000 of 4000 cycles",
        {|{"ev":"deadline_hit","fid":1,"fn":"f","spent":5000,"limit":4000}|} );
      ( ev 1 "f" (Compile_enqueue { kind = "values"; osr = true; ready = 1234; depth = 3 }),
        "bg-enqueue    f1 f values +OSR ready at 1234 (3 queued)",
        {|{"ev":"compile_enqueue","fid":1,"fn":"f","kind":"values","osr":true,"ready":1234,"depth":3}|}
      );
      ( ev 1 "f" (Compile_ready { size = 40; cycles = 800; wait = 55 }),
        "bg-ready      f1 f size=40 cycles=800 after 55 cycles in flight",
        {|{"ev":"compile_ready","fid":1,"fn":"f","size":40,"cycles":800,"wait":55}|} );
      ( ev 1 "f" (Compile_cancel { reason = "overflow" }),
        "bg-cancel     f1 f (overflow)",
        {|{"ev":"compile_cancel","fid":1,"fn":"f","reason":"overflow"}|} );
      ( ev 1 "f" (Osr_entry { pc = 12 }),
        "bg-osr-entry  f1 f at pc 12",
        {|{"ev":"osr_entry","fid":1,"fn":"f","pc":12}|} );
    ]

let test_render_every_kind () =
  List.iter
    (fun (ev, text, json) ->
      let kind = Telemetry.event_kind ev.Telemetry.what in
      Alcotest.(check string) (kind ^ " text") text (Telemetry.to_string ev);
      Alcotest.(check string) (kind ^ " json") json (Telemetry.to_json ev))
    rendered_events;
  Alcotest.(check int) "all twenty kinds" 20
    (List.length
       (List.sort_uniq compare
          (List.map (fun (ev, _, _) -> Telemetry.event_kind ev.Telemetry.what) rendered_events)));
  (* A flight dump over a two-entry ring: the first event is overwritten,
     the second has no request context, the third has one. *)
  let hub = Telemetry.create ~nfuncs:8 () in
  let fl = Flight.create ~capacity:2 () in
  Flight.attach fl hub;
  Telemetry.emit hub ~fid:2 ~fname:"g" ~at:10 (Telemetry.Cache_miss { entries = 0 });
  Telemetry.emit hub ~fid:2 ~fname:"g" ~at:20 Telemetry.Blacklist;
  Telemetry.set_trace hub
    (Some { Telemetry.tc_trace = 7; tc_request = 6; tc_tenant = 3; tc_isolate = 1 });
  Telemetry.emit hub ~fid:1 ~fname:"f" ~at:35 (Telemetry.Osr_entry { pc = 4 });
  Flight.trigger fl ~trigger:"end-of-run" ~detail:"x.js" ~at:40;
  match Flight.dumps fl with
  | [ d ] ->
    let file = Filename.temp_file "flight" ".jsonl" in
    Out_channel.with_open_text file (fun oc -> Flight.output_jsonl oc [ d ]);
    let lines = In_channel.with_open_text file In_channel.input_lines in
    Sys.remove file;
    Alcotest.(check (list string)) "flight jsonl"
      [
        {|{"schema":"vs-flight/1","trigger":"end-of-run","detail":"x.js","at":40,"dropped":1,"entries":2}|};
        {|{"seq":2,"ts":20,"trace":0,"request":-1,"tenant":-1,"event":{"ev":"blacklist","fid":2,"fn":"g"}}|};
        {|{"seq":3,"ts":35,"trace":7,"request":6,"tenant":3,"event":{"ev":"osr_entry","fid":1,"fn":"f","pc":4}}|};
      ]
      lines;
    Alcotest.(check string) "flight text"
      "flight[end-of-run] at=40 detail=x.js dropped=1 entries=2\n\
      \  #2 @20 blacklist     f2 g\n\
      \  #3 @35 trace=7 rq=6 tenant=3 bg-osr-entry  f1 f at pc 4\n"
      (Flight.render d)
  | ds -> Alcotest.failf "expected one dump, got %d" (List.length ds)

(* ------------------------------------------------------------------ *)
(* Event sequences through the engine                                  *)
(* ------------------------------------------------------------------ *)

(* A global index keeps the bounds guard live in the specialized binary
   (the arguments are burned in; the global is not), so mutating it drives
   an in-body bailout through a cache hit. *)
let bailing_src tail =
  "var idx = 1;\n\
   function f(s) { return s[idx]; }\n\
   var a = [1, 2, 3];\n\
   var t = 0;\n\
   for (var k = 0; k < 20; k++) t = (t + f(a)) | 0;\n\
   idx = 99;\n" ^ tail ^ "\nprint(t);"

let test_exact_event_sequence () =
  (* The life cycle of one specialized binary, event by event: specialize
     and compile when hot, serve cache hits, then one in-body bailout that
     (with max_bailouts = 1) immediately strikes the binary out. *)
  let evs = ref [] in
  let cfg = { (Engine.default_config ~opt:ps_only ()) with Engine.max_bailouts = 1 } in
  let _, report, out =
    run ~cfg ~sinks:[ collect evs ] (bailing_src "f(a);")
  in
  Alcotest.(check string) "result" "40\n" out;
  Alcotest.(check (list string)) "exact event sequence"
    ([ "specialize"; "compile_start"; "guard_elided"; "compile_end" ]
    @ List.init 11 (fun _ -> "cache_hit")
    @ [ "bailout"; "deopt" ])
    (kinds (events_of evs "f"));
  (match List.rev (events_of evs "f") with
  | Telemetry.Deopt { reason = Telemetry.Strike_limit; _ }
    :: Telemetry.Bailout { strikes = 1; pc; osr_entry = false; _ } :: _ ->
    Alcotest.(check bool) "in-body bailout" true (pc > 0)
  | _ -> Alcotest.fail "expected a strike-limit deopt right after the bailout");
  Alcotest.(check int) "one discard, one recompile pending" 1 (fn report "f").Engine.fr_bailouts

let test_strike_limit_is_exact () =
  (* Regression (off-by-one): max_bailouts = 2 must mean the binary dies at
     its second bailout, not survive into a third. *)
  let evs = ref [] in
  let cfg = { (Engine.default_config ~opt:ps_only ()) with Engine.max_bailouts = 2 } in
  let engine, report, _ =
    run ~cfg ~sinks:[ collect evs ]
      (bailing_src "for (var k = 0; k < 6; k++) f(a);")
  in
  let events = events_of evs "f" in
  let rec before_first_strike acc = function
    | [] -> List.rev acc
    | Telemetry.Deopt { reason = Telemetry.Strike_limit; _ } :: _ -> List.rev acc
    | e :: rest -> before_first_strike (e :: acc) rest
  in
  let bailouts_before =
    List.length
      (List.filter
         (function Telemetry.Bailout _ -> true | _ -> false)
         (before_first_strike [] events))
  in
  Alcotest.(check int) "discarded at exactly the second bailout" 2 bailouts_before;
  (* Every strike-out happens at exactly max_bailouts strikes. *)
  let arr = Array.of_list events in
  Array.iteri
    (fun i e ->
      match e with
      | Telemetry.Deopt { reason = Telemetry.Strike_limit; _ } -> (
        match arr.(i - 1) with
        | Telemetry.Bailout { strikes; _ } ->
          Alcotest.(check int) "strikes at discard" 2 strikes
        | _ -> Alcotest.fail "strike deopt not preceded by its bailout")
      | _ -> ())
    arr;
  (* 6 bailing calls: strike out at calls 2/4/6, recompile at calls 3/5. *)
  let c = Telemetry.counters (Engine.telemetry engine) in
  let fid = (fn report "f").Engine.fr_fid in
  let get key = Telemetry.Counters.get c ~fid key in
  Alcotest.(check int) "bailouts" 6 (get Telemetry.Key.bailouts);
  Alcotest.(check int) "strike discards" 3 (get Telemetry.Key.strike_discards);
  Alcotest.(check int) "compiles" 3 (get Telemetry.Key.compiles);
  (* Strike discards refresh the binary; they are not §4 deoptimizations
     and must not cost the function its specialization rights. *)
  Alcotest.(check int) "no §4 deopt" 0 (get Telemetry.Key.deopts);
  Alcotest.(check bool) "not reported deoptimized" false (fn report "f").Engine.fr_deoptimized

let test_strikes_are_per_binary () =
  (* Regression (cross-binary leak): with a k-entry cache, each binary
     carries its own strike count. Two bailing tuples interleaved with a
     healthy one: the healthy binary compiles once and is never discarded,
     and every strike-out happens at exactly max_bailouts strikes of its
     own binary. *)
  let evs = ref [] in
  let cfg =
    {
      (Engine.default_config ~opt:ps_only ~cache_size:3 ()) with
      Engine.max_bailouts = 3;
    }
  in
  let engine, report, _ =
    run ~cfg ~sinks:[ collect evs ]
      "function f(s, i) { return s[i]; }\n\
       var a = [1, 2, 3, 4];\n\
       var t = 0;\n\
       for (var k = 0; k < 20; k++) t = (t + f(a, 1)) | 0;\n\
       for (var k = 0; k < 8; k++) { f(a, 5); f(a, 6); t = (t + f(a, 1)) | 0; }\n\
       print(t);"
  in
  let events = Array.of_list (events_of evs "f") in
  Array.iteri
    (fun i e ->
      match e with
      | Telemetry.Deopt { reason = Telemetry.Strike_limit; _ } -> (
        match events.(i - 1) with
        | Telemetry.Bailout { strikes; _ } ->
          Alcotest.(check int) "own binary at its limit" 3 strikes
        | _ -> Alcotest.fail "strike deopt not preceded by its bailout")
      | _ -> ())
    events;
  let c = Telemetry.counters (Engine.telemetry engine) in
  let fid = (fn report "f").Engine.fr_fid in
  let get key = Telemetry.Counters.get c ~fid key in
  (* Per bailing tuple: 8 bailouts, struck out twice, compiled 3 times.
     The healthy tuple compiles once and never bails: under the old shared
     counter its binary would have been condemned by its neighbours'
     strikes. *)
  Alcotest.(check int) "bailouts" 16 (get Telemetry.Key.bailouts);
  Alcotest.(check int) "strike discards" 4 (get Telemetry.Key.strike_discards);
  Alcotest.(check int) "compiles" 7 (get Telemetry.Key.compiles);
  Alcotest.(check int) "no §4 deopt" 0 (get Telemetry.Key.deopts);
  (* The healthy binary kept serving to the end: the last events are its
     cache hits, not recompiles. *)
  (match events.(Array.length events - 1) with
  | Telemetry.Cache_hit _ -> ()
  | e -> Alcotest.fail ("last event should be a cache hit, got " ^ Telemetry.event_kind e))

let test_strikes_per_binary_polyvariant () =
  (* The per-binary strike regression, re-pinned on the polyvariant path
     with cache_size > 1: a healthy promoted value version, the generic
     catch-all, and a bailing value version that is re-promoted after each
     strike-out. Every [max_bailouts]-th in-body bailout discards only its
     own version — the healthy sibling and the catch-all survive to the
     end, and none of it costs the function its specialization rights. *)
  let evs = ref [] in
  let cfg =
    {
      (Engine.default_config ~opt:ps_only ~policy:Policy.Polyvariant
         ~cache_size:3 ()) with
      Engine.max_bailouts = 3;
    }
  in
  let engine, report, out =
    run ~cfg ~sinks:[ collect evs ]
      "function f(s, i) { return s[i]; }\n\
       var a = [1, 2, 3, 4];\n\
       var t = 0;\n\
       for (var k = 0; k < 30; k++) t = (t + f(a, 1)) | 0;\n\
       for (var k = 0; k < 8; k++) { f(a, 5); t = (t + f(a, 1)) | 0; }\n\
       print(t);"
  in
  Alcotest.(check string) "result" "76\n" out;
  let events = Array.of_list (events_of evs "f") in
  Array.iteri
    (fun i e ->
      match e with
      | Telemetry.Deopt { reason = Telemetry.Strike_limit; _ } -> (
        match events.(i - 1) with
        | Telemetry.Bailout { strikes; _ } ->
          Alcotest.(check int) "own binary at its limit" 3 strikes
        | _ -> Alcotest.fail "strike deopt not preceded by its bailout")
      | _ -> ())
    events;
  let c = Telemetry.counters (Engine.telemetry engine) in
  let fid = (fn report "f").Engine.fr_fid in
  let get key = Telemetry.Counters.get c ~fid key in
  (* Tier-1 generic at call 10; values(a,1) promoted at call 30; then each
     f(a,5) call either bails its live values(a,5) binary or — right after
     a strike-out — re-promotes a fresh one off a generic cache hit.
     Per-binary striking: discards at bails 3 and 6 only. *)
  Alcotest.(check int) "compiles" 5 (get Telemetry.Key.compiles);
  Alcotest.(check int) "bailouts" 8 (get Telemetry.Key.bailouts);
  Alcotest.(check int) "strike discards" 2 (get Telemetry.Key.strike_discards);
  Alcotest.(check int) "promotions" 4 (get Telemetry.Key.versions_promoted);
  Alcotest.(check int) "no §4 deopt" 0 (get Telemetry.Key.deopts);
  Alcotest.(check bool) "not reported deoptimized" false
    (fn report "f").Engine.fr_deoptimized;
  (* The healthy value version kept serving to the end. *)
  match events.(Array.length events - 1) with
  | Telemetry.Cache_hit _ -> ()
  | e -> Alcotest.fail ("last event should be a cache hit, got " ^ Telemetry.event_kind e)

let test_entry_bail_is_a_deopt () =
  (* Regression: an entry-guard failure on a specialized binary is a §4
     deoptimization — the probe admitted the call, the entry type barrier
     rejected it — and must be visible as one. Selective mode narrows and
     respecializes instead of blacklisting, and the widened type feedback
     makes the replacement binary guard-free on that argument. *)
  let evs = ref [] in
  let cfg = Engine.default_config ~opt:Pipeline.all_on ~selective:true () in
  let src =
    "function g(a, b) { return (a * 10 + b) | 0; }\n\
     var t = 0;\n\
     for (var k = 0; k < 30; k++) t = (t + g(5, k % 7)) | 0;\n\
     t = (t + g(5, \"x\")) | 0;\n\
     for (var k = 0; k < 10; k++) t = (t + g(5, k % 7)) | 0;\n\
     print(t);"
  in
  let engine, report, out = run ~cfg ~sinks:[ collect evs ] src in
  let _, _, interp_out = run ~cfg:Engine.interp_only src in
  Alcotest.(check string) "matches the interpreter" interp_out out;
  let g = fn report "g" in
  Alcotest.(check bool) "counted as deoptimized" true g.Engine.fr_deoptimized;
  let c = Telemetry.counters (Engine.telemetry engine) in
  let get key = Telemetry.Counters.get c ~fid:g.Engine.fr_fid key in
  Alcotest.(check int) "one entry bailout" 1 (get Telemetry.Key.bailouts_entry);
  Alcotest.(check int) "one §4 deopt" 1 (get Telemetry.Key.deopts);
  (* The burned position matched, so the probe hit: the type change is
     caught by the entry guard, never by the cache probe. *)
  Alcotest.(check int) "no cache miss" 0 (get Telemetry.Key.cache_misses);
  Alcotest.(check int) "narrowed once, not blacklisted" 2 (get Telemetry.Key.compiles);
  Alcotest.(check int) "no blacklist" 0 (get Telemetry.Key.blacklists);
  (match
     List.filter
       (function Telemetry.Deopt _ | Telemetry.Bailout _ -> true | _ -> false)
       (events_of evs "g")
   with
  | [ Telemetry.Bailout { pc = 0; strikes = 0; _ };
      Telemetry.Deopt { reason = Telemetry.Entry_guard; _ } ] -> ()
  | _ -> Alcotest.fail "expected exactly one entry bailout followed by an entry-guard deopt");
  (* After narrowing, the replacement binary serves every remaining call. *)
  (match List.rev (events_of evs "g") with
  | Telemetry.Cache_hit _ :: _ -> ()
  | _ -> Alcotest.fail "expected the narrowed binary to serve the tail calls")

(* ------------------------------------------------------------------ *)
(* Cache policy                                                        *)
(* ------------------------------------------------------------------ *)

let test_lru_move_to_front () =
  (* With a 3-entry cache, hit positions expose the MRU reordering. *)
  let evs = ref [] in
  let cfg = Engine.default_config ~opt:Pipeline.all_on ~cache_size:3 () in
  let _, report, _ =
    run ~cfg ~sinks:[ collect evs ]
      "function f(x) { return (x * 3) | 0; }\n\
       var t = 0;\n\
       for (var k = 0; k < 30; k++) t = (t + f(1)) | 0;\n\
       t = (t + f(2)) | 0;\n\
       t = (t + f(3)) | 0;\n\
       t = (t + f(1)) | 0;\n\
       t = (t + f(3)) | 0;\n\
       t = (t + f(3)) | 0;\n\
       t = (t + f(2)) | 0;\n\
       print(t);"
  in
  Alcotest.(check int) "three specialized binaries" 3 (fn report "f").Engine.fr_compiles;
  Alcotest.(check bool) "no deopt" true (not (fn report "f").Engine.fr_deoptimized);
  let hits =
    List.filter_map
      (function Telemetry.Cache_hit { index; _ } -> Some index | _ -> None)
      (events_of evs "f")
  in
  (* Cache [3;2;1] after the fills; then f(1) hits slot 2 (-> [1;3;2]),
     f(3) slot 1 (-> [3;1;2]), f(3) slot 0, f(2) slot 2. *)
  let tail4 = List.filteri (fun i _ -> i >= List.length hits - 4) hits in
  Alcotest.(check (list int)) "MRU positions" [ 2; 1; 0; 2 ] tail4

let test_full_cache_blacklists () =
  (* The eviction-vs-blacklist boundary: a miss on a FULL cache is the §4
     deoptimization — discard everything, blacklist, go generic — not an
     eviction of the least-recent entry. *)
  let evs = ref [] in
  let cfg = Engine.default_config ~opt:Pipeline.all_on ~cache_size:2 () in
  let engine, report, _ =
    run ~cfg ~sinks:[ collect evs ]
      "function f(x) { return (x * 3) | 0; }\n\
       var t = 0;\n\
       for (var k = 0; k < 30; k++) t = (t + f(1)) | 0;\n\
       t = (t + f(2)) | 0;\n\
       t = (t + f(3)) | 0;\n\
       t = (t + f(1)) | 0;\n\
       print(t);"
  in
  let f = fn report "f" in
  Alcotest.(check bool) "deoptimized" true f.Engine.fr_deoptimized;
  let c = Telemetry.counters (Engine.telemetry engine) in
  let get key = Telemetry.Counters.get c ~fid:f.Engine.fr_fid key in
  Alcotest.(check int) "blacklisted" 1 (get Telemetry.Key.blacklists);
  Alcotest.(check int) "one deopt" 1 (get Telemetry.Key.deopts);
  (* The miss on the full cache (the LAST miss: f(2)'s earlier miss just
     filled the free slot) deopts, blacklists, and compiles generic, in
     that order; the final f(1) is then served by the generic binary. *)
  let after_last_miss events =
    let rec go tail = function
      | [] -> ( match tail with Some t -> t | None -> Alcotest.fail "no cache miss recorded")
      | Telemetry.Cache_miss _ :: rest -> go (Some rest) rest
      | _ :: rest -> go tail rest
    in
    go None events
  in
  (match kinds (after_last_miss (events_of evs "f")) with
  | "deopt" :: "blacklist" :: "compile_start" :: "compile_end" :: rest ->
    Alcotest.(check (list string)) "generic binary serves the tail" [ "cache_hit" ] rest
  | ks -> Alcotest.fail ("unexpected tail: " ^ String.concat "," ks));
  match List.rev f.Engine.fr_sizes with
  | (specialized, _) :: _ -> Alcotest.(check bool) "last compile generic" false specialized
  | [] -> Alcotest.fail "expected compiles"

(* ------------------------------------------------------------------ *)
(* Counters as the source of truth                                     *)
(* ------------------------------------------------------------------ *)

let test_counters_agree_with_report () =
  let cfg = { (Engine.default_config ~opt:ps_only ()) with Engine.max_bailouts = 2 } in
  let engine, report, _ =
    run ~cfg (bailing_src "for (var k = 0; k < 6; k++) f(a);")
  in
  let c = Telemetry.counters (Engine.telemetry engine) in
  List.iter
    (fun (f : Engine.func_report) ->
      let get key = Telemetry.Counters.get c ~fid:f.Engine.fr_fid key in
      Alcotest.(check int) (f.Engine.fr_name ^ " calls") (get Telemetry.Key.calls)
        f.Engine.fr_calls;
      Alcotest.(check int) (f.Engine.fr_name ^ " compiles") (get Telemetry.Key.compiles)
        f.Engine.fr_compiles;
      Alcotest.(check int) (f.Engine.fr_name ^ " bailouts") (get Telemetry.Key.bailouts)
        f.Engine.fr_bailouts;
      Alcotest.(check bool) (f.Engine.fr_name ^ " specialized")
        (get Telemetry.Key.compiles_specialized > 0)
        f.Engine.fr_was_specialized;
      Alcotest.(check bool) (f.Engine.fr_name ^ " deoptimized")
        (get Telemetry.Key.deopts > 0) f.Engine.fr_deoptimized)
    report.Engine.functions;
  Alcotest.(check int) "global compiles = report compilations"
    (Telemetry.Counters.total c Telemetry.Key.compiles)
    report.Engine.compilations

let test_sinks_do_not_cost_cycles () =
  (* Attaching sinks must not change the model-cycle accounting the paper
     tables are built from. *)
  let src =
    "function f(s, i) { return s[i]; }\n\
     var a = [1, 2, 3, 4];\n\
     var t = 0;\n\
     for (var k = 0; k < 25; k++) t = (t + f(a, 1)) | 0;\n\
     for (var k = 0; k < 4; k++) f(a, 9);\n\
     print(t);"
  in
  let cfg = Engine.default_config ~opt:ps_only ~cache_size:2 () in
  let _, bare, out_bare = run ~cfg src in
  let evs = ref [] in
  let _, traced, out_traced =
    run ~cfg ~sinks:[ collect evs; ignore ] src
  in
  Alcotest.(check string) "same output" out_bare out_traced;
  Alcotest.(check bool) "events actually flowed" true (!evs <> []);
  Alcotest.(check int) "same total cycles" bare.Engine.total_cycles traced.Engine.total_cycles;
  Alcotest.(check int) "same compile cycles" bare.Engine.compile_cycles
    traced.Engine.compile_cycles;
  Alcotest.(check int) "same native cycles" bare.Engine.native_cycles
    traced.Engine.native_cycles

let test_compile_end_carries_pass_deltas () =
  (* The per-pass attribution the bench harness aggregates: every
     Compile_end lists the configured passes in order, with coherent sizes. *)
  let evs = ref [] in
  let _, _, _ =
    run ~sinks:[ collect evs ]
      "function f(x) { return x + 1; } var t = 0;\n\
       for (var k = 0; k < 20; k++) t += f(7);\n\
       print(t);"
  in
  let ends =
    List.filter_map
      (function
        | { Telemetry.what = Compile_end { passes; cycles; _ }; _ } -> Some (passes, cycles)
        | _ -> None)
      (List.rev !evs)
  in
  Alcotest.(check bool) "at least one compile" true (ends <> []);
  List.iter
    (fun (passes, cycles) ->
      Alcotest.(check bool) "passes recorded" true (passes <> []);
      List.iter
        (fun (pd : Telemetry.pass_delta) ->
          Alcotest.(check bool) (pd.Telemetry.pd_pass ^ " sizes positive") true
            (pd.Telemetry.pd_before > 0 && pd.Telemetry.pd_after > 0))
        passes;
      Alcotest.(check bool) "cycles charged" true (cycles > 0))
    ends


(* A fault point's counter key, made as the module initialises, like every
   key outside the engine's own. *)
let _exec_guard_fired = Telemetry.Key.make (Telemetry.Key.faults_fired "exec_guard")

(* The registry's read side, on a bare hub: what [rows], [fid_rows],
   [total] and [get] return, whatever the storage behind the keys. *)
let test_counters_rows () =
  let c = Telemetry.counters (Telemetry.create ~nfuncs:3 ()) in
  let key = Telemetry.Key.of_name in
  let open Telemetry in
  Counters.bump ~n:0 c ~fid:1 Key.calls;
  Alcotest.(check (list (pair string int))) "a zero bump makes a row" [ ("calls", 0) ]
    (Counters.rows c);
  Alcotest.(check (list (pair string int))) "fid_rows skip zeros" [] (Counters.fid_rows c 1);
  Counters.bump_global c Key.deopts;
  Counters.bump_global ~n:2 c (key (Key.faults_fired "exec_guard"));
  Counters.bump c ~fid:0 Key.compiles;
  Counters.bump ~n:3 c ~fid:2 Key.compiles;
  Counters.bump c ~fid:2 Key.cache_hits;
  Alcotest.(check (list (pair string int))) "rows, name-sorted"
    [ ("cache.hits", 1); ("calls", 0); ("compiles", 4); ("deopts", 1);
      ("faults.fired.exec_guard", 2) ]
    (Counters.rows c);
  Alcotest.(check (list (pair string int))) "one function's rows" [ ("cache.hits", 1); ("compiles", 3) ]
    (Counters.fid_rows c 2);
  Alcotest.(check (list (pair string int))) "another's" [ ("compiles", 1) ] (Counters.fid_rows c 0);
  Alcotest.(check int) "total is the sum over functions"
    (Counters.get c ~fid:0 Key.compiles + Counters.get c ~fid:2 Key.compiles)
    (Counters.total c Key.compiles);
  Alcotest.(check int) "total by name" 4 (Counters.total c (key "compiles"));
  Alcotest.(check int) "a global bump has no function share" 0 (Counters.get c ~fid:1 Key.deopts);
  Alcotest.(check int) "a global bump has a total" 1 (Counters.total c Key.deopts);
  Alcotest.(check int) "a fault point's total" 2
    (Counters.total c (key (Key.faults_fired "exec_guard")));
  Alcotest.(check int) "never bumped" 0 (Counters.total c Key.bailouts);
  Alcotest.(check int) "never bumped, by function" 0 (Counters.get c ~fid:0 Key.bailouts)

let suites =
  [
    ( "telemetry.sinks",
      [
        Alcotest.test_case "json escaping" `Quick test_json_escaping;
        Alcotest.test_case "control-byte escapes" `Quick test_json_escape_controls;
        Alcotest.test_case "escape/unescape round-trip" `Quick test_json_roundtrip;
      ] );
    ("telemetry.render", [ Alcotest.test_case "every kind" `Quick test_render_every_kind ]);
    ( "telemetry.sequence",
      [
        Alcotest.test_case "compile/hit/bailout/deopt sequence" `Quick
          test_exact_event_sequence;
        Alcotest.test_case "strike limit is exact (regression)" `Quick
          test_strike_limit_is_exact;
        Alcotest.test_case "strikes are per binary (regression)" `Quick
          test_strikes_are_per_binary;
        Alcotest.test_case "strikes per binary under polyvariant cache" `Quick
          test_strikes_per_binary_polyvariant;
        Alcotest.test_case "entry bail counts as deopt (regression)" `Quick
          test_entry_bail_is_a_deopt;
      ] );
    ( "telemetry.cache",
      [
        Alcotest.test_case "LRU move-to-front" `Quick test_lru_move_to_front;
        Alcotest.test_case "full cache blacklists, not evicts" `Quick
          test_full_cache_blacklists;
      ] );
    ( "telemetry.counters",
      [
        Alcotest.test_case "counters agree with the report" `Quick
          test_counters_agree_with_report;
        Alcotest.test_case "sinks never cost cycles" `Quick test_sinks_do_not_cost_cycles;
        Alcotest.test_case "compile events carry pass deltas" `Quick
          test_compile_end_carries_pass_deltas;
        Alcotest.test_case "rows" `Quick test_counters_rows;
      ] );
  ]
