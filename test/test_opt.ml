(* Tests for the optimization passes, anchored on the paper's Section 3
   running example (Figures 6-8), plus generated-program properties:
   every pass pipeline must keep the verifier happy and must not change
   observable behaviour. *)

open Runtime

let values args = Spec_key.Key_values (args, None)

let map_src =
  {|
function inc(x) { return x + 1; }
function map(s, b, n, f) {
  var i = b;
  while (i < n) { s[i] = f(s[i]); i++; }
  return s;
}
print(map(new Array(1, 2, 3, 4, 5), 2, 5, inc));
|}

let build_map ?osr () =
  let program = Bytecode.Compile.program_of_source map_src in
  let func = program.Bytecode.Program.funcs.(2) in
  let spec_args =
    [|
      Value.Arr (Value.arr_of_list (List.init 5 (fun i -> Value.Int (i + 1))));
      Value.Int 2; Value.Int 5;
      Value.Closure { Value.fid = 1; env = [||]; cid = Value.fresh_id () };
    |]
  in
  let osr =
    match osr with
    | Some true ->
      Some
        {
          Builder.osr_pc = 2;
          osr_args = spec_args;
          osr_locals = [| Value.Int 2 |];
          osr_bake_locals = true;
        }
    | _ -> None
  in
  let f = Builder.build ~program ~func ~key:(values spec_args) ?osr () in
  (program, f)

let count f pred =
  let n = ref 0 in
  Mir.iter_instrs f (fun i -> if pred i.Mir.kind then incr n);
  !n

let apply program config f =
  let stats = Pipeline.apply ~program config f in
  Verify.run f;
  stats

(* --- constant propagation (§3.3) --- *)

let test_constprop_folds_guards () =
  let program, f = build_map () in
  Typer.run f;
  let checks_before = count f (function Mir.Check_array _ -> true | _ -> false) in
  Alcotest.(check bool) "array checks present before" true (checks_before > 0);
  let stats = apply program (Pipeline.make ~ps:true ~cp:true "cp") f in
  Alcotest.(check bool) "folded several instructions" true (stats.Pipeline.folded > 0);
  Alcotest.(check int) "all array checks folded away" 0
    (count f (function Mir.Check_array _ -> true | _ -> false))

let test_constprop_folds_comparison () =
  let src = "function f(a, b) { return a < b ? typeof a : \"no\"; }" in
  let program = Bytecode.Compile.program_of_source src in
  let func = program.Bytecode.Program.funcs.(1) in
  let f = Builder.build ~program ~func ~key:(values [| Value.Int 1; Value.Int 2 |]) () in
  let _ = apply program (Pipeline.make ~ps:true ~cp:true ~dce:true "cpdce") f in
  (* a < b and typeof a are compile-time constants; with DCE the function
     collapses to returning the constant string. *)
  Alcotest.(check int) "no comparisons left" 0
    (count f (function Mir.Cmp _ -> true | _ -> false));
  let has_const_typeof = ref false in
  Mir.iter_instrs f (fun i ->
      match i.Mir.kind with
      | Mir.Constant (Value.Str "number") -> has_const_typeof := true
      | _ -> ());
  Alcotest.(check bool) "typeof folded to \"number\"" true !has_const_typeof

let test_constprop_folds_pure_natives () =
  (* The native function arrives as a specialized parameter, the same way
     `inc` does in the paper's example. *)
  let src = "function f(pow, x) { return pow(x, 10) + 1; }" in
  let program = Bytecode.Compile.program_of_source src in
  let func = program.Bytecode.Program.funcs.(1) in
  let f =
    Builder.build ~program ~func
      ~key:(values [| Value.Native_fun "Math.pow"; Value.Int 2 |]) ()
  in
  let _ = apply program (Pipeline.make ~ps:true ~cp:true "cp") f in
  let folded_pow = ref false in
  Mir.iter_instrs f (fun i ->
      match i.Mir.kind with
      | Mir.Constant (Value.Int 1025) -> folded_pow := true
      | _ -> ());
  Alcotest.(check bool) "Math.pow folded at compile time" true !folded_pow

let test_constprop_lattice_laws () =
  (* The meet operator of §3.3 must be commutative/associative/idempotent.
     We test it through observable folding: phi of equal constants folds,
     phi of different constants does not. *)
  let src = "function f(c) { var x; if (c) x = 4; else x = 4; return x + 1; }" in
  let program = Bytecode.Compile.program_of_source src in
  let func = program.Bytecode.Program.funcs.(1) in
  let f = Builder.build ~program ~func () in
  let _ = apply program (Pipeline.make ~cp:true "cp") f in
  let has_five = ref false in
  Mir.iter_instrs f (fun i ->
      match i.Mir.kind with Mir.Constant (Value.Int 5) -> has_five := true | _ -> ());
  Alcotest.(check bool) "phi(4,4)+1 folded to 5" true !has_five

(* --- dead code elimination (§3.5) --- *)

let test_dce_removes_wrapping_conditional () =
  let program, f = build_map () in
  let stats = apply program (Pipeline.make ~ps:true ~cp:true ~li:true ~dce:true "all") f in
  Alcotest.(check int) "one loop inverted" 1 stats.Pipeline.loops_inverted;
  Alcotest.(check bool) "wrapping conditional folded" true
    (stats.Pipeline.branches_folded >= 1)

let test_dce_keeps_entry_block () =
  let program, f = build_map () in
  let entry = f.Mir.entry in
  let _ = apply program (Pipeline.make ~ps:true ~cp:true ~dce:true "x") f in
  Alcotest.(check bool) "entry block still laid out" true
    (List.mem entry f.Mir.block_order)

let test_dce_respects_snapshots () =
  (* A value only used by a guard's resume point must survive DCE. *)
  let src = "function f(a, n) { var big = n * 1000; return a[n] + (big - big); }" in
  let program = Bytecode.Compile.program_of_source src in
  let func = program.Bytecode.Program.funcs.(1) in
  let tags = Value.[| Some Tag_array; Some Tag_int |] in
  let f = Builder.build ~program ~func ~arg_tags:tags () in
  let _ = apply program (Pipeline.make ~cp:true ~dce:true "x") f in
  (* Just verifying suffices: dangling rp operands would fail Verify. *)
  ()

(* --- loop inversion (§3.4) --- *)

let test_inversion_moves_test_to_latch () =
  let program, f = build_map () in
  let stats = apply program (Pipeline.make ~ps:true ~cp:true ~li:true "li") f in
  Alcotest.(check int) "inverted" 1 stats.Pipeline.loops_inverted;
  (* After inversion the loop has a conditional latch: some block branches
     with one in-loop and one out-of-loop target whose condition is computed
     in the same block (bottom-tested loop). *)
  let doms = Cfg.dominators f in
  let loops = Cfg.natural_loops f doms in
  Alcotest.(check int) "still one natural loop" 1 (List.length loops);
  let loop = List.hd loops in
  List.iter
    (fun latch ->
      match (Mir.block f latch).Mir.term with
      | Mir.Branch _ -> ()
      | _ -> Alcotest.fail "latch should be conditional after inversion")
    loop.Cfg.latches

let test_inversion_preserves_zero_trip () =
  (* If the loop runs zero times the wrapping conditional must skip it. *)
  let src =
    "function f(n) { var t = 100; for (var i = 0; i < n; i++) t = 0; return t; }\n\
     print(f(0), f(3));"
  in
  let run opt =
    let buf = Buffer.create 16 in
    Builtins.with_print_hook (Buffer.add_string buf) (fun () ->
        ignore (Engine.run_source (Engine.default_config ~opt ()) src);
        Buffer.contents buf)
  in
  Alcotest.(check string) "li config matches baseline" (run Pipeline.baseline)
    (run (Pipeline.make ~ps:true ~cp:true ~li:true "li"))

(* Many sequential loops in one function: the shape of a generated site
   driver. Plain, breaking, nested and live-out loops, and loops whose
   header value is used only by a join past the exit block (no resume
   point between them mentions it), over globals at the top level and
   over locals in [stress]. Returns the source and the number of while
   loops in each of the two functions. *)
let many_loops_src ~groups =
  let loop k v =
    match k mod 5 with
    | 0 -> Printf.sprintf "%s0 = 0; while (%s0 < n) { acc = (acc + %s0 * 3) | 0; %s0++; }" v v v v
    | 1 ->
      Printf.sprintf
        "%s1 = 0; while (%s1 < n + 5) { if (acc %% 7 == 3) break; acc = (acc + %s1) | 0; %s1++; }"
        v v v v
    | 2 ->
      Printf.sprintf
        "%s2 = 0; while (%s2 < 3) { %s3 = 0; while (%s3 < n) { acc = (acc ^ %s3) | 0; %s3++; } %s2++; }"
        v v v v v v v
    | 3 -> Printf.sprintf "%s4 = n; while (%s4 > 0) { %s4 = %s4 - 2; } acc = (acc + %s4) | 0;" v v v v v
    | _ ->
      Printf.sprintf
        "%s5 = 0; if (n > 1) { %s0 = 0; while (%s0 < n) { %s5 = %d; %s0++; } %s0 = 0; } acc = (acc + %s5) | 0;"
        v v v v k v v v
  in
  let body v = String.concat "\n" (List.init groups (fun k -> loop k v)) in
  let src =
    Printf.sprintf
      "function stress(n) {\n\
       var acc = 1, l0, l1, l2, l3, l4, l5;\n\
       %s\n\
       return acc;\n\
       }\n\
       var n = 5, acc = 2, g0, g1, g2, g3, g4, g5;\n\
       %s\n\
       acc = (acc + stress(n) + stress(0)) | 0;\n"
      (body "l") (body "g")
  in
  (src, groups + ((groups + 2) / 5))

(* The loop-inversion corpus: every Figure 9 suite member, six generated
   sites per web profile (the site drivers are where inversion meets dozens
   of sequential loops in one function), and a small many-loops program
   with every loop shape above. *)
let li_corpus =
  List.concat_map
    (fun (s : Suite.t) -> List.map (fun (m : Suite.member) -> m.Suite.m_source) s.Suite.members)
    Suites.all
  @ List.concat_map
      (fun p -> List.init 6 (fun k -> Web.synthetic_site ~seed:(k + 1) p))
      [ Web.google; Web.facebook; Web.twitter ]
  @ [ fst (many_loops_src ~groups:20) ]

let li_schedules = List.filter (fun c -> c.Pipeline.loop_inversion) Pipeline.figure9_configs

(* Every function of every corpus program, freshly built (unspecialized). *)
let iter_corpus_funcs fn =
  List.iter
    (fun src ->
      let program = Bytecode.Compile.program_of_source src in
      Array.iter
        (fun func -> fn program (fun () -> Builder.build ~program ~func ()))
        program.Bytecode.Program.funcs)
    li_corpus

(* [Mir.to_string] prints a resume point as its pc only; the golden text
   adds the snapshot operands so a renumbered resume point shows too. *)
let graph_text f =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Mir.to_string f);
  Mir.iter_instrs f (fun i ->
      match i.Mir.rp with
      | None -> ()
      | Some rp ->
        let defs ds = String.concat "," (List.map Mir.def_name ds) in
        Printf.bprintf buf "rp %s: %s | %s | %s\n" (Mir.def_name i.Mir.def)
          (defs (Array.to_list rp.Mir.rp_args))
          (defs (Array.to_list rp.Mir.rp_locals))
          (defs rp.Mir.rp_stack));
  Buffer.contents buf

(* One digest over (a) every corpus function optimized under each of
   [static] and (b) every graph the engine optimizes while running the
   corpus under [engine]. [on_stats] sees the pass counts of (a),
   [on_graph] every digested graph. *)
let corpus_digest ?(on_stats = ignore) ?(on_graph = ignore) ~static engine =
  let acc = ref (Digest.string "") in
  let add f =
    on_graph f;
    acc := Digest.string (!acc ^ Digest.string (graph_text f))
  in
  iter_corpus_funcs (fun program build ->
      List.iter
        (fun config ->
          let f = build () in
          on_stats (Pipeline.apply ~program config f);
          add f)
        static);
  Engine.with_mir_hook add (fun () ->
      List.iter
        (fun src ->
          Builtins.with_print_hook ignore (fun () ->
              Builtins.reset_random 20130223;
              ignore (Engine.run_source (Engine.default_config ~opt:engine ()) src)))
        li_corpus);
  Digest.to_hex !acc

(* Every loop-inversion schedule of Figure 9, and the engine under
   [Pipeline.all_on]. *)
let li_golden_digest () = corpus_digest ~static:li_schedules Pipeline.all_on

(* Loop inversion's output is pinned byte for byte: the same loops
   inverted in the same order with the same def and block numbers. A
   change that only makes the pass faster must leave this digest alone.
   To regenerate after a deliberate change to the optimized graphs, run
   `dune exec test/test_main.exe -- test opt.loop_inversion` and paste the
   digest the failing check received here. *)
let li_golden = "101ad86edc0590266e99a44436441d04"

let test_inversion_golden () =
  Alcotest.(check string) "optimized MIR digest" li_golden (li_golden_digest ())

(* The other loop passes, pinned the same way: unrolling, the fuzzer's
   "max" config (every loop pass at once), and bounds-check elimination
   (guard elision over Absint's induction ranges, conservative and
   precise alias, the latter with overflow-check elimination). Each
   line is one config's digest (static builds and engine runs under it),
   the static builds' pass counts and the bounds checks left in every
   digested graph, so a config that stops exercising its pass shows in
   clear. Regenerate like [li_golden]. *)
let loop_pass_configs =
  [
    Pipeline.make ~ps:true ~cp:true ~dce:true ~loop_unroll:true "unroll";
    Pipeline.make ~ps:true ~cp:true ~li:true ~dce:true ~bce:true ~precise_alias:true
      ~overflow_elim:true ~loop_unroll:true "max";
    Pipeline.make ~ps:true ~cp:true ~li:true ~dce:true ~bce:true "bce";
    Pipeline.make ~ps:true ~cp:true ~dce:true ~bce:true ~precise_alias:true
      ~overflow_elim:true "bce-precise";
  ]

let loop_pass_line config =
  let unrolled = ref 0 and inverted = ref 0 and overflow = ref 0 in
  let on_stats (s : Pipeline.run_stats) =
    unrolled := !unrolled + s.Pipeline.unrolled;
    inverted := !inverted + s.Pipeline.loops_inverted;
    overflow := !overflow + s.Pipeline.overflow_removed
  in
  let checks = ref 0 in
  let on_graph f =
    Mir.iter_instrs f (fun i ->
        match i.Mir.kind with Mir.Bounds_check _ -> incr checks | _ -> ())
  in
  let digest = corpus_digest ~on_stats ~on_graph ~static:[ config ] config in
  Printf.sprintf "%s %s unrolled=%d inverted=%d overflow=%d checks_left=%d"
    config.Pipeline.name digest !unrolled !inverted !overflow !checks

let loop_pass_golden =
  [
    "unroll 234c6cbb74d9a9a4230047160846b9e7 unrolled=99 inverted=0 overflow=0 checks_left=303";
    "max ab8d4b6cb9f5d637c49c8d4317f088b0 unrolled=99 inverted=1548 overflow=215 checks_left=447";
    "bce 79b20bfda4b1150d6c0f09dd74c65f03 unrolled=0 inverted=1641 overflow=0 checks_left=441";
    "bce-precise 2258fce432995b5aeb226a4a2a6708c8 unrolled=0 inverted=0 overflow=301 \
     checks_left=211";
  ]

let test_loop_pass_golden () =
  Alcotest.(check (list string))
    "optimized MIR digests" loop_pass_golden
    (List.map loop_pass_line loop_pass_configs)

(* Reference CFG analyses for the agreement test: dominance by walking the
   immediate-dominator chain, and the natural-loop enumeration written
   against it, including its Hashtbl-driven order among loops of equal
   size (loop inversion's def numbering depends on that order). *)
let reference_natural_loops f dominates =
  let back_edges = ref [] in
  List.iter
    (fun bid ->
      List.iter
        (fun succ -> if dominates succ bid then back_edges := (bid, succ) :: !back_edges)
        (Mir.successors (Mir.block f bid)))
    (Mir.reverse_postorder f);
  let by_header = Hashtbl.create 8 in
  List.iter
    (fun (latch, header) ->
      let existing = Option.value (Hashtbl.find_opt by_header header) ~default:[] in
      Hashtbl.replace by_header header (latch :: existing))
    !back_edges;
  let loops = ref [] in
  Hashtbl.iter
    (fun header latches ->
      let body = Hashtbl.create 8 in
      Hashtbl.replace body header true;
      let rec add bid =
        if not (Hashtbl.mem body bid) then begin
          Hashtbl.replace body bid true;
          List.iter add (Mir.block f bid).Mir.preds
        end
      in
      List.iter add latches;
      let body_list = Hashtbl.fold (fun bid _ acc -> bid :: acc) body [] in
      loops := { Cfg.header; latches; body = List.sort compare body_list } :: !loops)
    by_header;
  List.sort (fun a b -> compare (List.length b.Cfg.body) (List.length a.Cfg.body)) !loops

(* [carried], a dominator tree loop inversion carries through a sweep,
   must agree with the recomputed one on every block pair. *)
let check_cfg_agrees ?carried ctx f =
  let doms = Cfg.dominators f in
  let reachable = Mir.reachable_blocks f in
  let ids = List.init f.Mir.next_block Fun.id in
  (* [anc.(a)] marks the idom-chain ancestors of the block being checked. *)
  let anc = Array.make f.Mir.next_block false in
  let chain b =
    let rec walk x acc =
      match Cfg.immediate_dominator doms x with Some p -> walk p (p :: acc) | None -> acc
    in
    if Hashtbl.mem reachable b then walk b [ b ] else []
  in
  List.iter
    (fun b ->
      let c = chain b in
      List.iter (fun a -> anc.(a) <- true) c;
      List.iter
        (fun a ->
          if Cfg.dominates doms a b <> anc.(a) then
            Alcotest.failf "%s: dominates B%d B%d disagrees with the idom walk" ctx a b;
          match carried with
          | Some c when Cfg.dominates c a b <> anc.(a) ->
            Alcotest.failf "%s: the carried tree disagrees on B%d dominating B%d" ctx a b
          | _ -> ())
        ids;
      (match carried with
      | Some c when Cfg.immediate_dominator c b <> Cfg.immediate_dominator doms b ->
        Alcotest.failf "%s: the carried tree's idom of B%d differs" ctx b
      | _ -> ());
      List.iter (fun a -> anc.(a) <- false) c)
    ids;
  let naive a b =
    let rec walk x =
      x = a || match Cfg.immediate_dominator doms x with Some p -> walk p | None -> false
    in
    Hashtbl.mem reachable b && walk b
  in
  if Cfg.natural_loops f doms <> reference_natural_loops f naive then
    Alcotest.failf "%s: natural_loops differs from the reference enumeration" ctx

(* After every loop-inversion round on every corpus function, [Cfg]'s
   dominance and loop forest agree with the reference analyses. So does,
   after every inversion of full sweeps, the dominator tree the sweep
   carries, and the sweeps build the graph the rounds built. The prefix
   is the PS+CP+LI schedule's pipeline up to inversion. *)
let test_inversion_cfg_agreement () =
  let prefix = Pipeline.make ~ps:true ~cp:true ~licm:false ~ge:false "PS+CP prefix" in
  iter_corpus_funcs (fun program build ->
      let prefixed () =
        let f = build () in
        ignore (Pipeline.apply ~program prefix f);
        f
      in
      let f = prefixed () in
      let ctx what k = Printf.sprintf "%s %s %d" f.Mir.source.Bytecode.Program.name what k in
      check_cfg_agrees (ctx "round" 0) f;
      let rec rounds k =
        if Loop_inversion.run ~max_loops:1 f = 1 then begin
          check_cfg_agrees (ctx "round" k) f;
          rounds (k + 1)
        end
      in
      rounds 1;
      let swept = prefixed () in
      let k = ref 0 in
      let after carried =
        incr k;
        check_cfg_agrees ~carried (ctx "inversion" !k) swept
      in
      ignore (Loop_inversion.run ~after swept);
      Alcotest.(check string) (ctx "sweeps build the rounds' graph" !k) (graph_text f)
        (graph_text swept))

(* An outer loop holding two inner loops, then a loop of [ifs] guarded
   decrements. Inverting the inner loops shrinks the outer one by a
   block each, which moves it ahead of the later loop at [ifs = 2]: the
   sweep must follow, as rounds over a recomputed forest do. *)
let shrinking_outer_src ifs =
  let guards =
    String.concat " " (List.init ifs (fun k -> Printf.sprintf "if (a > %d) a = a - 1;" k))
  in
  Printf.sprintf
    "function f(n) {\n\
     var a = 0, i, j, k, p;\n\
     i = 0; while (i < n) { j = 0; while (j < n) { a = a + j; j++; } k = 0; while (k < n) { a \
     = a + k; k++; } i++; }\n\
     p = 0; while (p < n) { %s p++; }\n\
     return a;\n\
     }\n\
     print(f(3));\n"
    guards

let test_inversion_sweep_order () =
  let prefix = Pipeline.make ~ps:true ~cp:true ~licm:false ~ge:false "PS+CP prefix" in
  for ifs = 0 to 4 do
    let program = Bytecode.Compile.program_of_source (shrinking_outer_src ifs) in
    let prefixed () =
      let f = Builder.build ~program ~func:program.Bytecode.Program.funcs.(1) () in
      ignore (Pipeline.apply ~program prefix f);
      f
    in
    let rounds = prefixed () and swept = prefixed () in
    while Loop_inversion.run ~max_loops:1 rounds = 1 do
      ()
    done;
    Alcotest.(check int) (Printf.sprintf "ifs=%d: loops inverted" ifs) 4 (Loop_inversion.run swept);
    Alcotest.(check string)
      (Printf.sprintf "ifs=%d: sweeps build the rounds' graph" ifs)
      (graph_text rounds) (graph_text swept)
  done

(* Check mode's comparison reports a dominator tree the graph has moved
   away from, attributed to the pass it is given. *)
let test_stale_dominators_reported () =
  let program, f = build_map () in
  ignore (apply program (Pipeline.make ~ps:true ~cp:true "ps+cp") f);
  let stale = Cfg.dominators f in
  Alcotest.(check int) "inverted" 1 (Loop_inversion.run f);
  match Cfg.check_dominators ~pass:"loop-inversion" f stale with
  | () -> Alcotest.fail "a stale dominator tree passed the check"
  | exception Diag.Failed d ->
    Alcotest.(check (option string)) "pass" (Some "loop-inversion") d.Diag.pass

(* Loop inversion costs O(graph + loops), not O(loops x graph): on the
   shape of a generated site's top level, four times the loops may cost
   at most six times the work. Work is counted in minor words, which
   (unlike time) repeat exactly from run to run. *)
let test_inversion_scales_linearly () =
  let prefix = Pipeline.make ~ps:true ~cp:true ~licm:false ~ge:false "PS+CP prefix" in
  let words groups =
    let src, _ = many_loops_src ~groups in
    let program = Bytecode.Compile.program_of_source src in
    let main = program.Bytecode.Program.funcs.(program.Bytecode.Program.main) in
    let f = Builder.build ~program ~func:main () in
    ignore (Pipeline.apply ~program prefix f);
    let before = Gc.minor_words () in
    ignore (Loop_inversion.run f);
    Gc.minor_words () -. before
  in
  let small = words 50 and large = words 200 in
  let ratio = large /. small in
  if ratio > 6.0 then
    Alcotest.failf "200 groups allocate %.0f minor words, 50 groups %.0f: %.1fx > 6x" large
      small ratio

let test_inversion_many_loops () =
  let src, nloops = many_loops_src ~groups:200 in
  let program = Bytecode.Compile.program_of_source src in
  let main = program.Bytecode.Program.funcs.(program.Bytecode.Program.main) in
  let stress = program.Bytecode.Program.funcs.(1) in
  let optimized func =
    let f = Builder.build ~program ~func () in
    let stats = Pipeline.apply ~program (Pipeline.make ~ps:true ~cp:true ~li:true "li") f in
    Verify.run f;
    Verify.check_types f;
    Alcotest.(check int)
      (func.Bytecode.Program.name ^ ": every loop inverted")
      nloops stats.Pipeline.loops_inverted;
    Alcotest.(check int)
      (func.Bytecode.Program.name ^ ": no while-shaped loop left")
      0
      (Loop_inversion.run f);
    f
  in
  let f_main = optimized main and f_stress = optimized stress in
  (* The interpreter runs the whole program; the MIR evaluator runs the
     optimized top level, calling into the interpreter for [stress], and
     [stress]'s optimized graph directly. *)
  let st = Interp.make_state program in
  let hooks = Interp.default_hooks st in
  ignore (Interp.run st hooks (Interp.make_frame main ~args:[||] ~upvals:[||]));
  let st' = Interp.make_state program in
  let hooks' = Interp.default_hooks st' in
  let eval f ~(func : Bytecode.Program.func) args =
    let env =
      {
        Eval.ev_args = args;
        ev_env = [||];
        ev_cells =
          Array.init (max func.Bytecode.Program.ncells 1) (fun _ -> ref Value.Undefined);
        ev_globals = st'.Interp.globals;
        ev_call = Interp.call_value st' hooks';
        ev_osr_args = [||];
        ev_osr_locals = [||];
      }
    in
    match Eval.run env f ~at_osr:false with
    | Eval.Finished v -> v
    | Eval.Bailed { reason; _ } -> Alcotest.failf "unexpected bailout (%s)" reason
  in
  ignore (eval f_main ~func:main [||]);
  Array.iteri
    (fun i v ->
      Alcotest.(check string)
        ("global " ^ program.Bytecode.Program.global_names.(i))
        (Value.to_display_string v)
        (Value.to_display_string st'.Interp.globals.(i)))
    st.Interp.globals;
  List.iter
    (fun n ->
      let expected =
        Interp.run st hooks (Interp.make_frame stress ~args:[| Value.Int n |] ~upvals:[||])
      in
      Alcotest.(check string)
        (Printf.sprintf "stress(%d)" n)
        (Value.to_display_string expected)
        (Value.to_display_string (eval f_stress ~func:stress [| Value.Int n |])))
    [ 0; 1; 6 ]

(* --- bounds check elimination (§3.6) --- *)

let read_only_loop =
  {|
function sumto(s, n) {
  var t = 0;
  for (var i = 0; i < n; i++) t += s[i];
  return t;
}
|}

let build_sumto () =
  let program = Bytecode.Compile.program_of_source read_only_loop in
  let func = program.Bytecode.Program.funcs.(1) in
  let arr = Value.Arr (Value.arr_of_list (List.init 8 (fun i -> Value.Int i))) in
  let f = Builder.build ~program ~func ~key:(values [| arr; Value.Int 8 |]) () in
  (program, f)

(* Bounds checks are removed by guard elision, the one bounds proof; the
   BCE slot itself only rewrites overflow checks. *)
let bounds_elided elisions =
  List.length (List.filter (fun (e : Mir.elision) -> e.Mir.el_kind = "bounds") elisions)

let bounds_removed (stats : Pipeline.run_stats) = bounds_elided stats.Pipeline.elisions

let test_bce_removes_proven_checks () =
  let program, f = build_sumto () in
  let stats = apply program (Pipeline.make ~ps:true ~cp:true ~bce:true "bce") f in
  Alcotest.(check bool) "bounds checks removed" true (bounds_removed stats > 0);
  Alcotest.(check int) "none remain" 0
    (count f (function Mir.Bounds_check _ -> true | _ -> false))

let test_bce_keeps_unprovable_checks () =
  let program = Bytecode.Compile.program_of_source read_only_loop in
  let func = program.Bytecode.Program.funcs.(1) in
  let arr = Value.Arr (Value.arr_of_list (List.init 8 (fun i -> Value.Int i))) in
  (* Bound 9 exceeds the array length: the check must stay. *)
  let f = Builder.build ~program ~func ~key:(values [| arr; Value.Int 9 |]) () in
  let stats = apply program (Pipeline.make ~ps:true ~cp:true ~bce:true "bce") f in
  Alcotest.(check int) "nothing removed" 0 (bounds_removed stats)

let test_bce_store_conservatism () =
  (* Element stores only grow arrays in this VM, so a fill loop is already
     eliminable in the conservative mode... *)
  let src =
    "function fill(s, n) { for (var i = 0; i < n; i++) s[i] = i; return s; }"
  in
  let program = Bytecode.Compile.program_of_source src in
  let func = program.Bytecode.Program.funcs.(1) in
  let arr = Value.Arr (Value.new_arr 8) in
  let build () = Builder.build ~program ~func ~key:(values [| arr; Value.Int 8 |]) () in
  let s1 = apply program (Pipeline.make ~ps:true ~cp:true ~bce:true "bce") (build ()) in
  Alcotest.(check bool) "growth-only stores do not block" true (bounds_removed s1 > 0);
  (* ...but an opaque call might reach a pop on an alias, so it blocks the
     conservative mode and only the paper's precise-alias assumption
     (Figure 8b) lifts it. *)
  let srcc =
    "function f(s, n, g) { var t = 0; for (var i = 0; i < n; i++) t = (t + s[i] + g(i)) | 0; return t; }"
  in
  let programc = Bytecode.Compile.program_of_source srcc in
  let funcc = programc.Bytecode.Program.funcs.(1) in
  let clo = Value.Closure { Value.fid = 1; env = [||]; cid = Value.fresh_id () } in
  let buildc () =
    Builder.build ~program:programc ~func:funcc
      ~key:(values [| Value.Arr (Value.new_arr 8); Value.Int 8; clo |]) ()
  in
  let s2 = apply programc (Pipeline.make ~ps:true ~cp:true ~bce:true "bce") (buildc ()) in
  Alcotest.(check int) "call blocks conservative mode" 0 (bounds_removed s2);
  let s3 =
    apply programc
      (Pipeline.make ~ps:true ~cp:true ~bce:true ~precise_alias:true "bce+")
      (buildc ())
  in
  Alcotest.(check bool) "precise aliasing eliminates past the call" true
    (bounds_removed s3 > 0);
  (* A shrinking method call blocks in BOTH modes: the compile-time length
     is no longer a lower bound on the runtime length. *)
  let srcp =
    "function f(s, n) { var t = 0; for (var i = 0; i < n; i++) t = (t + s[i]) | 0; s.pop(); return t; }"
  in
  let programp = Bytecode.Compile.program_of_source srcp in
  let funcp = programp.Bytecode.Program.funcs.(1) in
  let fp =
    Builder.build ~program:programp ~func:funcp
      ~key:(values [| Value.Arr (Value.new_arr 8); Value.Int 4 |]) ()
  in
  let s4 =
    apply programp (Pipeline.make ~ps:true ~cp:true ~bce:true ~precise_alias:true "bce+") fp
  in
  Alcotest.(check int) "pop blocks even precise mode" 0 (bounds_removed s4)

let test_overflow_check_elimination () =
  let program, f = build_sumto () in
  let s =
    apply program
      (Pipeline.make ~ps:true ~cp:true ~bce:true ~overflow_elim:true "ovf") f
  in
  Alcotest.(check bool) "induction step proven overflow-free" true
    (s.Pipeline.overflow_removed > 0);
  Alcotest.(check bool) "unchecked int add present" true
    (count f (function
       | Mir.Binop (Ops.Add, _, _, Mir.Mode_int_nocheck) -> true
       | _ -> false)
    > 0)

(* One bounds proof: guard elision removes the checks an induction range
   (§3.6) proves, also where the loop-exit test does not dominate the
   check (bottom-tested loops after inversion). Pins the bounds checks
   left in the specialized graphs the engine compiles for a suite
   member's function. *)
let engine_checks_left ?(precise_alias = false) member fname =
  let m =
    List.find
      (fun (m : Suite.member) -> m.Suite.m_name = member)
      (List.concat_map (fun (s : Suite.t) -> s.Suite.members) Suites.all)
  in
  let opt = { Pipeline.all_on with Pipeline.precise_alias } in
  let left = ref 0 in
  Engine.with_mir_hook
    (fun f ->
      if f.Mir.source.Bytecode.Program.name = fname
         && (match f.Mir.key with Spec_key.Key_values _ -> true | _ -> false)
      then
        left := !left + count f (function Mir.Bounds_check _ -> true | _ -> false))
    (fun () -> ignore (Runner.run_member (Engine.default_config ~opt ()) m));
  !left

let test_one_bounds_proof () =
  Alcotest.(check int) "access-nsieve/nsieve" 2 (engine_checks_left "access-nsieve" "nsieve");
  Alcotest.(check int) "crypto-aes/expandKey" 5 (engine_checks_left "crypto-aes" "expandKey");
  Alcotest.(check int) "crypto-aes/encryptBlock, precise alias" 7
    (engine_checks_left ~precise_alias:true "crypto-aes" "encryptBlock")

(* --- loop unrolling (§6 extension) --- *)

let test_unroll_constant_trip_loop () =
  let src =
    "function f(s, n) { var t = 0; for (var i = 0; i < n; i++) t = (t + s[i]) | 0; return t; }"
  in
  let program = Bytecode.Compile.program_of_source src in
  let func = program.Bytecode.Program.funcs.(1) in
  let arr = Value.Arr (Value.arr_of_list (List.init 5 (fun i -> Value.Int (i * i)))) in
  let f = Builder.build ~program ~func ~key:(values [| arr; Value.Int 5 |]) () in
  let stats =
    apply program (Pipeline.make ~ps:true ~cp:true ~dce:true ~loop_unroll:true "u") f
  in
  Alcotest.(check int) "one loop unrolled" 1 stats.Pipeline.unrolled;
  (* No loops remain, and the indices are the constants 0..4. *)
  let loops = Cfg.natural_loops f (Cfg.dominators f) in
  Alcotest.(check int) "no loops left" 0 (List.length loops);
  let code, _ = Regalloc.run (Lower.run f) in
  let cb = { Exec.call = (fun _ _ -> assert false); globals = [||]; cycles = ref 0; on_charge = None; on_instr = None } in
  let act = Exec.make_activation ~func ~args:[| arr; Value.Int 5 |] () in
  (match Exec.run cb (Exec.prepare code) act ~at_osr:false with
  | Exec.Finished v -> Alcotest.(check bool) "sum" true (Value.same_value v (Value.Int 30))
  | Exec.Bailed b -> Alcotest.failf "unexpected bailout: %s" b.Exec.bo_reason)

let test_unroll_zero_trip_loop () =
  let src = "function f(n) { var t = 7; for (var i = 0; i < n; i++) t = 0; return t; }" in
  let program = Bytecode.Compile.program_of_source src in
  let func = program.Bytecode.Program.funcs.(1) in
  let f = Builder.build ~program ~func ~key:(values [| Value.Int 0 |]) () in
  let stats =
    apply program (Pipeline.make ~ps:true ~cp:true ~loop_unroll:true "u") f
  in
  Alcotest.(check int) "zero-trip loop removed" 1 stats.Pipeline.unrolled;
  let code, _ = Regalloc.run (Lower.run f) in
  let cb = { Exec.call = (fun _ _ -> assert false); globals = [||]; cycles = ref 0; on_charge = None; on_instr = None } in
  let act = Exec.make_activation ~func ~args:[| Value.Int 0 |] () in
  match Exec.run cb (Exec.prepare code) act ~at_osr:false with
  | Exec.Finished v -> Alcotest.(check bool) "initial value" true (Value.same_value v (Value.Int 7))
  | Exec.Bailed b -> Alcotest.failf "unexpected bailout: %s" b.Exec.bo_reason

let test_unroll_skips_unknown_bounds () =
  let src = "function f(n) { var t = 0; for (var i = 0; i < n; i++) t += i; return t; }" in
  let program = Bytecode.Compile.program_of_source src in
  let func = program.Bytecode.Program.funcs.(1) in
  let f = Builder.build ~program ~func ~arg_tags:Value.[| Some Tag_int |] () in
  let stats =
    apply program (Pipeline.make ~cp:true ~loop_unroll:true "u") f
  in
  Alcotest.(check int) "dynamic bound not unrolled" 0 stats.Pipeline.unrolled

let test_unroll_respects_budget () =
  let src = "function f(n) { var t = 0; for (var i = 0; i < n; i++) t += i; return t; }" in
  let program = Bytecode.Compile.program_of_source src in
  let func = program.Bytecode.Program.funcs.(1) in
  let f = Builder.build ~program ~func ~key:(values [| Value.Int 5000 |]) () in
  let stats =
    apply program (Pipeline.make ~ps:true ~cp:true ~loop_unroll:true "u") f
  in
  Alcotest.(check int) "trip count over budget" 0 stats.Pipeline.unrolled

(* Only a [<] or [<=] test has a trip count the pass evaluates: a loop
   under an equality test ([i != n] runs until the counter meets the
   bound) must be left alone, not deleted as zero-trip. *)
let test_unroll_skips_equality_tests () =
  let src op n =
    Printf.sprintf
      "function f(n) { var t = 0; for (var i = 0; i %s n; i++) t = t + 1; return t; }\n\
       var s = 0; for (var k = 0; k < 40; k++) s = s + f(%d);\n\
       print(s);"
      op n
  in
  let run opt src =
    let buf = Buffer.create 16 in
    Builtins.with_print_hook (Buffer.add_string buf) (fun () ->
        ignore (Engine.run_source (Engine.default_config ~opt ()) src);
        Buffer.contents buf)
  in
  let unroll = Pipeline.make ~ps:true ~cp:true ~dce:true ~loop_unroll:true "u" in
  List.iter
    (fun (op, n, expect) ->
      Alcotest.(check string) ("baseline " ^ op) expect (run Pipeline.baseline (src op n));
      Alcotest.(check string) ("unroll " ^ op) expect (run unroll (src op n)))
    [ ("!=", 3, "120"); ("==", 0, "40") ]

(* --- inlining (§3.7) --- *)

let test_inline_closure_argument () =
  let program, f = build_map () in
  let stats = apply program (Pipeline.make ~ps:true ~cp:true "ps") f in
  Alcotest.(check int) "inc inlined" 1 stats.Pipeline.inlined;
  Alcotest.(check int) "no calls remain" 0
    (count f (function Mir.Call _ | Mir.Call_known _ -> true | _ -> false))

let test_inline_skips_closures_with_cells () =
  let src =
    {|
function mk() { var c = 0; return function(x) { c += x; return c; }; }
function drive(f) { var t = 0; for (var i = 0; i < 5; i++) t += f(i); return t; }
|}
  in
  let program = Bytecode.Compile.program_of_source src in
  (* fid 2 is the inner closure; it captures c so it must not be inlined;
     build drive specialized to it. *)
  let drive =
    Array.to_list program.Bytecode.Program.funcs
    |> List.find (fun (fn : Bytecode.Program.func) -> fn.Bytecode.Program.name = "drive")
  in
  let closure_fid =
    Array.to_list program.Bytecode.Program.funcs
    |> List.find_map (fun (fn : Bytecode.Program.func) ->
           if fn.Bytecode.Program.nupvals > 0 then Some fn.Bytecode.Program.fid else None)
    |> Option.get
  in
  let cell = ref (Value.Int 0) in
  let clo = Value.Closure { Value.fid = closure_fid; env = [| cell |]; cid = 1 } in
  let f = Builder.build ~program ~func:drive ~key:(values [| clo |]) () in
  let stats = apply program (Pipeline.make ~ps:true ~cp:true "ps") f in
  Alcotest.(check int) "capturing closure CAN inline (cells live behind refs)" 1
    stats.Pipeline.inlined;
  Alcotest.(check bool) "captured access through burned-in pointer" true
    (count f (function Mir.Load_captured _ | Mir.Store_captured _ -> true | _ -> false) > 0)

let test_inline_budget () =
  (* Self-recursive closure: the site budget must terminate inlining. *)
  let src = "function f(g, n) { return n <= 0 ? 0 : g(g, n - 1) + 1; }" in
  let program = Bytecode.Compile.program_of_source src in
  let func = program.Bytecode.Program.funcs.(1) in
  let clo = Value.Closure { Value.fid = 1; env = [||]; cid = Value.fresh_id () } in
  let f = Builder.build ~program ~func ~key:(values [| clo; Value.Int 100 |]) () in
  let stats = apply program (Pipeline.make ~ps:true ~cp:true "ps") f in
  Alcotest.(check bool) "bounded" true (stats.Pipeline.inlined <= 8)

(* --- the pass runner --- *)

(* One billing rule: a pass is charged the graph size it enters, and only
   a pass that ran is charged, so the compile charge is the sum of
   [pd_before] over the pass trace. The map example inlines [inc], which
   runs the post-inline clean-up group; with GVN off that group must not
   bill a GVN run. Configs: the Figure 9 grid plus the bench ablations. *)
let test_billing_is_the_pass_trace () =
  let ablations =
    [
      Pipeline.make ~ps:true ~cp:true ~dce:true ~bce:true "conservative BCE";
      Pipeline.make ~ps:true ~cp:true ~dce:true ~bce:true ~precise_alias:true "precise BCE";
      Pipeline.make ~ps:true ~cp:true ~dce:true ~bce:true ~precise_alias:true
        ~overflow_elim:true "precise + overflow";
      Pipeline.make ~ps:true ~sccp:true ~dce:true "SCCP";
      Pipeline.make ~ps:true ~cp:true ~dce:true ~gvn:false "without GVN";
      Pipeline.make ~ps:true ~cp:true ~dce:true ~licm:false "without LICM";
      Pipeline.make ~ps:true ~cp:true ~dce:true ~li:true "with LI";
      Pipeline.make ~ps:true ~cp:true ~dce:true ~loop_unroll:true "with unrolling";
    ]
  in
  List.iter
    (fun (config : Pipeline.config) ->
      let program, f = build_map () in
      let stats = apply program config f in
      if config.Pipeline.param_spec then
        Alcotest.(check int) (config.Pipeline.name ^ ": inc inlined") 1 stats.Pipeline.inlined;
      Alcotest.(check int)
        (config.Pipeline.name ^ ": charge is the sum of pd_before")
        (List.fold_left (fun n pd -> n + pd.Telemetry.pd_before) 0 stats.Pipeline.passes)
        stats.Pipeline.mir_instrs_processed)
    ((Pipeline.baseline :: Pipeline.all_on :: Pipeline.figure9_configs) @ ablations)

(* --- GVN / LICM --- *)

let test_gvn_dedups_redundant_guards () =
  let src = "function f(s, i) { return s[i] + s[i]; }" in
  let program = Bytecode.Compile.program_of_source src in
  let func = program.Bytecode.Program.funcs.(1) in
  let tags = Value.[| Some Tag_array; Some Tag_int |] in
  let f = Builder.build ~program ~func ~arg_tags:tags () in
  Typer.run f;
  let before = count f (function Mir.Bounds_check _ -> true | _ -> false) in
  let eliminated = Gvn.run f in
  Verify.run f;
  let after = count f (function Mir.Bounds_check _ -> true | _ -> false) in
  Alcotest.(check int) "two checks before" 2 before;
  Alcotest.(check int) "one after" 1 after;
  Alcotest.(check bool) "gvn reported eliminations" true (eliminated > 0)

(* Regression: the constant value-numbering key must distinguish values of
   different types that share a display string — Int 4 and Str "4" once
   merged, burning an Int into a String phi after OSR specialization and
   crashing stringlength at runtime. *)
let test_gvn_constant_keys_are_type_aware () =
  let src = "function f(x) { var s = \"4\"; return s + (x & 7); }" in
  let program = Bytecode.Compile.program_of_source src in
  let func = program.Bytecode.Program.funcs.(1) in
  let f = Builder.build ~program ~func ~key:(values Value.[| Int 4 |]) () in
  Typer.run f;
  ignore (Gvn.run f);
  Verify.run f;
  let str_consts =
    count f (function Mir.Constant (Value.Str "4") -> true | _ -> false)
  and int_consts =
    count f (function Mir.Constant (Value.Int 4) -> true | _ -> false)
  in
  Alcotest.(check bool) "string constant survives" true (str_consts >= 1);
  Alcotest.(check bool) "int constant survives" true (int_consts >= 1)

let test_licm_hoists_invariants () =
  let src =
    "function f(a, b, n) { var t = 0; for (var i = 0; i < n; i++) t += (a * b) | 0; return t; }"
  in
  let program = Bytecode.Compile.program_of_source src in
  let func = program.Bytecode.Program.funcs.(1) in
  let tags = Value.[| Some Tag_int; Some Tag_int; Some Tag_int |] in
  let f = Builder.build ~program ~func ~arg_tags:tags () in
  Typer.run f;
  ignore (Gvn.run f);
  let hoisted = Licm.run f in
  Verify.run f;
  Alcotest.(check bool) "a*b hoisted" true (hoisted > 0)

(* --- generated-program differential property --- *)

let run_with config src =
  let buf = Buffer.create 64 in
  Builtins.with_print_hook
    (fun s -> Buffer.add_string buf s; Buffer.add_char buf '\n')
    (fun () ->
      ignore (Engine.run_source config src);
      Buffer.contents buf)

(* --- SCCP (the conditional-constant-propagation ablation) --- *)

(* The separating example: a phi fed by a branch that specialization
   decides. Aho's branch-insensitive meet sees both operands and gives up;
   SCCP marks the dead edge non-executable and folds through. *)
let sccp_example () =
  let src =
    "function f(n, m) { var x; if (n == 1) x = 5; else x = m; return (x * 3) | 0; }"
  in
  let program = Bytecode.Compile.program_of_source src in
  let func = program.Bytecode.Program.funcs.(1) in
  let build () =
    Builder.build ~program ~func ~key:(values Value.[| Int 1; Int 0 |]) ()
  in
  (program, build)

let const_count f v =
  count f (function
    | Mir.Constant c when Value.same_value c v -> true
    | _ -> false)

let test_sccp_folds_one_sided_phi () =
  let _, build = sccp_example () in
  (* Aho: the x*3 result is not folded (the phi meets 5 with m). *)
  let aho = build () in
  Typer.run aho;
  ignore (Gvn.run aho);
  ignore (Constprop.run aho);
  Alcotest.(check int) "aho leaves x*3 unfolded" 0 (const_count aho (Value.Int 15));
  (* SCCP: the else edge is unexecutable, x = 5, x*3 = 15. *)
  let sccp = build () in
  Typer.run sccp;
  ignore (Gvn.run sccp);
  let stats = Sccp.run sccp in
  Verify.run sccp;
  Alcotest.(check bool) "sccp folds x*3" true (const_count sccp (Value.Int 15) >= 1);
  Alcotest.(check bool) "sccp decided the branch" true (stats.Sccp.branches_decided >= 1)

let test_sccp_keeps_unknown_branches () =
  (* Without specialization the condition is Top: both sides executable,
     the phi must not fold, and no branch is decided. *)
  let src =
    "function f(n, m) { var x; if (n == 1) x = 5; else x = m; return (x * 3) | 0; }"
  in
  let program = Bytecode.Compile.program_of_source src in
  let func = program.Bytecode.Program.funcs.(1) in
  let f =
    Builder.build ~program ~func ~arg_tags:Value.[| Some Tag_int; Some Tag_int |] ()
  in
  Typer.run f;
  let stats = Sccp.run f in
  Verify.run f;
  Alcotest.(check int) "no branch decided" 0 stats.Sccp.branches_decided;
  Alcotest.(check int) "nothing folded to 15" 0 (const_count f (Value.Int 15))

let test_sccp_matches_constprop_on_straight_line () =
  (* On branch-free code the two algorithms agree exactly. *)
  let src = "function f(a) { return ((2 + 3) * a + (10 - 4)) | 0; }" in
  let program = Bytecode.Compile.program_of_source src in
  let func = program.Bytecode.Program.funcs.(1) in
  let with_pass pass =
    let f = Builder.build ~program ~func ~key:(values Value.[| Int 7 |]) () in
    Typer.run f;
    ignore (Gvn.run f);
    let n = pass f in
    Verify.run f;
    (n, const_count f (Value.Int 41))
  in
  let aho_folded, aho_result = with_pass Constprop.run in
  let sccp_folded, sccp_result = with_pass (fun f -> (Sccp.run f).Sccp.folded) in
  Alcotest.(check int) "same folds" aho_folded sccp_folded;
  Alcotest.(check int) "same final constant" aho_result sccp_result;
  Alcotest.(check bool) "the expression folded" true (aho_result >= 1)

let test_sccp_guards_fold_only_on_constant_operands () =
  (* Hand-built: a branch on an unknown parameter feeds x = φ(3, 0.5) into
     a Type_barrier(x, Int), and a constant-index Bounds_check stands on an
     array whose length is unknown. Absint gives both guards a [Const]
     value (the barrier's holds only if it passes; the bounds check's is
     just its index), yet either can fail: both must survive. *)
  let program = Bytecode.Compile.program_of_source "function f(c, a) { return 0; }" in
  let f = Mir.create_func program.Bytecode.Program.funcs.(1) in
  let entry = Mir.new_block f and then_blk = Mir.new_block f in
  let else_blk = Mir.new_block f and join = Mir.new_block f in
  let c = Mir.append f entry (Mir.Parameter 0) in
  let a = Mir.append f entry (Mir.Parameter 1) in
  let cond = Mir.append f entry (Mir.To_bool c) in
  entry.Mir.term <- Mir.Branch (cond, then_blk.Mir.bid, else_blk.Mir.bid);
  let three = Mir.append f then_blk (Mir.Constant (Value.Int 3)) in
  then_blk.Mir.term <- Mir.Goto join.Mir.bid;
  let half = Mir.append f else_blk (Mir.Constant (Value.Double 0.5)) in
  else_blk.Mir.term <- Mir.Goto join.Mir.bid;
  then_blk.Mir.preds <- [ entry.Mir.bid ];
  else_blk.Mir.preds <- [ entry.Mir.bid ];
  join.Mir.preds <- [ then_blk.Mir.bid; else_blk.Mir.bid ];
  let x = Mir.append_phi f join [| three; half |] in
  let checked = Mir.append f join (Mir.Type_barrier (x, Value.Tag_int)) in
  let arr = Mir.append f join (Mir.Check_array a) in
  let zero = Mir.append f join (Mir.Constant (Value.Int 0)) in
  ignore (Mir.append f join (Mir.Bounds_check (zero, arr)));
  join.Mir.term <- Mir.Return checked;
  ignore (Sccp.run f);
  let is_barrier = function Mir.Type_barrier _ -> true | _ -> false in
  let is_bounds = function Mir.Bounds_check _ -> true | _ -> false in
  Alcotest.(check int) "type barrier kept" 1 (count f is_barrier);
  Alcotest.(check int) "bounds check kept" 1 (count f is_bounds)

let test_sccp_pipeline_end_to_end () =
  (* The sccp pipeline flag produces the same output and is at least as
     effective (never slower in model cycles on this shape). *)
  let src =
    "function pick(n, m) {\n\
    \  var x;\n\
    \  if (n == 1) x = 5; else x = m;\n\
    \  var t = 0;\n\
    \  for (var i = 0; i < 10; i++) t = (t + x * 3) | 0;\n\
    \  return t;\n\
     }\n\
     var r = 0;\n\
     for (var k = 0; k < 60; k++) r = (r + pick(1, k)) | 0;\n\
     print(r);"
  in
  let out opt =
    let buf = Buffer.create 16 in
    Builtins.with_print_hook
      (fun s -> Buffer.add_string buf s)
      (fun () ->
        let r = Engine.run_source (Engine.default_config ~opt ()) src in
        (Buffer.contents buf, r.Engine.total_cycles))
  in
  let aho_out, aho_cycles = out (Pipeline.make ~ps:true ~cp:true ~dce:true "aho") in
  let sccp_out, sccp_cycles = out (Pipeline.make ~ps:true ~sccp:true ~dce:true "sccp") in
  Alcotest.(check string) "same result" aho_out sccp_out;
  Alcotest.(check bool) "sccp at least as fast" true (sccp_cycles <= aho_cycles)

(* Golden test for the paper's Section 3 running example: replay the exact
   Figure 6 -> 7(a) -> 7(b) -> 7(c) -> 8(a) -> 8(b) -> 8(c) progression on
   [map]/[inc] and assert the structural claim of each figure. This is the
   narrative the whole paper hangs on, so it is pinned as one test. *)
let test_section3_figures_progression () =
  let source =
    {|
function inc(x) { return x + 1; }
function map(s, b, n, f) {
  var i = b;
  while (i < n) { s[i] = f(s[i]); i++; }
  return s;
}
print(map(new Array(1, 2, 3, 4, 5), 2, 5, inc));
|}
  in
  let program = Bytecode.Compile.program_of_source source in
  let find name =
    Array.to_list program.Bytecode.Program.funcs
    |> List.find (fun (f : Bytecode.Program.func) -> f.Bytecode.Program.name = name)
  in
  let map_fn = find "map" and inc_fn = find "inc" in
  let arr_v = Value.arr_of_list (List.init 5 (fun i -> Value.Int (i + 1))) in
  let inc_closure =
    Value.Closure
      { Value.fid = inc_fn.Bytecode.Program.fid; env = [||]; cid = Value.fresh_id () }
  in
  let spec_args = [| Value.Arr arr_v; Value.Int 2; Value.Int 5; inc_closure |] in
  (* Figure 6: the generic graph has parameters, a type-guarded element
     access with a bounds check, and an opaque call. *)
  let tags = Value.[| Some Tag_array; Some Tag_int; Some Tag_int; Some Tag_function |] in
  let generic = Builder.build ~program ~func:map_fn ~arg_tags:tags () in
  Typer.run generic;
  let n_params = count generic (function Mir.Parameter _ -> true | _ -> false) in
  Alcotest.(check bool) "fig6: parameters present" true (n_params >= 4);
  Alcotest.(check bool) "fig6: bounds checks present" true
    (count generic (function Mir.Bounds_check _ -> true | _ -> false) >= 1);
  Alcotest.(check bool) "fig6: opaque call present" true
    (count generic (function Mir.Call _ | Mir.Call_known _ -> true | _ -> false) >= 1);
  (* Figure 7(a): specialization replaces every parameter with a constant,
     in the entry block and the OSR block alike. *)
  let osr =
    { Builder.osr_pc = 2; osr_args = spec_args; osr_locals = [| Value.Int 2 |];
      osr_bake_locals = true }
  in
  let f = Builder.build ~program ~func:map_fn ~key:(values spec_args) ~osr () in
  Typer.run f;
  Alcotest.(check int) "fig7a: no parameters left" 0
    (count f (function Mir.Parameter _ | Mir.Osr_value _ -> true | _ -> false));
  Alcotest.(check bool) "fig7a: OSR entry exists" true (f.Mir.osr_entry <> None);
  (* Figure 7(b): constant propagation folds the induction bounds. *)
  let folded = Constprop.run f in
  Alcotest.(check bool) "fig7b: folds something" true (folded > 0);
  (* Figure 7(c): loop inversion makes the loop bottom-tested. *)
  ignore (Gvn.run f);
  Alcotest.(check int) "fig7c: one loop inverted" 1 (Loop_inversion.run f);
  (* Figure 8(a): DCE removes the wrapping conditional (2 < 5 is known). *)
  let dce = Dce.run f in
  Alcotest.(check bool) "fig8a: wrapping branch folded" true
    (dce.Dce.branches_folded >= 1);
  (* Figure 8(b): with the figure's alias assumption the bounds checks on
     s[i] are proven by i = phi(2, i+1) < 5 against length 5, though the
     inverted loop's test is at its bottom and dominates neither. *)
  let checks = count f (function Mir.Bounds_check _ -> true | _ -> false) in
  Alcotest.(check int) "fig8b: a load and a store check" 2 checks;
  Alcotest.(check int) "fig8b: both elided" checks
    (bounds_elided (Guard_elim.run ~precise_alias:true f));
  Alcotest.(check int) "fig8b: none remain" 0
    (count f (function Mir.Bounds_check _ -> true | _ -> false));
  (* Figure 8(c): the constant closure argument is inlined away. *)
  Alcotest.(check int) "fig8c: one site inlined" 1 (Inline.run ~program f);
  Typer.run f;
  ignore (Gvn.run f);
  ignore (Constprop.run f);
  ignore (Dce.run f);
  Verify.run f;
  Alcotest.(check int) "fig8c: no calls left" 0
    (count f (function Mir.Call _ | Mir.Call_known _ -> true | _ -> false));
  (* And the specialized native code computes the paper's answer: elements
     2..4 incremented in place. *)
  let code, _ = Regalloc.run (Lower.run f) in
  let cb =
    { Exec.call = (fun _ _ -> Alcotest.fail "unexpected call in inlined code");
      globals = [||]; cycles = ref 0; on_charge = None; on_instr = None }
  in
  let act = Exec.make_activation ~func:map_fn ~args:spec_args () in
  (match Exec.run cb (Exec.prepare code) act ~at_osr:false with
  | Exec.Finished (Value.Arr a) ->
    Alcotest.(check (list int)) "array mutated in place" [ 1; 2; 4; 5; 6 ]
      (List.init a.Value.length (fun i ->
           match Value.arr_get a i with Value.Int n -> n | _ -> -1))
  | Exec.Finished v ->
    Alcotest.failf "expected the array back, got %s" (Value.to_display_string v)
  | Exec.Bailed b -> Alcotest.failf "unexpected bailout: %s" b.Exec.bo_reason)

(* The full engine-level reproducer the differential property found: a
   specialized OSR entry bakes local [s] as the string "4"; with the buggy
   display-string constant key, GVN substituted the Int32 argument constant
   for it and stringlength crashed at runtime. *)
let test_gvn_collision_engine_regression () =
  let src =
    {|function fn2(x, y) {
        var s = "";
        for (var i = 0; i < 10; i++) s += (((x ^ 0) | (4 ^ x))) & 7;
        var t = 0;
        for (var i = 0; i < s.length; i++) t = (t * 31 + s.charCodeAt(i)) | 0;
        return (t + ((1 + 2) ^ (y & y))) | 0;
      }
      var r = 0;
      for (var k = 0; k < 25; k++) r = (r + fn2(20, 4)) | 0;
      print(r);|}
  in
  let reference = run_with Engine.interp_only src in
  List.iter
    (fun opt ->
      Alcotest.(check string)
        ("agrees: " ^ opt.Pipeline.name)
        reference
        (run_with (Engine.default_config ~opt ()) src))
    [ Pipeline.make ~ps:true "PS"; Pipeline.best ]

(* The program generators and the config matrix live in [lib/fuzz] (shared
   with bin/fuzz.exe); the properties here are thin QCheck wrappers. A
   [Fuzz_gen] generator is a plain [Random.State.t -> string] function,
   which is exactly a [QCheck.Gen.t]. *)
let differential_prop name ~count gen =
  QCheck.Test.make ~name ~count
    (QCheck.make ~print:Fun.id gen)
    (fun src -> Fuzz_diff.check src = None)

let prop_configs_agree =
  differential_prop "interpreter and every JIT configuration agree" ~count:60
    Fuzz_gen.program

let prop_loop_shapes_agree =
  differential_prop "loop transformations preserve irregular loop shapes" ~count:80
    Fuzz_gen.loop_program

let prop_object_traffic_agrees =
  differential_prop "object-model traffic agrees across configurations" ~count:40
    Fuzz_gen.object_program

let prop_deopt_traffic_agrees =
  differential_prop "bailout/recompile stress agrees across configurations" ~count:40
    Fuzz_gen.deopt_program

let suites =
  [
    ( "opt.constprop",
      [
        Alcotest.test_case "folds type guards" `Quick test_constprop_folds_guards;
        Alcotest.test_case "folds comparisons and typeof" `Quick
          test_constprop_folds_comparison;
        Alcotest.test_case "folds pure natives" `Quick test_constprop_folds_pure_natives;
        Alcotest.test_case "meet over phis" `Quick test_constprop_lattice_laws;
      ] );
    ( "opt.dce",
      [
        Alcotest.test_case "removes wrapping conditional" `Quick
          test_dce_removes_wrapping_conditional;
        Alcotest.test_case "keeps the entry block" `Quick test_dce_keeps_entry_block;
        Alcotest.test_case "keeps snapshot values" `Quick test_dce_respects_snapshots;
      ] );
    ( "opt.loop_inversion",
      [
        Alcotest.test_case "bottom-tested latch" `Quick test_inversion_moves_test_to_latch;
        Alcotest.test_case "zero-trip semantics" `Quick test_inversion_preserves_zero_trip;
        Alcotest.test_case "optimized MIR byte-identity golden" `Quick
          test_inversion_golden;
        Alcotest.test_case "loop-pass MIR byte-identity golden" `Quick
          test_loop_pass_golden;
        Alcotest.test_case "cfg analyses agree after every round" `Quick
          test_inversion_cfg_agreement;
        Alcotest.test_case "hundreds of sequential loops" `Quick test_inversion_many_loops;
        Alcotest.test_case "work grows linearly with loop count" `Quick
          test_inversion_scales_linearly;
        Alcotest.test_case "sweep order follows shrinking loops" `Quick
          test_inversion_sweep_order;
        Alcotest.test_case "check mode reports a stale dominator tree" `Quick
          test_stale_dominators_reported;
      ] );
    ( "opt.bounds_check",
      [
        Alcotest.test_case "removes proven checks" `Quick test_bce_removes_proven_checks;
        Alcotest.test_case "keeps unprovable checks" `Quick test_bce_keeps_unprovable_checks;
        Alcotest.test_case "store conservatism + ablation" `Quick
          test_bce_store_conservatism;
        Alcotest.test_case "overflow-check elimination (§6)" `Quick
          test_overflow_check_elimination;
        Alcotest.test_case "one proof covers bottom-tested loops" `Quick
          test_one_bounds_proof;
      ] );
    ( "opt.unroll",
      [
        Alcotest.test_case "unrolls constant-trip loop" `Quick
          test_unroll_constant_trip_loop;
        Alcotest.test_case "removes zero-trip loop" `Quick test_unroll_zero_trip_loop;
        Alcotest.test_case "skips dynamic bounds" `Quick test_unroll_skips_unknown_bounds;
        Alcotest.test_case "respects size budget" `Quick test_unroll_respects_budget;
        Alcotest.test_case "skips equality tests" `Quick test_unroll_skips_equality_tests;
      ] );
    ( "opt.inline",
      [
        Alcotest.test_case "inlines closure arguments" `Quick test_inline_closure_argument;
        Alcotest.test_case "burned-in captured cells" `Quick
          test_inline_skips_closures_with_cells;
        Alcotest.test_case "site budget bounds recursion" `Quick test_inline_budget;
      ] );
    ( "opt.baseline",
      [
        Alcotest.test_case "gvn dedups guards" `Quick test_gvn_dedups_redundant_guards;
        Alcotest.test_case "gvn constant keys are type-aware" `Quick
          test_gvn_constant_keys_are_type_aware;
        Alcotest.test_case "gvn collision regression (engine)" `Quick
          test_gvn_collision_engine_regression;
        Alcotest.test_case "licm hoists invariants" `Quick test_licm_hoists_invariants;
      ] );
    ( "opt.sccp",
      [
        Alcotest.test_case "folds one-sided phi" `Quick test_sccp_folds_one_sided_phi;
        Alcotest.test_case "keeps unknown branches" `Quick
          test_sccp_keeps_unknown_branches;
        Alcotest.test_case "matches constprop on straight line" `Quick
          test_sccp_matches_constprop_on_straight_line;
        Alcotest.test_case "pipeline end to end" `Quick test_sccp_pipeline_end_to_end;
        Alcotest.test_case "guards fold only on constant operands" `Quick
          test_sccp_guards_fold_only_on_constant_operands;
      ] );
    ( "opt.pipeline",
      [ Alcotest.test_case "billing is the pass trace" `Quick test_billing_is_the_pass_trace ] );
    ( "opt.section3",
      [
        Alcotest.test_case "figures 6-8 progression on map/inc" `Quick
          test_section3_figures_progression;
      ] );
    ( "opt.differential",
      [
        QCheck_alcotest.to_alcotest ~long:false prop_configs_agree;
        QCheck_alcotest.to_alcotest ~long:false prop_loop_shapes_agree;
        QCheck_alcotest.to_alcotest ~long:false prop_object_traffic_agrees;
        QCheck_alcotest.to_alcotest ~long:false prop_deopt_traffic_agrees;
      ] );
  ]
