(* Tests for the abstract-interpretation layer: the lattice, the fixpoint
   analysis, guard proofs (elision soundness), the translation-validation
   sandwich, the missed-guard report, and the spec_check entry-state
   audit.

   The lattice cases are pure unit tests; the analysis cases build real
   MIR through the builder + typer exactly like the pipeline does; the
   differential case drives 60 generated programs through the engine with
   guard elision on vs off and requires byte-identical output. *)

open Runtime

let values args = Spec_key.Key_values (args, None)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let itv lo hi = { Absint.lo; hi }
let int_val lo hi = Absint.vals (Absint.tag_bit Value.Tag_int) (Some (itv lo hi))

(* --- the lattice --- *)

let test_join_laws () =
  let c1 = Absint.Const (Value.Int 1) and c2 = Absint.Const (Value.Int 2) in
  Alcotest.(check bool) "bot is identity" true
    (Absint.equal (Absint.join Absint.Bot c1) c1);
  Alcotest.(check bool) "join is idempotent" true
    (Absint.equal (Absint.join c1 c1) c1);
  let j = Absint.join c1 c2 in
  Alcotest.(check bool) "distinct ints hull" true
    (Absint.equal j (int_val 1 2));
  Alcotest.(check bool) "join commutes" true
    (Absint.equal j (Absint.join c2 c1));
  let mixed = Absint.join c1 (Absint.Const (Value.Str "x")) in
  Alcotest.(check int) "tag union"
    (Absint.tag_bit Value.Tag_int lor Absint.tag_bit Value.Tag_string)
    (Absint.tags_of mixed);
  Alcotest.(check bool) "top absorbs" true
    (Absint.equal (Absint.join Absint.top c2) Absint.top)

let test_vals_normalization () =
  Alcotest.(check bool) "singleton int is Const" true
    (Absint.equal (int_val 4 4) (Absint.Const (Value.Int 4)));
  Alcotest.(check bool) "empty range drops int" true
    (Absint.equal (Absint.vals (Absint.tag_bit Value.Tag_int) (Some (itv 5 3))) Absint.Bot);
  Alcotest.(check bool) "no tags is bot" true
    (Absint.equal (Absint.vals 0 None) Absint.Bot);
  (* A non-int tag set ignores any range. *)
  match Absint.vals (Absint.tag_bit Value.Tag_string) (Some (itv 0 1)) with
  | Absint.Vals { range = None; _ } -> ()
  | av -> Alcotest.failf "range not dropped: %s" (Absint.to_string av)

let test_widen_terminates () =
  let a = int_val 0 5 in
  Alcotest.(check bool) "widen is reflexive" true
    (Absint.equal (Absint.widen a a) a);
  (* A growing upper bound jumps to the int32 extreme in one step, so an
     ascending chain stabilizes after at most two widenings per side. *)
  let w1 = Absint.widen a (int_val 0 6) in
  (match Absint.int_range w1 with
  | Some { Absint.lo = 0; hi } when hi = Value.int32_max -> ()
  | _ -> Alcotest.failf "expected [0,int32_max], got %s" (Absint.to_string w1));
  let w2 = Absint.widen w1 (Absint.join w1 (int_val 0 7)) in
  Alcotest.(check bool) "stable after the jump" true (Absint.equal w1 w2);
  let w3 = Absint.widen w2 (Absint.join w2 (int_val (-3) 7)) in
  match Absint.int_range w3 with
  | Some { Absint.lo; hi } when lo = Value.int32_min && hi = Value.int32_max ->
    Alcotest.(check bool) "both extremes are a fixed point" true
      (Absint.equal w3 (Absint.widen w3 (Absint.join w3 (int_val 9 9))))
  | _ -> Alcotest.failf "expected full int range, got %s" (Absint.to_string w3)

(* --- building blocks shared by the analysis cases --- *)

let sumto_src =
  {|
function sumto(s, n) {
  var t = 0;
  for (var i = 0; i < n; i++) t += s[i];
  return t;
}
|}

let build src ?key () =
  let program = Bytecode.Compile.program_of_source src in
  let func = program.Bytecode.Program.funcs.(1) in
  (program, Builder.build ~program ~func ?key ())

(* Typer only: guards are materialized but nothing has deleted any. *)
let bare = Pipeline.make ~licm:false ~gvn:false ~ge:false "bare"

(* The full default pipeline with guard elision on. *)
let full = Pipeline.make ~ps:true ~cp:true ~dce:true ~bce:true "full"

let find_guard f pred =
  let found = ref None in
  List.iter
    (fun bid ->
      let b = Mir.block f bid in
      List.iteri
        (fun idx (i : Mir.instr) ->
          if !found = None && pred i.Mir.kind then found := Some (bid, idx, i))
        b.Mir.body)
    f.Mir.block_order;
  !found

let count f pred =
  let n = ref 0 in
  Mir.iter_instrs f (fun i -> if pred i.Mir.kind then incr n);
  !n

let remove_def f def =
  List.iter
    (fun bid ->
      let b = Mir.block f bid in
      b.Mir.body <- List.filter (fun (i : Mir.instr) -> i.Mir.def <> def) b.Mir.body)
    f.Mir.block_order

(* --- entry state from the specialization key --- *)

let test_entry_state () =
  let arr = Value.Arr (Value.arr_of_list [ Value.Int 1; Value.Int 2 ]) in
  let _, gen = build sumto_src () in
  Array.iter
    (fun av ->
      Alcotest.(check bool) "unspecialized entry is top" true
        (Absint.equal av Absint.top))
    (Absint.entry_state gen);
  let _, spec = build sumto_src ~key:(values [| arr; Value.Int 2 |]) () in
  (match Absint.entry_state spec with
  | [| Absint.Const a; Absint.Const (Value.Int 2) |] ->
    Alcotest.(check bool) "array burned by identity" true (Value.same_value a arr)
  | st ->
    Alcotest.failf "expected two constants, got %s"
      (String.concat " " (Array.to_list (Array.map Absint.to_string st))));
  let _, masked =
    build sumto_src ~key:(Spec_key.Key_values ([| arr; Value.Int 2 |], Some [| true; false |])) ()
  in
  match Absint.entry_state masked with
  | [| Absint.Const _; free |] ->
    Alcotest.(check bool) "masked-off position is top" true
      (Absint.equal free Absint.top)
  | st ->
    Alcotest.failf "expected const+top, got %s"
      (String.concat " " (Array.to_list (Array.map Absint.to_string st)))

(* --- the fixpoint --- *)

let test_induction_variable_state () =
  let arr = Value.Arr (Value.arr_of_list (List.init 8 (fun i -> Value.Int i))) in
  let program, f = build sumto_src ~key:(values [| arr; Value.Int 8 |]) () in
  ignore (Pipeline.apply ~program bare f);
  let r = Absint.analyze f in
  (* The induction phi: int-tagged with a non-negative lower bound (the
     upper bound is lost to widening; the loop-exit refinement recovers it
     at query time, which the bounds proof below exercises). *)
  let floors = ref [] in
  Mir.iter_instrs f (fun i ->
      match i.Mir.kind with
      | Mir.Phi _ -> (
        match Absint.int_range (Absint.value_of r i.Mir.def) with
        | Some { Absint.lo; _ } -> floors := lo :: !floors
        | None -> ())
      | _ -> ());
  (match !floors with
  | [] -> Alcotest.fail "no int-ranged phi found"
  | ls ->
    (* The header phi joins the init constant 0 with the step. *)
    Alcotest.(check int) "loop counter floor" 0 (List.fold_left min max_int ls));
  (* Every phi keeps the int tag: the counter never escapes to a boxed
     representation in the abstract state. *)
  List.iter
    (fun lo -> Alcotest.(check bool) "floor is non-negative" true (lo >= 0))
    !floors

let test_constant_branch_prunes () =
  let src = "function f(n) { if (n < 0) { return 7; } return 9; }" in
  let _, f = build src ~key:(values [| Value.Int 5 |]) () in
  let r = Absint.analyze f in
  let block_of c =
    let found = ref None in
    Mir.iter_blocks f (fun b ->
        List.iter
          (fun (i : Mir.instr) ->
            match i.Mir.kind with
            | Mir.Constant (Value.Int n) when n = c && !found = None ->
              found := Some b.Mir.bid
            | _ -> ())
          (b.Mir.phis @ b.Mir.body));
    match !found with
    | Some b -> b
    | None -> Alcotest.failf "constant %d not found" c
  in
  Alcotest.(check bool) "dead branch not executable" false
    (Absint.block_executable r (block_of 7));
  Alcotest.(check bool) "live branch executable" true
    (Absint.block_executable r (block_of 9))

(* --- guard proofs --- *)

let test_prove_bounds_redundant () =
  let arr = Value.Arr (Value.arr_of_list (List.init 8 (fun i -> Value.Int i))) in
  let program, f = build sumto_src ~key:(values [| arr; Value.Int 8 |]) () in
  ignore (Pipeline.apply ~program bare f);
  let r = Absint.analyze f in
  match find_guard f (function Mir.Bounds_check _ -> true | _ -> false) with
  | Some (bid, idx, i) ->
    Alcotest.(check bool) "i in [0,7] against length 8" true
      (Absint.prove r ~at:(bid, idx) ~exclude:i.Mir.def i.Mir.kind
      = Absint.Redundant)
  | None -> Alcotest.fail "no bounds check after typer"

let test_prove_unprovable_bound () =
  (* Bound 9 exceeds the array length: the loop-exit refinement gives
     i <= 8, which does not fit. *)
  let arr = Value.Arr (Value.arr_of_list (List.init 8 (fun i -> Value.Int i))) in
  let program, f = build sumto_src ~key:(values [| arr; Value.Int 9 |]) () in
  ignore (Pipeline.apply ~program bare f);
  let r = Absint.analyze f in
  match find_guard f (function Mir.Bounds_check _ -> true | _ -> false) with
  | Some (bid, idx, i) ->
    Alcotest.(check bool) "must stay" true
      (Absint.prove r ~at:(bid, idx) ~exclude:i.Mir.def i.Mir.kind
      = Absint.Unknown)
  | None -> Alcotest.fail "no bounds check after typer"

let test_negative_index_keeps_guard () =
  let src = "function g(s) { return s[-1]; }" in
  let arr = Value.Arr (Value.arr_of_list [ Value.Int 1; Value.Int 2 ]) in
  let program, f = build src ~key:(values [| arr |]) () in
  let stats = Pipeline.apply ~program full f in
  Alcotest.(check int) "nothing elided" 0 stats.Pipeline.guards_elided;
  Alcotest.(check bool) "bounds check survives" true
    (count f (function Mir.Bounds_check _ -> true | _ -> false) > 0)

let test_zero_length_array_keeps_guard () =
  let src = "function g(s) { return s[0]; }" in
  let program, f = build src ~key:(values [| Value.Arr (Value.new_arr 0) |]) () in
  ignore (Pipeline.apply ~program full f);
  Alcotest.(check bool) "bounds check survives" true
    (count f (function Mir.Bounds_check _ -> true | _ -> false) > 0)

let test_zero_trip_loop_keeps_guards () =
  (* Regression: a loop whose bound never admits the body (i = 5 while
     i < 3) must not yield a synthetic induction range that removes the
     body's guards. *)
  let src =
    "function z(s) { var t = 0; for (var i = 5; i < 3; i++) t += s[i]; return t; }"
  in
  let arr = Value.Arr (Value.arr_of_list (List.init 8 (fun i -> Value.Int i))) in
  let program, f = build src ~key:(values [| arr |]) () in
  let s = Pipeline.apply ~program (Pipeline.make ~ps:true ~cp:true ~bce:true "bce") f in
  Alcotest.(check int) "BCE removes nothing" 0
    (List.length
       (List.filter (fun (e : Mir.elision) -> e.Mir.el_kind = "bounds") s.Pipeline.elisions));
  (* Under guard elision the body is proven unreachable, not redundant:
     elision only deletes guards on executable paths. *)
  let program2, f2 = build src ~key:(values [| arr |]) () in
  ignore program2;
  let r = Absint.analyze f2 in
  match find_guard f2 (function Mir.Bounds_check _ -> true | _ -> false) with
  | Some (bid, _, _) ->
    Alcotest.(check bool) "body unreachable under entry key" false
      (Absint.block_executable r bid)
  | None -> () (* generic elem ops before the typer: equally safe *)

let test_bottom_test_keeps_last_check () =
  (* In a bottom-tested loop the body runs before the test. A test on the
     counter itself (i++ < 7) admits one more body run than its bound
     says, so s[7] is read and its check must stay. *)
  let arr n = Value.Arr (Value.arr_of_list (List.init n (fun i -> Value.Int i))) in
  let checks_left src n =
    let program, f = build src ~key:(values [| arr n |]) () in
    ignore (Pipeline.apply ~program Pipeline.all_on f);
    (f, count f (function Mir.Bounds_check _ -> true | _ -> false))
  in
  let _, left =
    checks_left
      "function g(s) { var t = 0; var i = 0; do { t = t + s[i]; } while (i++ < 7); return t; }"
      7
  in
  Alcotest.(check int) "check on the counter's last value stays" 1 left;
  (* A test on the step bounds every later iteration, but the first one
     runs at i = 5 whatever the bound: the zero-trip rule (bound >= 5)
     keeps the range from calling it unreachable. *)
  let f, left =
    checks_left
      "function z(s) { var t = 0; var i = 5; do { t = t + s[i]; } while (++i < 3); return t; }"
      5
  in
  Alcotest.(check int) "first iteration's check stays" 1 left;
  let r = Absint.analyze f in
  match find_guard f (function Mir.Bounds_check _ -> true | _ -> false) with
  | Some (bid, idx, i) ->
    Alcotest.(check bool) "not provable" true
      (Absint.prove r ~at:(bid, idx) ~exclude:i.Mir.def i.Mir.kind = Absint.Unknown)
  | None -> Alcotest.fail "bounds check missing"

let test_guard_elim_elides () =
  let arr = Value.Arr (Value.arr_of_list (List.init 8 (fun i -> Value.Int i))) in
  let program, f = build sumto_src ~key:(values [| arr; Value.Int 8 |]) () in
  let stats = Pipeline.apply ~program full f in
  Alcotest.(check bool) "guards elided" true (stats.Pipeline.guards_elided > 0);
  Alcotest.(check int) "stats match the elision list"
    stats.Pipeline.guards_elided
    (List.length stats.Pipeline.elisions);
  List.iter
    (fun (e : Mir.elision) ->
      Alcotest.(check bool) "elision kind is well-formed" true
        (List.mem e.Mir.el_kind [ "type"; "array"; "bounds" ]))
    stats.Pipeline.elisions;
  Alcotest.(check int) "no bounds checks remain" 0
    (count f (function Mir.Bounds_check _ -> true | _ -> false));
  Verify.run f

let test_survivors_report () =
  let arr = Value.Arr (Value.arr_of_list (List.init 8 (fun i -> Value.Int i))) in
  let program, f = build sumto_src ~key:(values [| arr; Value.Int 8 |]) () in
  ignore (Pipeline.apply ~program bare f);
  (* Nothing has elided yet: every provably redundant guard is a missed
     elision. *)
  let r = Absint.analyze f in
  Alcotest.(check bool) "bare pipeline leaves provable guards" true
    (List.length (Absint.survivors r f) > 0);
  (* The elision pass clears the report. *)
  let program2, f2 = build sumto_src ~key:(values [| arr; Value.Int 8 |]) () in
  ignore (Pipeline.apply ~program:program2 full f2);
  let r2 = Absint.analyze f2 in
  Alcotest.(check int) "full pipeline leaves none" 0
    (List.length (Absint.survivors r2 f2))

(* --- translation validation --- *)

let test_validate_flags_unsound_deletion () =
  let arr = Value.Arr (Value.arr_of_list (List.init 8 (fun i -> Value.Int i))) in
  (* n = 9: the bounds check is NOT redundant (i reaches 8). *)
  let program, f = build sumto_src ~key:(values [| arr; Value.Int 9 |]) () in
  ignore (Pipeline.apply ~program bare f);
  let snap = Guard_elim.snapshot f in
  let pre = Absint.analyze f in
  (match find_guard f (function Mir.Bounds_check _ -> true | _ -> false) with
  | Some (_, _, i) -> remove_def f i.Mir.def
  | None -> Alcotest.fail "no bounds check to delete");
  match Guard_elim.validate ~pass:"evil" ~pre ~snap f with
  | () -> Alcotest.fail "unsound guard deletion accepted"
  | exception Diag.Failed d ->
    Alcotest.(check string) "attributed to the pass" "evil"
      (Option.value d.Diag.pass ~default:"-");
    Alcotest.(check bool) "explains the refusal" true
      (contains d.Diag.message "not provably redundant")

let test_validate_accepts_sound_deletion () =
  let arr = Value.Arr (Value.arr_of_list (List.init 8 (fun i -> Value.Int i))) in
  (* n = 8: the same deletion is provable, so the sandwich stays quiet. *)
  let program, f = build sumto_src ~key:(values [| arr; Value.Int 8 |]) () in
  ignore (Pipeline.apply ~program bare f);
  let snap = Guard_elim.snapshot f in
  let pre = Absint.analyze f in
  (match find_guard f (function Mir.Bounds_check _ -> true | _ -> false) with
  | Some (_, _, i) -> remove_def f i.Mir.def
  | None -> Alcotest.fail "no bounds check to delete");
  Guard_elim.validate ~pass:"fine" ~pre ~snap f

let test_validate_accepts_untouched_graph () =
  let arr = Value.Arr (Value.arr_of_list (List.init 8 (fun i -> Value.Int i))) in
  let program, f = build sumto_src ~key:(values [| arr; Value.Int 9 |]) () in
  ignore (Pipeline.apply ~program bare f);
  let snap = Guard_elim.snapshot f in
  let pre = Absint.analyze f in
  Guard_elim.validate ~pass:"noop" ~pre ~snap f

(* --- differential: elided vs unelided are byte-identical --- *)

let test_elision_differential () =
  let on = Engine.default_config ~opt:Pipeline.all_on () in
  let off =
    Engine.default_config
      ~opt:{ Pipeline.all_on with Pipeline.guard_elim = false }
      ()
  in
  for seed = 0 to 59 do
    let src = Fuzz_gen.any_program (Random.State.make [| 0xab5; seed |]) in
    let a = Fuzz_diff.run on src and b = Fuzz_diff.run off src in
    if a <> b then
      Alcotest.failf "seed %d diverged with guard elision on:\n--- on ---\n%s\n--- off ---\n%s"
        seed a b
  done

(* --- spec_check entry-state audit --- *)

let test_spec_check_entry_audit () =
  let arr = Value.Arr (Value.arr_of_list (List.init 4 (fun i -> Value.Int i))) in
  let _, f = build sumto_src ~key:(values [| arr; Value.Int 4 |]) () in
  Alcotest.(check int) "clean specialized build" 0
    (List.length (Diag.errors (Spec_check.check ~stage:`Built f)));
  (* Drift fixture: the baked constant in the entry block stops matching
     the cached tuple the probe compares against. *)
  (match (Mir.block f f.Mir.entry).Mir.body with
  | _ :: (second : Mir.instr) :: _ -> second.Mir.kind <- Mir.Constant (Value.Int 999)
  | _ -> Alcotest.fail "entry block too short");
  let ds = Diag.errors (Spec_check.check ~stage:`Built f) in
  Alcotest.(check bool) "drift detected" true (List.length ds > 0);
  Alcotest.(check bool) "names the disagreement" true
    (List.exists (fun (d : Diag.t) -> contains d.Diag.message "disagrees") ds)

let suites =
  [
    ( "absint.lattice",
      [
        Alcotest.test_case "join laws." `Quick test_join_laws;
        Alcotest.test_case "vals normalization." `Quick test_vals_normalization;
        Alcotest.test_case "widening terminates." `Quick test_widen_terminates;
      ] );
    ( "absint.analysis",
      [
        Alcotest.test_case "entry state from the cache key." `Quick test_entry_state;
        Alcotest.test_case "induction variable state." `Quick
          test_induction_variable_state;
        Alcotest.test_case "constant branches prune paths." `Quick
          test_constant_branch_prunes;
      ] );
    ( "absint.prove",
      [
        Alcotest.test_case "in-range bounds check is redundant." `Quick
          test_prove_bounds_redundant;
        Alcotest.test_case "out-of-range bound stays unknown." `Quick
          test_prove_unprovable_bound;
        Alcotest.test_case "negative constant index keeps its guard." `Quick
          test_negative_index_keeps_guard;
        Alcotest.test_case "zero-length array keeps its guard." `Quick
          test_zero_length_array_keeps_guard;
        Alcotest.test_case "zero-trip loop keeps its guards." `Quick
          test_zero_trip_loop_keeps_guards;
        Alcotest.test_case "bottom test keeps the last check." `Quick
          test_bottom_test_keeps_last_check;
      ] );
    ( "absint.elide",
      [
        Alcotest.test_case "guard elision fires and balances telemetry." `Quick
          test_guard_elim_elides;
        Alcotest.test_case "missed-guard report (survivors)." `Quick
          test_survivors_report;
        Alcotest.test_case "elided vs unelided byte-identical (60 seeds)." `Slow
          test_elision_differential;
      ] );
    ( "absint.validate",
      [
        Alcotest.test_case "unsound deletion is flagged." `Quick
          test_validate_flags_unsound_deletion;
        Alcotest.test_case "sound deletion is certified." `Quick
          test_validate_accepts_sound_deletion;
        Alcotest.test_case "untouched graph validates." `Quick
          test_validate_accepts_untouched_graph;
        Alcotest.test_case "spec_check audits the entry state." `Quick
          test_spec_check_entry_audit;
      ] );
  ]
