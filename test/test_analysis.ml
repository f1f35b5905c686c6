(* Tests for the IR lint layer: structured diagnostics, the bytecode
   verifier, the MIR type-consistency check, the specialization-soundness
   checker, and the per-pass pipeline sandwich.

   The negative tests each seed ONE corruption into otherwise-valid IR and
   assert the verifier rejects it with a diagnostic that carries
   attribution (layer, pass, block, value); the positive sweeps assert the
   real workloads are diagnostic-clean. *)

open Runtime

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let check_contains what msg sub =
  Alcotest.(check bool)
    (Printf.sprintf "%s mentions %S (got %S)" what sub msg)
    true (contains msg sub)

(* --- structured diagnostics --- *)

let test_diag_rendering () =
  let d =
    Diag.make ~layer:"mir" ~pass:"gvn" ~func:"f" ~fid:2 ~block:3 ~value:7
      "broken"
  in
  Alcotest.(check string)
    "pretty form" "error[mir/gvn] f(f2) B3 v7: broken" (Diag.to_string d);
  Alcotest.(check string)
    "machine form" "error\tmir\tgvn\tf\t2\t3\t7\t-\tbroken"
    (Diag.to_machine_string d);
  let w = Diag.make ~severity:Diag.Warning ~layer:"spec" "iffy" in
  Alcotest.(check bool) "warning is not error" false (Diag.is_error w);
  Alcotest.(check int) "errors filter" 1 (List.length (Diag.errors [ d; w ]));
  Alcotest.(check int) "warnings filter" 1 (List.length (Diag.warnings [ d; w ]))

(* --- bytecode verifier: hand-built negative programs --- *)

let mk_func ?(arity = 0) ?(nlocals = 0) code =
  {
    Bytecode.Program.fid = 0;
    name = "broken";
    arity;
    nlocals;
    ncells = 0;
    nupvals = 0;
    code;
    max_stack = 8;
    nloops = 0;
  }

let mk_program func =
  { Bytecode.Program.funcs = [| func |]; global_names = [||]; main = 0 }

let expect_bc_diag name code ~arity ~nlocals sub =
  let program = mk_program (mk_func ~arity ~nlocals code) in
  match Bc_verify.run_program program with
  | [] -> Alcotest.failf "%s: verifier accepted malformed bytecode" name
  | d :: _ ->
    Alcotest.(check string) (name ^ " layer") "bytecode" d.Diag.layer;
    check_contains name d.Diag.message sub;
    Alcotest.(check bool) (name ^ " has pc") true (d.Diag.pc <> None)

let test_bc_bad_jump_target () =
  expect_bc_diag "bad target" ~arity:0 ~nlocals:0
    [| Bytecode.Instr.Jump 99 |]
    "jump target"

let test_bc_stack_underflow () =
  expect_bc_diag "underflow" ~arity:0 ~nlocals:0
    [| Bytecode.Instr.Binop Ops.Add; Bytecode.Instr.Return |]
    "stack underflow"

let test_bc_inconsistent_merge () =
  (* pc 3 is reached with depth 0 from the jump and depth 1 from the
     fallthrough: the compiler never emits such code. *)
  expect_bc_diag "merge depth" ~arity:0 ~nlocals:0
    [|
      Bytecode.Instr.Const (Value.Bool true);
      Bytecode.Instr.Jump_if_true 3;
      Bytecode.Instr.Const (Value.Int 1);
      Bytecode.Instr.Return_undefined;
    |]
    "inconsistent stack depth"

let test_bc_bad_slot_index () =
  expect_bc_diag "slot index" ~arity:1 ~nlocals:1
    [| Bytecode.Instr.Get_local 5; Bytecode.Instr.Return |]
    "local index 5 out of bounds"

let test_bc_missing_return () =
  expect_bc_diag "missing return" ~arity:0 ~nlocals:0
    [| Bytecode.Instr.Const (Value.Int 1); Bytecode.Instr.Pop |]
    "falls off the end"

(* Every program the real front end emits must be admissible. *)
let test_bc_clean_on_all_workloads () =
  List.iter
    (fun (suite : Suite.t) ->
      List.iter
        (fun (m : Suite.member) ->
          let program = Bytecode.Compile.program_of_source m.Suite.m_source in
          match Bc_verify.run_program program with
          | [] -> ()
          | d :: _ ->
            Alcotest.failf "%s/%s: %s" suite.Suite.s_name m.Suite.m_name
              (Diag.to_string d))
        suite.Suite.members)
    Suites.all

(* --- MIR verifier: seeded corruptions with attribution --- *)

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

let build_fn ?key ?arg_tags src fid =
  let program = Bytecode.Compile.program_of_source src in
  let func = program.Bytecode.Program.funcs.(fid) in
  let f = Builder.build ~program ~func ?key ?arg_tags () in
  Typer.run f;
  Verify.run f;
  Verify.check_types f;
  f

let test_mir_deleted_def_attributed () =
  let f = build_fn map_src 2 in
  (* Delete the defining instruction of some used value, keeping the use. *)
  let victim = ref None in
  Mir.iter_instrs f (fun i ->
      match i.Mir.kind with
      | Mir.Binop (_, a, _, _) when !victim = None -> victim := Some a
      | _ -> ());
  let d = match !victim with Some d -> d | None -> Alcotest.fail "no binop" in
  let defines (b : Mir.block) =
    List.exists (fun (i : Mir.instr) -> i.Mir.def = d) (b.Mir.phis @ b.Mir.body)
  in
  let b = List.find defines (List.map (Mir.block f) f.Mir.block_order) in
  b.Mir.body <- List.filter (fun (i : Mir.instr) -> i.Mir.def <> d) b.Mir.body;
  b.Mir.phis <- List.filter (fun (i : Mir.instr) -> i.Mir.def <> d) b.Mir.phis;
  (match Verify.run ~pass:"test-mutation" f with
  | exception Diag.Failed diag ->
    Alcotest.(check string) "layer" "mir" diag.Diag.layer;
    Alcotest.(check (option string)) "pass attributed" (Some "test-mutation")
      diag.Diag.pass;
    Alcotest.(check bool) "block attributed" true (diag.Diag.block <> None)
  | () -> Alcotest.fail "verifier accepted a deleted definition")

let test_mir_phi_arity_attributed () =
  let f = build_fn map_src 2 in
  let corrupted = ref false in
  Mir.iter_blocks f (fun b ->
      List.iter
        (fun (phi : Mir.instr) ->
          match phi.Mir.kind with
          | Mir.Phi ops when Array.length ops > 1 && not !corrupted ->
            phi.Mir.kind <- Mir.Phi (Array.sub ops 0 (Array.length ops - 1));
            corrupted := true
          | _ -> ())
        b.Mir.phis);
  Alcotest.(check bool) "did corrupt" true !corrupted;
  match Verify.run ~pass:"test-mutation" f with
  | exception Diag.Failed diag ->
    check_contains "phi arity" diag.Diag.message "operands";
    Alcotest.(check bool) "value attributed" true (diag.Diag.value <> None)
  | () -> Alcotest.fail "verifier accepted a phi/pred arity mismatch"

let test_mir_stripped_rp_attributed () =
  let f =
    build_fn ~arg_tags:Value.[| Some Tag_array; None; None; None |] map_src 2
  in
  let stripped = ref false in
  Mir.iter_instrs f (fun i ->
      if (not !stripped) && Mir.is_guard i.Mir.kind then begin
        i.Mir.rp <- None;
        stripped := true
      end);
  Alcotest.(check bool) "did strip" true !stripped;
  match Verify.run ~pass:"test-mutation" f with
  | exception Diag.Failed diag ->
    check_contains "missing rp" diag.Diag.message "resume point"
  | () -> Alcotest.fail "verifier accepted a guard without a resume point"

let test_mir_unregistered_copy_attributed () =
  let f = build_fn map_src 2 in
  (* Swap a body instruction for a copy the def table never saw. *)
  let swapped = ref None in
  List.iter
    (fun bid ->
      let b = Mir.block f bid in
      match b.Mir.body with
      | i :: rest when !swapped = None ->
        b.Mir.body <- { i with Mir.def = i.Mir.def } :: rest;
        swapped := Some bid
      | _ -> ())
    f.Mir.block_order;
  let bid = match !swapped with Some b -> b | None -> Alcotest.fail "no body" in
  match Verify.run ~pass:"test-mutation" f with
  | exception Diag.Failed diag ->
    Alcotest.(check string) "layer" "mir" diag.Diag.layer;
    Alcotest.(check (option string)) "pass attributed" (Some "test-mutation")
      diag.Diag.pass;
    Alcotest.(check (option int)) "block attributed" (Some bid) diag.Diag.block;
    check_contains "unregistered copy" diag.Diag.message "registered"
  | () -> Alcotest.fail "verifier accepted an unregistered instruction"

let test_mir_type_lie_rejected () =
  let f = build_fn map_src 2 in
  (* Claim a call returns Int32: no re-inference can support that. *)
  let lied = ref false in
  Mir.iter_instrs f (fun i ->
      match i.Mir.kind with
      | Mir.Call _ when not !lied ->
        i.Mir.ty <- Mir.Ty_int32;
        lied := true
      | _ -> ());
  Alcotest.(check bool) "did lie" true !lied;
  match Verify.check_types ~pass:"test-mutation" f with
  | exception Diag.Failed diag ->
    check_contains "type lie" diag.Diag.message "declares type";
    Alcotest.(check (option string)) "pass attributed" (Some "test-mutation")
      diag.Diag.pass
  | () -> Alcotest.fail "type check accepted an unsupportable declared type"

(* --- specialization-soundness checker --- *)

let sample_array n = Value.Arr (Value.arr_of_list (List.init n (fun i -> Value.Int i)))

let spec_args_for_map () =
  [|
    sample_array 5; Value.Int 2; Value.Int 5;
    Value.Closure { Value.fid = 1; env = [||]; cid = Value.fresh_id () };
  |]

let test_spec_baked_constant_disagrees () =
  let program = Bytecode.Compile.program_of_source map_src in
  let func = program.Bytecode.Program.funcs.(2) in
  let f = Builder.build ~program ~func ~key:(Spec_key.Key_values (spec_args_for_map (), None)) () in
  (* Corrupt the cache tuple after the build: the baked constants in the
     entry block now disagree with what a cache probe would compare. *)
  let args = spec_args_for_map () in
  args.(1) <- Value.Int 99;
  f.Mir.key <- Spec_key.Key_values (args, None);
  let errs = Diag.errors (Spec_check.check ~stage:`Built f) in
  Alcotest.(check bool) "rejected" true (errs <> []);
  check_contains "disagreement" (List.hd errs).Diag.message "disagrees"

let test_spec_parameter_at_burned_position () =
  let program = Bytecode.Compile.program_of_source map_src in
  let func = program.Bytecode.Program.funcs.(2) in
  (* A generic build loads every argument as a runtime Parameter; claiming
     afterwards that the args were burned in must be flagged. *)
  let f = Builder.build ~program ~func () in
  f.Mir.key <- Spec_key.Key_values (spec_args_for_map (), None);
  let errs = Diag.errors (Spec_check.check ~stage:`Built f) in
  Alcotest.(check bool) "rejected" true (errs <> []);
  check_contains "burned parameter" (List.hd errs).Diag.message
    "burned into the cache tuple"

let test_spec_clean_on_specialized_build () =
  let program = Bytecode.Compile.program_of_source map_src in
  let func = program.Bytecode.Program.funcs.(2) in
  let f = Builder.build ~program ~func ~key:(Spec_key.Key_values (spec_args_for_map (), None)) () in
  Alcotest.(check int) "no errors on a faithful build" 0
    (List.length (Diag.errors (Spec_check.check ~stage:`Built f)))

let test_spec_dead_rp_warning () =
  (* The builder attaches resume points liberally; on instructions that can
     never bail (calls, generic element traffic) they are dead weight and
     must surface as warnings, never errors. *)
  let f = build_fn map_src 2 in
  let ds = Spec_check.check ~stage:`Optimized f in
  Alcotest.(check int) "no errors" 0 (List.length (Diag.errors ds));
  let dead =
    List.filter (fun d -> contains d.Diag.message "dead resume point") ds
  in
  Alcotest.(check bool) "dead-rp warnings present" true (dead <> []);
  List.iter
    (fun d -> Alcotest.(check bool) "is warning" true (Diag.is_warning d))
    dead

let test_spec_redundant_guard_warning () =
  let f =
    build_fn ~arg_tags:Value.[| Some Tag_array; None; None; None |] map_src 2
  in
  (* Duplicate an existing guard right after itself. *)
  let placed = ref false in
  List.iter
    (fun bid ->
      let b = Mir.block f bid in
      if not !placed then
        b.Mir.body <-
          List.concat_map
            (fun (i : Mir.instr) ->
              if (not !placed) && Mir.is_guard i.Mir.kind then begin
                placed := true;
                let dup = Mir.make_instr f ?rp:i.Mir.rp i.Mir.kind in
                [ i; dup ]
              end
              else [ i ])
            b.Mir.body)
    f.Mir.block_order;
  Alcotest.(check bool) "did duplicate" true !placed;
  let warns = Diag.warnings (Spec_check.check ~stage:`Optimized f) in
  Alcotest.(check bool) "redundant guard flagged" true
    (List.exists (fun d -> contains d.Diag.message "redundant guard") warns)

(* --- pipeline sandwich + end-to-end sweeps --- *)

let test_pipeline_sandwich_clean_on_all_on () =
  let program = Bytecode.Compile.program_of_source map_src in
  let func = program.Bytecode.Program.funcs.(2) in
  let f = Builder.build ~program ~func ~key:(Spec_key.Key_values (spec_args_for_map (), None)) () in
  ignore (Pipeline.apply ~check:true ~program Pipeline.all_on f)

(* One member per suite under the kitchen-sink config with every per-pass
   check enabled; bin/irlint covers the full workload x config matrix. The
   engine contains mid-run compile diagnostics (quarantine + interpreter
   fallback) rather than raising, so corruption is observed through the
   engine's diagnostic sink; [Diag.Failed] can still escape [Engine.make]'s
   bytecode admission check. *)
let test_engine_checked_sweep () =
  let aborted = ref None in
  let diag d = if Diag.is_error d && !aborted = None then aborted := Some d in
  List.iter
    (fun (suite : Suite.t) ->
      match suite.Suite.members with
      | [] -> ()
      | m :: _ -> (
        let cfg = Engine.default_config ~opt:Pipeline.all_on ~check:true () in
        aborted := None;
        match
          Runner.quiet (fun () -> Engine.run_source ~diag cfg m.Suite.m_source)
        with
        | _ -> (
          match !aborted with
          | None -> ()
          | Some d ->
            Alcotest.failf "%s/%s: compile aborted: %s" suite.Suite.s_name
              m.Suite.m_name (Diag.to_string d))
        | exception Diag.Failed d ->
          Alcotest.failf "%s/%s: %s" suite.Suite.s_name m.Suite.m_name
            (Diag.to_string d)))
    Suites.all

let suites =
  [
    ( "analysis.diag",
      [ Alcotest.test_case "rendering and filters" `Quick test_diag_rendering ]
    );
    ( "analysis.bc_verify",
      [
        Alcotest.test_case "rejects bad jump target" `Quick test_bc_bad_jump_target;
        Alcotest.test_case "rejects stack underflow" `Quick test_bc_stack_underflow;
        Alcotest.test_case "rejects inconsistent merge depth" `Quick
          test_bc_inconsistent_merge;
        Alcotest.test_case "rejects bad slot index" `Quick test_bc_bad_slot_index;
        Alcotest.test_case "rejects missing return" `Quick test_bc_missing_return;
        Alcotest.test_case "clean on every workload" `Slow
          test_bc_clean_on_all_workloads;
      ] );
    ( "analysis.mir_lint",
      [
        Alcotest.test_case "deleted def attributed" `Quick
          test_mir_deleted_def_attributed;
        Alcotest.test_case "phi arity attributed" `Quick test_mir_phi_arity_attributed;
        Alcotest.test_case "stripped rp attributed" `Quick
          test_mir_stripped_rp_attributed;
        Alcotest.test_case "unregistered copy attributed" `Quick
          test_mir_unregistered_copy_attributed;
        Alcotest.test_case "declared-type lie rejected" `Quick
          test_mir_type_lie_rejected;
      ] );
    ( "analysis.spec_check",
      [
        Alcotest.test_case "baked constant disagreement" `Quick
          test_spec_baked_constant_disagrees;
        Alcotest.test_case "parameter at burned position" `Quick
          test_spec_parameter_at_burned_position;
        Alcotest.test_case "faithful build is clean" `Quick
          test_spec_clean_on_specialized_build;
        Alcotest.test_case "dead resume points are warnings" `Quick
          test_spec_dead_rp_warning;
        Alcotest.test_case "redundant guard is a warning" `Quick
          test_spec_redundant_guard_warning;
      ] );
    ( "analysis.pipeline",
      [
        Alcotest.test_case "sandwich clean under all_on" `Quick
          test_pipeline_sandwich_clean_on_all_on;
        Alcotest.test_case "checked engine sweep" `Slow test_engine_checked_sweep;
      ] );
  ]
