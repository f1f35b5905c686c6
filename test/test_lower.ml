(* Focused tests for LIR lowering: phi-elimination move sequences
   (including the swap cycle that needs a temporary), snapshot-table
   sharing, layout/fallthrough, and stub placement. *)

open Runtime

let compile ?key ?arg_tags ?(config = Pipeline.baseline) src fid =
  let program = Bytecode.Compile.program_of_source src in
  let func = program.Bytecode.Program.funcs.(fid) in
  let f = Builder.build ~program ~func ?key ?arg_tags () in
  ignore (Pipeline.apply ~program config f);
  let code, _ = Regalloc.run (Lower.run f) in
  (func, code)

let exec code ~func ~args =
  let cb = { Exec.call = (fun _ _ -> Alcotest.fail "unexpected call"); globals = [||]; cycles = ref 0; on_charge = None; on_instr = None } in
  let act = Exec.make_activation ~func ~args () in
  Exec.run cb (Exec.prepare code) act ~at_osr:false

let value = Alcotest.testable Value.pp Value.same_value

let finished name expected = function
  | Exec.Finished v -> Alcotest.check value name expected v
  | Exec.Bailed b -> Alcotest.failf "%s: bailed (%s)" name b.Exec.bo_reason

(* The classic parallel-copy cycle: two loop-carried variables swapped every
   iteration. Phi elimination must break the cycle with a temporary; a naive
   sequentialization would compute fib wrong. *)
let test_swap_cycle () =
  let src =
    "function fib(n) { var a = 0, b = 1; for (var i = 0; i < n; i++) { var t = a + b; a = b; b = t; } return a; }"
  in
  let func, code = compile src 1 ~arg_tags:Value.[| Some Tag_int |] in
  finished "fib 10" (Value.Int 55) (exec code ~func ~args:[| Value.Int 10 |]);
  finished "fib 30" (Value.Int 832040) (exec code ~func ~args:[| Value.Int 30 |])

let test_three_way_rotation () =
  let src =
    "function rot(n) { var a = 1, b = 2, c = 3; for (var i = 0; i < n; i++) { var t = a; a = b; b = c; c = t; } return a * 100 + b * 10 + c; }"
  in
  let func, code = compile src 1 ~arg_tags:Value.[| Some Tag_int |] in
  finished "rotate 0" (Value.Int 123) (exec code ~func ~args:[| Value.Int 0 |]);
  finished "rotate 1" (Value.Int 231) (exec code ~func ~args:[| Value.Int 1 |]);
  finished "rotate 3" (Value.Int 123) (exec code ~func ~args:[| Value.Int 3 |])

let test_snapshot_sharing () =
  (* Guards born from the same bytecode instruction share one snapshot. *)
  let src = "function f(s, i) { return s[i]; }" in
  let _, code = compile src 1 ~arg_tags:Value.[| Some Tag_array; Some Tag_int |] in
  let snaps = Array.length code.Code.snapshots in
  let guards =
    Array.to_list code.Code.instrs
    |> List.filter (fun n ->
           match n with
           | Code.Op { snap = Some _; _ } -> true
           | _ -> false)
    |> List.length
  in
  Alcotest.(check bool) "snapshots deduplicated" true (snaps <= guards);
  Alcotest.(check bool) "has snapshots" true (snaps > 0)

let test_no_virtual_locations_in_snapshots () =
  let src = "function f(s, n) { var t = 0; for (var i = 0; i < n; i++) t += s[i]; return t; }" in
  let _, code = compile src 1 ~arg_tags:Value.[| Some Tag_array; Some Tag_int |] in
  Array.iter
    (fun s ->
      let check = function
        | Code.L (Code.V _) -> Alcotest.fail "virtual register in snapshot"
        | _ -> ()
      in
      Array.iter check s.Code.sn_args;
      Array.iter check s.Code.sn_locals;
      Array.iter check s.Code.sn_stack)
    code.Code.snapshots

let test_entry_offset_is_zero_with_osr () =
  (* With an OSR block present, the function entry must still be at 0. *)
  let program =
    Bytecode.Compile.program_of_source
      "function f(n) { var t = 0; for (var i = 0; i < n; i++) t += i; return t; }"
  in
  let func = program.Bytecode.Program.funcs.(1) in
  let osr =
    {
      (* pc 4 is the for-loop's Loop_head (after both initializers). *)
      Builder.osr_pc = 4;
      osr_args = [| Value.Int 100 |];
      (* locals are allocated alphabetically: slot 0 = i, slot 1 = t *)
      osr_locals = [| Value.Int 5; Value.Int 10 |];
      osr_bake_locals = true;
    }
  in
  let key = Spec_key.Key_values ([| Value.Int 100 |], None) in
  let f = Builder.build ~program ~func ~key ~osr () in
  ignore (Pipeline.apply ~program Pipeline.best f);
  let code, _ = Regalloc.run (Lower.run f) in
  (match code.Code.osr_offset with
  | Some o -> Alcotest.(check bool) "osr offset valid" true (o >= 0 && o < Code.size code)
  | None -> Alcotest.fail "expected an OSR offset");
  (* Entry path computes the full sum; OSR path continues from i=5,t=10. *)
  let run_at ~at_osr =
    let cb = { Exec.call = (fun _ _ -> assert false); globals = [||]; cycles = ref 0; on_charge = None; on_instr = None } in
    let act =
      {
        Exec.act_args = [| Value.Int 100 |];
        act_env = [||];
        act_cells = [| ref Value.Undefined |];
        act_osr_args = [| Value.Int 100 |];
        act_osr_locals = [| Value.Int 5; Value.Int 10 |];
      }
    in
    match Exec.run cb (Exec.prepare code) act ~at_osr with
    | Exec.Finished v -> v
    | Exec.Bailed b -> Alcotest.failf "bailed: %s" b.Exec.bo_reason
  in
  Alcotest.check value "entry path" (Value.Int 4950) (run_at ~at_osr:false);
  (* OSR with t=10 at i=5: 10 + sum(5..99) = 10 + 4950 - 10 = 4950. *)
  Alcotest.check value "osr path" (Value.Int 4950) (run_at ~at_osr:true)

let test_code_is_compact () =
  (* Jump-to-next elision: straight-line code contains no jumps at all. *)
  let _, code = compile "function f(a, b) { var x = a + b; var y = x * 2; return y - a; }" 1
      ~arg_tags:Value.[| Some Tag_int; Some Tag_int |]
  in
  let jumps =
    Array.to_list code.Code.instrs
    |> List.filter (fun n -> match n with Code.Jump _ -> true | _ -> false)
    |> List.length
  in
  Alcotest.(check int) "no jumps in straight-line code" 0 jumps

(* --- the native-code verifier --- *)

let test_verifier_accepts_compiled_code () =
  (* Every compile in the repository already passes through the verifier
     via the engine; here it runs on a standalone backend product, plus on
     a specialized + OSR variant. *)
  let src =
    "function f(n) { var t = 0; for (var i = 0; i < n; i++) t = (t + i * 3) | 0; return t; }"
  in
  let _, code = compile src 1 ~arg_tags:Value.[| Some Tag_int |] in
  Code_verify.run code;
  let _, code2 =
    compile src 1 ~key:(Spec_key.Key_values (Value.[| Int 9 |], None)) ~config:Pipeline.all_on
  in
  Code_verify.run code2

let test_verifier_rejects_virtual_register () =
  let _, code = compile "function f(a) { return a + 1; }" 1 in
  let broken =
    { code with
      Code.instrs =
        Array.map
          (fun n ->
            match n with
            | Code.Ret _ -> Code.Ret (Code.L (Code.V 99))
            | other -> other)
          code.Code.instrs
    }
  in
  match Code_verify.run broken with
  | exception Diag.Failed d ->
    Alcotest.(check bool) "mentions the vreg" true
      (String.length d.Diag.message > 0 && d.Diag.layer = "lir")
  | () -> Alcotest.fail "verifier accepted a surviving virtual register"

let test_verifier_rejects_uninitialized_read () =
  let _, code = compile "function f(a) { return a + 1; }" 1 in
  (* Redirect the return to a register nothing ever writes. *)
  let unused = Regalloc.num_registers - 1 in
  let broken =
    { code with
      Code.instrs =
        Array.map
          (fun n ->
            match n with
            | Code.Ret _ -> Code.Ret (Code.L (Code.R unused))
            | other -> other)
          code.Code.instrs
    }
  in
  match Code_verify.run broken with
  | exception Diag.Failed d ->
    Alcotest.(check bool) "mentions read-before-write" true
      (String.length d.Diag.message > 0 && d.Diag.layer = "lir")
  | () -> Alcotest.fail "verifier accepted an uninitialized read"

let test_verifier_rejects_bad_target () =
  let _, code = compile "function f(a) { return a + 1; }" 1 in
  let broken =
    { code with
      Code.instrs = Array.append code.Code.instrs [| Code.Jump 9999 |]
    }
  in
  match Code_verify.run broken with
  | exception Diag.Failed _ -> ()
  | () -> Alcotest.fail "verifier accepted an out-of-range jump target"

let suites =
  [
    ( "lir.lower",
      [
        Alcotest.test_case "swap cycle needs a temp" `Quick test_swap_cycle;
        Alcotest.test_case "three-way rotation" `Quick test_three_way_rotation;
        Alcotest.test_case "snapshot sharing" `Quick test_snapshot_sharing;
        Alcotest.test_case "snapshots fully allocated" `Quick
          test_no_virtual_locations_in_snapshots;
        Alcotest.test_case "OSR layout" `Quick test_entry_offset_is_zero_with_osr;
        Alcotest.test_case "fallthrough elision" `Quick test_code_is_compact;
        Alcotest.test_case "verifier accepts backend output" `Quick
          test_verifier_accepts_compiled_code;
        Alcotest.test_case "verifier rejects virtual register" `Quick
          test_verifier_rejects_virtual_register;
        Alcotest.test_case "verifier rejects uninitialized read" `Quick
          test_verifier_rejects_uninitialized_read;
        Alcotest.test_case "verifier rejects bad jump target" `Quick
          test_verifier_rejects_bad_target;
      ] );
  ]
