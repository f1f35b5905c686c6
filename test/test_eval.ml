(* Tests for the MIR reference evaluator, plus cross-layer invariants it
   enables: pass idempotence and full-program agreement between the MIR
   level and the bytecode interpreter. *)

open Runtime

let build ?key ?arg_tags ?(config = Pipeline.baseline) src fid =
  let program = Bytecode.Compile.program_of_source src in
  let func = program.Bytecode.Program.funcs.(fid) in
  let f = Builder.build ~program ~func ?key ?arg_tags () in
  ignore (Pipeline.apply ~program config f);
  (program, func, f)

let eval ?(globals = [||]) ?(call = fun _ _ -> Alcotest.fail "unexpected call") f
    ~(func : Bytecode.Program.func) ~args =
  let env =
    {
      Eval.ev_args = args;
      ev_env = [||];
      ev_cells =
        Array.init (max func.Bytecode.Program.ncells 1) (fun _ -> ref Value.Undefined);
      ev_globals = globals;
      ev_call = call;
      ev_osr_args = [||];
      ev_osr_locals = [||];
    }
  in
  Eval.run env f ~at_osr:false

let value = Alcotest.testable Value.pp Value.same_value

let check_finished name expected outcome =
  match outcome with
  | Eval.Finished v -> Alcotest.check value name expected v
  | Eval.Bailed { reason; _ } -> Alcotest.failf "%s: unexpected bailout (%s)" name reason

let test_eval_loop () =
  let _, func, f =
    build "function f(n) { var t = 0; for (var i = 1; i <= n; i++) t += i; return t; }" 1
      ~arg_tags:Value.[| Some Tag_int |]
  in
  check_finished "gauss" (Value.Int 5050) (eval f ~func ~args:[| Value.Int 100 |])

let test_eval_guard_bails () =
  let _, func, f =
    build "function f(a) { return a * 2; }" 1 ~arg_tags:Value.[| Some Tag_int |]
  in
  match eval f ~func ~args:[| Value.Str "x" |] with
  | Eval.Bailed { pc; reason } ->
    Alcotest.(check int) "entry pc" 0 pc;
    Alcotest.(check string) "reason" "type barrier" reason
  | Eval.Finished _ -> Alcotest.fail "expected bailout"

let test_eval_calls_through_engine_callback () =
  let calls = ref [] in
  let _, func, f =
    build "function f(g) { return g(2) + g(3); }" 1
      ~key:(Spec_key.Key_values ([| Value.Native_fun "Math.sqrt" |], None))
      ~config:(Pipeline.make ~ps:true "ps")
  in
  let call v args =
    calls := (v, args) :: !calls;
    Value.Int 9
  in
  (* Natives become direct Call_native during specialization, so the
     callback is not consulted for them; use a closure-valued global
     instead when the call is dynamic. *)
  ignore call;
  check_finished "sqrt(2)+sqrt(3)"
    (Value.norm_num (sqrt 2.0 +. sqrt 3.0))
    (eval f ~func ~args:[| Value.Native_fun "Math.sqrt" |])

let test_eval_matches_interp_on_suite_kernels () =
  (* Whole-function agreement on a few real suite kernels, generic mode. *)
  List.iter
    (fun (src, fid, args, _name) ->
      let program = Bytecode.Compile.program_of_source src in
      let func = program.Bytecode.Program.funcs.(fid) in
      let istate = Interp.make_state program in
      let hooks = Interp.default_hooks istate in
      let frame = Interp.make_frame func ~args:(Array.copy args) ~upvals:[||] in
      let expected = Interp.run istate hooks frame in
      let f = Builder.build ~program ~func () in
      ignore (Pipeline.apply ~program Pipeline.baseline f);
      match
        eval f ~func ~args ~globals:istate.Interp.globals
          ~call:(fun v a -> Interp.call_value istate hooks v a)
      with
      | Eval.Finished v ->
        Alcotest.(check bool) "same value" true (Value.same_value v expected)
      | Eval.Bailed { reason; _ } ->
        (* Overflow guards may fire legitimately (t * 31 overflows int32);
           the engine would resume in the interpreter at that point. *)
        Alcotest.(check string) "only overflow guards may fire" "int32 overflow" reason)
    [
      ( "function bits(b) { var m = 1, c = 0; while (m < 256) { if (b & m) c++; m <<= 1; } return c; }",
        1,
        [| Value.Int 0xAB |],
        "bits" );
      ( "function h(s) { var t = 0; for (var i = 0; i < s.length; i++) t = (t * 31 + s.charCodeAt(i)) | 0; return t; }",
        1,
        [| Value.Str "specialize me" |],
        "hash" );
      ( "function sum(a) { var t = 0; for (var i = 0; i < a.length; i++) t += a[i]; return t; }",
        1,
        [| Value.Arr (Value.arr_of_list (List.init 9 (fun i -> Value.Int (i * i)))) |],
        "sum" );
    ]

(* Pass idempotence: applying a pass to its own output changes nothing. *)
let test_pass_idempotence () =
  let program =
    Bytecode.Compile.program_of_source
      "function f(s, n, k) { var t = 0; for (var i = 0; i < n; i++) { if (s[i] > k) t += s[i]; } return t | 0; }"
  in
  let func = program.Bytecode.Program.funcs.(1) in
  let arr = Value.Arr (Value.arr_of_list (List.init 8 (fun i -> Value.Int i))) in
  let f =
    Builder.build ~program ~func
      ~key:(Spec_key.Key_values ([| arr; Value.Int 8; Value.Int 3 |], None))
      ()
  in
  Typer.run f;
  ignore (Gvn.run f);
  Alcotest.(check int) "gvn fixpoint" 0 (Gvn.run f);
  ignore (Constprop.run f);
  Alcotest.(check int) "constprop fixpoint" 0 (Constprop.run f);
  ignore (Loop_inversion.run f);
  Alcotest.(check int) "inversion fixpoint" 0 (Loop_inversion.run f);
  ignore (Gvn.run f);
  let d1 = Dce.run f in
  let d2 = Dce.run f in
  Alcotest.(check int) "dce fixpoint (instrs)" 0 d2.Dce.instrs_removed;
  Alcotest.(check int) "dce fixpoint (blocks)" 0 d2.Dce.blocks_removed;
  ignore d1;
  ignore (Licm.run f);
  Alcotest.(check int) "licm fixpoint" 0 (Licm.run f);
  Verify.run f

let suites =
  [
    ( "mir.eval",
      [
        Alcotest.test_case "loops" `Quick test_eval_loop;
        Alcotest.test_case "guards bail" `Quick test_eval_guard_bails;
        Alcotest.test_case "native calls" `Quick test_eval_calls_through_engine_callback;
        Alcotest.test_case "matches interpreter on kernels" `Quick
          test_eval_matches_interp_on_suite_kernels;
        Alcotest.test_case "pass idempotence" `Quick test_pass_idempotence;
      ] );
  ]
