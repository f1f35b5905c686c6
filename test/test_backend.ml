(* Tests for LIR lowering, register allocation, and the native executor. *)

open Runtime

let compile_fn ?key ?arg_tags ?(config = Pipeline.baseline) src fid =
  let program = Bytecode.Compile.program_of_source src in
  let func = program.Bytecode.Program.funcs.(fid) in
  let f = Builder.build ~program ~func ?key ?arg_tags () in
  ignore (Pipeline.apply ~program config f);
  let vcode = Lower.run f in
  let code, intervals = Regalloc.run vcode in
  (program, func, code, intervals)

let exec ?(globals = [||]) ?(call = fun _ _ -> Alcotest.fail "unexpected call") ?on_charge
    ?on_instr code ~func ~args =
  let cycles = ref 0 in
  let cb = { Exec.call; globals; cycles; on_charge; on_instr; faults = Faults.none } in
  let act = Exec.make_activation ~func ~args () in
  (* Bind before pairing: tuple components evaluate right to left. *)
  let outcome = Exec.run cb (Exec.prepare code) act ~at_osr:false in
  (outcome, !cycles)

let value = Alcotest.testable Value.pp Value.same_value

let check_finished name expected outcome =
  match outcome with
  | Exec.Finished v -> Alcotest.check value name expected v
  | Exec.Bailed b -> Alcotest.failf "%s: unexpected bailout (%s)" name b.Exec.bo_reason

(* --- lowering --- *)

let test_lowered_code_is_allocated () =
  let _, _, code, _ =
    compile_fn "function f(a, b) { return a * b + 1; }" 1
      ~arg_tags:Value.[| Some Tag_int; Some Tag_int |]
  in
  Array.iter
    (fun n ->
      let check_src = function
        | Code.L (Code.V _) -> Alcotest.fail "virtual register survived allocation"
        | _ -> ()
      in
      match n with
      | Code.Op { dst; args; _ } ->
        (match dst with Some (Code.V _) -> Alcotest.fail "virtual dst" | _ -> ());
        Array.iter check_src args
      | Code.Branch (c, _, _) -> check_src c
      | Code.Ret s -> check_src s
      | Code.Jump _ -> ())
    code.Code.instrs

let test_constants_become_immediates () =
  let _, _, code, _ =
    compile_fn "function f() { return 2 + 3; }" 1 ~config:Pipeline.best
      ~key:(Spec_key.Key_values ([||], None))
  in
  (* The whole body folds; only a return of an immediate remains. *)
  Alcotest.(check bool) "tiny code" true (Code.size code <= 2);
  match code.Code.instrs.(Code.size code - 1) with
  | Code.Ret (Code.Imm (Value.Int 5)) -> ()
  | other -> Alcotest.failf "expected ret $5, got %s" (Code.ninstr_to_string other)

let test_exec_arithmetic () =
  let _, func, code, _ =
    compile_fn "function f(a, b) { return (a + b) * (a - b); }" 1
      ~arg_tags:Value.[| Some Tag_int; Some Tag_int |]
  in
  let outcome, _ = exec code ~func ~args:[| Value.Int 7; Value.Int 3 |] in
  check_finished "(7+3)*(7-3)" (Value.Int 40) outcome

let test_exec_control_flow () =
  let src = "function f(n) { var t = 0; for (var i = 1; i <= n; i++) t += i; return t; }" in
  let _, func, code, _ = compile_fn src 1 ~arg_tags:Value.[| Some Tag_int |] in
  let outcome, _ = exec code ~func ~args:[| Value.Int 100 |] in
  check_finished "gauss" (Value.Int 5050) outcome

let test_exec_heap_traffic () =
  let src =
    "function f(n) { var a = new Array(n); for (var i = 0; i < n; i++) a[i] = i * i; \
     var o = {sum: 0}; for (var i = 0; i < n; i++) o.sum += a[i]; return o.sum; }"
  in
  let _, func, code, _ = compile_fn src 1 ~arg_tags:Value.[| Some Tag_int |] in
  let outcome, _ = exec code ~func ~args:[| Value.Int 10 |] in
  check_finished "sum of squares" (Value.Int 285) outcome

let test_exec_type_barrier_bails () =
  let _, func, code, _ =
    compile_fn "function f(a) { return a + 1; }" 1 ~arg_tags:Value.[| Some Tag_int |]
  in
  let outcome, _ = exec code ~func ~args:[| Value.Str "boom" |] in
  match outcome with
  | Exec.Bailed b ->
    Alcotest.(check int) "resumes at entry" 0 b.Exec.bo_pc;
    Alcotest.(check bool) "argument recovered" true
      (Value.same_value b.Exec.bo_args.(0) (Value.Str "boom"))
  | Exec.Finished _ -> Alcotest.fail "expected a type-barrier bailout"

let test_exec_bounds_check_bails_with_state () =
  let src = "function f(s, i) { var marker = i * 10; return s[i] + marker; }" in
  let _, func, code, _ =
    compile_fn src 1 ~arg_tags:Value.[| Some Tag_array; Some Tag_int |]
  in
  let arr = Value.Arr (Value.arr_of_list [ Value.Int 5 ]) in
  (* In-bounds works natively. *)
  let ok, _ = exec code ~func ~args:[| arr; Value.Int 0 |] in
  check_finished "in bounds" (Value.Int 5) ok;
  (* Out of bounds bails with the locals reconstructed. *)
  let outcome, _ = exec code ~func ~args:[| arr; Value.Int 7 |] in
  match outcome with
  | Exec.Bailed b ->
    Alcotest.(check bool) "marker local recovered" true
      (Array.exists (fun v -> Value.same_value v (Value.Int 70)) b.Exec.bo_locals)
  | Exec.Finished _ -> Alcotest.fail "expected bounds bailout"

let test_exec_overflow_bails () =
  let _, func, code, _ =
    compile_fn "function f(a) { return a + 1; }" 1 ~arg_tags:Value.[| Some Tag_int |]
  in
  let outcome, _ = exec code ~func ~args:[| Value.Int Value.int32_max |] in
  match outcome with
  | Exec.Bailed b -> Alcotest.(check string) "reason" "int32 overflow" b.Exec.bo_reason
  | Exec.Finished _ -> Alcotest.fail "expected overflow bailout"

let test_exec_globals () =
  let src = "g = 0; function bump(n) { g = g + n; return g; }" in
  let program = Bytecode.Compile.program_of_source src in
  let func = program.Bytecode.Program.funcs.(1) in
  let f = Builder.build ~program ~func ~arg_tags:Value.[| Some Tag_int |] () in
  ignore (Pipeline.apply ~program Pipeline.baseline f);
  let code, _ = Regalloc.run (Lower.run f) in
  let globals = Array.make (Array.length program.Bytecode.Program.global_names) Value.Undefined in
  let slot = Option.get (Bytecode.Program.global_slot program "g") in
  globals.(slot) <- Value.Int 10;
  let outcome, _ = exec ~globals code ~func ~args:[| Value.Int 5 |] in
  check_finished "returns updated" (Value.Int 15) outcome;
  Alcotest.check value "global written" (Value.Int 15) globals.(slot)

(* Observer order. One run of a code with a call, a passing guard and a
   failing guard, recording every [on_charge] note and [on_instr] pc in
   order: each instruction is charged, noted, then observed; a call's
   overhead comes right after its instruction's [on_instr] at the same pc;
   the bailout penalty is noted last, at the failing guard's pc; and the
   notes sum to the cycles charged. *)
type event = Charge of int * int | Instr of int

let test_exec_observer_order () =
  let src = "g = 0; function f(s, i) { g(); return s[i]; }" in
  let program = Bytecode.Compile.program_of_source src in
  let func = program.Bytecode.Program.funcs.(1) in
  let f = Builder.build ~program ~func ~arg_tags:Value.[| Some Tag_array; Some Tag_int |] () in
  ignore (Pipeline.apply ~program Pipeline.baseline f);
  let code, _ = Regalloc.run (Lower.run f) in
  let globals = Array.make (Array.length program.Bytecode.Program.global_names) Value.Undefined in
  let events = ref [] in
  let record e = events := e :: !events in
  let arr = Value.Arr (Value.arr_of_list [ Value.Int 5 ]) in
  let outcome, cycles =
    exec ~globals code ~func ~args:[| arr; Value.Int 3 |]
      ~call:(fun _ _ -> Value.Undefined)
      ~on_charge:(fun _ pc n -> record (Charge (pc, n)))
      ~on_instr:(fun _ pc -> record (Instr pc))
  in
  let events = List.rev !events in
  let guard_at pc =
    match code.Code.instrs.(pc) with
    | Code.Op { op = Code.Guard_type _ | Code.Guard_array | Code.Guard_bounds; snap = Some _; _ } ->
      true
    | _ -> false
  in
  let call_at pc =
    match code.Code.instrs.(pc) with
    | Code.Op { op = Code.Call_dyn | Code.Call_known_op _; _ } -> true
    | _ -> false
  in
  Alcotest.(check int) "notes sum to the cycle delta" cycles
    (List.fold_left (fun acc -> function Charge (_, n) -> acc + n | Instr _ -> acc) 0 events);
  let failed_pc =
    match outcome with
    | Exec.Bailed b -> b.Exec.bo_native_pc
    | Exec.Finished _ -> Alcotest.fail "expected a bounds bailout"
  in
  Alcotest.(check bool) "the failing pc is a guard" true (guard_at failed_pc);
  let rec walk ~calls ~passed = function
    | Charge (pc, n) :: Instr pc' :: rest ->
      Alcotest.(check int) "on_instr follows its charge" pc pc';
      Alcotest.(check int) "instruction charge" (Cost.instr code.Code.instrs.(pc)) n;
      if call_at pc then
        match rest with
        | Charge (pc'', n'') :: rest ->
          Alcotest.(check int) "call overhead at the call's pc" pc pc'';
          Alcotest.(check int) "call overhead" Cost.call_overhead n'';
          walk ~calls:(calls + 1) ~passed rest
        | _ -> Alcotest.fail "call without its overhead note"
      else if pc = failed_pc then (
        Alcotest.(check bool) "a call ran" true (calls > 0);
        Alcotest.(check bool) "a guard passed" true (passed > 0);
        Alcotest.(check bool) "penalty last, at the failing guard"
          true (rest = [ Charge (failed_pc, Cost.bailout_penalty) ]))
      else walk ~calls ~passed:(if guard_at pc then passed + 1 else passed) rest
    | _ -> Alcotest.fail "events out of order"
  in
  walk ~calls:0 ~passed:0 events

(* [Exec.prepare] is the executor's one check that code is allocated:
   lowered code still names virtual registers and is refused. *)
let test_prepare_rejects_unallocated () =
  let program = Bytecode.Compile.program_of_source "function f(a, b) { return a * b + 1; }" in
  let func = program.Bytecode.Program.funcs.(1) in
  let f = Builder.build ~program ~func ~arg_tags:Value.[| Some Tag_int; Some Tag_int |] () in
  ignore (Pipeline.apply ~program Pipeline.baseline f);
  match Exec.prepare (Lower.run f) with
  | _ -> Alcotest.fail "prepare accepted virtual registers"
  | exception Invalid_argument _ -> ()

(* The prepared form's footprint over every code the engine compiles for
   the benchmark suites under [Pipeline.best]: what [Exec.prepare] adds to
   a [Code.t] must stay within 2 words per native instruction. A probe of
   the alternatives measured the flat cost array at 1.1 words per
   instruction (web peak heap 55.7 MB against the 48.9-54.0 MB before),
   instructions compiled into lean closures at 8 words (63.5 MB) and full
   closures at 20 words (75.6 MB), with no speed gained over the flat
   form. *)
let test_prepared_footprint () =
  let graphs = ref [] in
  let run (m : Suite.member) =
    Builtins.with_print_hook ignore (fun () ->
        Builtins.reset_random 20130223;
        ignore (Engine.run_source (Engine.default_config ~opt:Pipeline.best ()) m.Suite.m_source))
  in
  Engine.with_mir_hook
    (fun g -> graphs := g :: !graphs)
    (fun () -> List.iter (fun (s : Suite.t) -> List.iter run s.Suite.members) Suites.all);
  let instrs, extra =
    List.fold_left
      (fun (instrs, extra) g ->
        let code, _ = Regalloc.run (Lower.run g) in
        let p = Exec.prepare code in
        ( instrs + Code.size code,
          extra + Obj.reachable_words (Obj.repr p) - Obj.reachable_words (Obj.repr code) ))
      (0, 0) !graphs
  in
  Alcotest.(check bool) "codes collected" true (instrs > 0);
  if extra > 2 * instrs then
    Alcotest.failf "prepared form adds %d words over %d native instructions (%.2f per instruction)"
      extra instrs (float extra /. float instrs)

(* What a warm call costs the OCaml heap around the native code it runs:
   on an engine that has already run the program once, the second run of
   [fib(18)] x30 makes 250,830 calls, every one a cache hit on a binary
   that finishes natively. The cache probe, the counters, the callbacks
   record and the activation must stay within 40 minor words per call
   (157 before the warm path was made allocation-free). *)
let test_warm_call_footprint () =
  let src =
    "function fib(n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); }\n\
     var s = 0; for (var i = 0; i < 30; i++) s = s + fib(18); s;"
  in
  let engine =
    Engine.make (Engine.default_config ~opt:Pipeline.best ())
      (Bytecode.Compile.program_of_source src)
  in
  let calls () =
    Telemetry.Counters.total (Telemetry.counters (Engine.telemetry engine)) Telemetry.Key.calls
  in
  ignore (Engine.run engine);
  let before = calls () in
  let words = Gc.minor_words () in
  let report = Engine.run engine in
  let words = Gc.minor_words () -. words in
  let n = calls () - before in
  Alcotest.(check int) "30 x fib(18) calls" (30 * 8361) n;
  Alcotest.(check bool) "every call native" true (report.Engine.interp_cycles < n);
  let per_call = words /. float n in
  if per_call > 40. then Alcotest.failf "a warm call allocates %.1f minor words (> 40)" per_call

let test_specialized_code_smaller_and_faster () =
  let src = "function f(a, b, n) { var t = 0; for (var i = 0; i < n; i++) t = (t + a * b) | 0; return t; }" in
  let tags = Value.[| Some Tag_int; Some Tag_int; Some Tag_int |] in
  let _, func, generic, _ = compile_fn src 1 ~arg_tags:tags ~config:Pipeline.baseline in
  let args = [| Value.Int 3; Value.Int 4; Value.Int 50 |] in
  let _, _, spec, _ =
    compile_fn src 1 ~key:(Spec_key.Key_values (args, None)) ~config:Pipeline.best
  in
  Alcotest.(check bool) "specialized code is smaller" true
    (Code.size spec < Code.size generic);
  let out_g, cyc_g = exec generic ~func ~args in
  let out_s, cyc_s = exec spec ~func ~args in
  check_finished "generic result" (Value.Int 600) out_g;
  check_finished "specialized result" (Value.Int 600) out_s;
  Alcotest.(check bool) "specialized runs in fewer cycles" true (cyc_s < cyc_g)

let test_regalloc_spills_under_pressure () =
  (* More than num_registers simultaneously-live values force slots. *)
  let vars = List.init 20 (fun i -> Printf.sprintf "v%d" i) in
  let decls =
    String.concat "" (List.mapi (fun i v -> Printf.sprintf "var %s = x + %d;\n" v i) vars)
  in
  let sum = String.concat " + " vars in
  let src = Printf.sprintf "function f(x) {\n%sreturn (%s) | 0;\n}" decls sum in
  let _, func, code, intervals =
    compile_fn src 1 ~arg_tags:Value.[| Some Tag_int |]
  in
  Alcotest.(check bool) "spill slots allocated" true (code.Code.nslots > 0);
  Alcotest.(check bool) "many intervals" true (intervals > Regalloc.num_registers);
  let outcome, _ = exec code ~func ~args:[| Value.Int 1 |] in
  check_finished "sum correct" (Value.Int (20 + 190)) outcome

(* qcheck: random int-typed expressions compile and execute to the
   interpreter's value. *)
let rec gen_expr_src_ref () = gen_expr_src

and gen_expr_src =
  let open QCheck.Gen in
  let rec expr n =
    if n = 0 then oneof [ oneofl [ "a"; "b" ]; map string_of_int (int_range 0 20) ]
    else
      let* x = expr (n - 1) in
      let* y = expr (n - 1) in
      let* o = oneofl [ "+"; "-"; "*"; "&"; "|"; "^" ] in
      return (Printf.sprintf "((%s %s %s) | 0)" x o y)
  in
  let* e = expr 3 in
  return (Printf.sprintf "function f(a, b) { return %s; }" e)

(* Three-way differential: the bytecode interpreter, the MIR reference
   evaluator and the native executor must agree on generated expressions.
   A mismatch at the MIR level blames a pass; at the native level, the
   backend. *)
let eval_mir f ~func ~args =
  let env =
    {
      Eval.ev_args = args;
      ev_env = [||];
      ev_cells = Array.init (max func.Bytecode.Program.ncells 1) (fun _ -> ref Value.Undefined);
      ev_globals = [||];
      ev_call = (fun _ _ -> Alcotest.fail "unexpected call");
      ev_osr_args = [||];
      ev_osr_locals = [||];
    }
  in
  Eval.run env f ~at_osr:false

let prop_three_way_differential =
  QCheck.Test.make ~name:"interp = MIR evaluator = native executor" ~count:150
    QCheck.(
      make
        ~print:(fun (s, a, b) -> Printf.sprintf "%s with (%d, %d)" s a b)
        Gen.(
          let* s = gen_expr_src_ref () in
          let* a = int_range (-100) 100 in
          let* b = int_range (-100) 100 in
          return (s, a, b)))
    (fun (src, a, b) ->
      let program = Bytecode.Compile.program_of_source src in
      let func = program.Bytecode.Program.funcs.(1) in
      let istate = Interp.make_state program in
      let hooks = Interp.default_hooks istate in
      let args = [| Value.Int a; Value.Int b |] in
      let frame = Interp.make_frame func ~args:(Array.copy args) ~upvals:[||] in
      let expected = Interp.run istate hooks frame in
      let f =
        Builder.build ~program ~func ~arg_tags:Value.[| Some Tag_int; Some Tag_int |] ()
      in
      ignore (Pipeline.apply ~program Pipeline.best f);
      let mir_agrees =
        match eval_mir f ~func ~args with
        | Eval.Finished v -> Value.same_value v expected
        | Eval.Bailed _ -> true
      in
      let code, _ = Regalloc.run (Lower.run f) in
      let cb =
        { Exec.call = (fun _ _ -> assert false); globals = [||]; cycles = ref 0;
          on_charge = None; on_instr = None; faults = Faults.none }
      in
      let act = Exec.make_activation ~func ~args () in
      let native_agrees =
        match Exec.run cb (Exec.prepare code) act ~at_osr:false with
        | Exec.Finished v -> Value.same_value v expected
        | Exec.Bailed _ -> true
      in
      mir_agrees && native_agrees)

let prop_native_matches_interp =
  QCheck.Test.make ~name:"native code computes what the interpreter computes" ~count:150
    QCheck.(
      make
        ~print:(fun (s, a, b) -> Printf.sprintf "%s with (%d, %d)" s a b)
        Gen.(
          let* s = gen_expr_src in
          let* a = int_range (-100) 100 in
          let* b = int_range (-100) 100 in
          return (s, a, b)))
    (fun (src, a, b) ->
      let program = Bytecode.Compile.program_of_source src in
      let func = program.Bytecode.Program.funcs.(1) in
      let istate = Interp.make_state program in
      let hooks = Interp.default_hooks istate in
      let args = [| Value.Int a; Value.Int b |] in
      let frame = Interp.make_frame func ~args:(Array.copy args) ~upvals:[||] in
      let expected = Interp.run istate hooks frame in
      let f =
        Builder.build ~program ~func ~arg_tags:Value.[| Some Tag_int; Some Tag_int |] ()
      in
      ignore (Pipeline.apply ~program Pipeline.baseline f);
      let code, _ = Regalloc.run (Lower.run f) in
      let cb =
        { Exec.call = (fun _ _ -> assert false); globals = [||]; cycles = ref 0;
          on_charge = None; on_instr = None; faults = Faults.none }
      in
      let act = Exec.make_activation ~func ~args () in
      match Exec.run cb (Exec.prepare code) act ~at_osr:false with
      | Exec.Finished v -> Value.same_value v expected
      | Exec.Bailed _ -> true (* overflow guards may fire; resume is engine-level *))

let suites =
  [
    ( "lir",
      [
        Alcotest.test_case "allocation removes vregs" `Quick test_lowered_code_is_allocated;
        Alcotest.test_case "constants are immediates" `Quick
          test_constants_become_immediates;
        Alcotest.test_case "spills under pressure" `Quick
          test_regalloc_spills_under_pressure;
        Alcotest.test_case "specialized smaller and faster" `Quick
          test_specialized_code_smaller_and_faster;
      ] );
    ( "native",
      [
        Alcotest.test_case "arithmetic" `Quick test_exec_arithmetic;
        Alcotest.test_case "control flow" `Quick test_exec_control_flow;
        Alcotest.test_case "heap traffic" `Quick test_exec_heap_traffic;
        Alcotest.test_case "type barrier bails" `Quick test_exec_type_barrier_bails;
        Alcotest.test_case "bounds check bails with state" `Quick
          test_exec_bounds_check_bails_with_state;
        Alcotest.test_case "overflow bails" `Quick test_exec_overflow_bails;
        Alcotest.test_case "globals" `Quick test_exec_globals;
        Alcotest.test_case "observer order" `Quick test_exec_observer_order;
        Alcotest.test_case "prepare rejects unallocated code" `Quick
          test_prepare_rejects_unallocated;
        Alcotest.test_case "prepared footprint" `Quick test_prepared_footprint;
        QCheck_alcotest.to_alcotest prop_native_matches_interp;
        QCheck_alcotest.to_alcotest prop_three_way_differential;
      ] );
    ("engine", [ Alcotest.test_case "warm call footprint" `Quick test_warm_call_footprint ]);
  ]
