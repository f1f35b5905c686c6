(* Tests for MIR construction, CFG analyses, the typer and the verifier. *)

open Runtime

let build_fn ?key ?arg_tags ?osr src fid =
  let program = Bytecode.Compile.program_of_source src in
  let func = program.Bytecode.Program.funcs.(fid) in
  let f = Builder.build ~program ~func ?key ?arg_tags ?osr () in
  Typer.run f;
  Verify.run f;
  (program, f)

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

let sample_array n = Value.Arr (Value.arr_of_list (List.init n (fun i -> Value.Int i)))

let spec_args_for_map () =
  [|
    sample_array 5; Value.Int 2; Value.Int 5;
    Value.Closure { Value.fid = 1; env = [||]; cid = Value.fresh_id () };
  |]

let count_kind f pred =
  let n = ref 0 in
  Mir.iter_instrs f (fun i -> if pred i.Mir.kind then incr n);
  !n

let test_generic_build_shape () =
  let _, f = build_fn map_src 2 in
  Alcotest.(check int) "four parameters" 4
    (count_kind f (function Mir.Parameter _ -> true | _ -> false));
  Alcotest.(check bool) "has phis" true
    (count_kind f (function Mir.Phi _ -> true | _ -> false) > 0);
  Alcotest.(check int) "no OSR block" 0 (match f.Mir.osr_entry with Some _ -> 1 | None -> 0);
  (* Untagged parameters are boxed, so element access is generic. *)
  Alcotest.(check bool) "generic elem access" true
    (count_kind f (function Mir.Elem_generic _ -> true | _ -> false) > 0)

let test_tagged_build_uses_guards () =
  let tags = Value.[| Some Tag_array; Some Tag_int; Some Tag_int; Some Tag_function |] in
  let _, f = build_fn ~arg_tags:tags map_src 2 in
  Alcotest.(check int) "one barrier per tagged arg" 4
    (count_kind f (function Mir.Type_barrier _ -> true | _ -> false));
  Alcotest.(check bool) "guarded fast-path loads" true
    (count_kind f (function Mir.Load_elem _ -> true | _ -> false) > 0);
  Alcotest.(check bool) "bounds checks present" true
    (count_kind f (function Mir.Bounds_check _ -> true | _ -> false) > 0)

let test_specialized_build_constants () =
  let _, f = build_fn ~key:(Spec_key.Key_values (spec_args_for_map (), None)) map_src 2 in
  Alcotest.(check int) "no parameters remain" 0
    (count_kind f (function Mir.Parameter _ -> true | _ -> false));
  Alcotest.(check int) "no type barriers" 0
    (count_kind f (function Mir.Type_barrier _ -> true | _ -> false));
  (* The callee flows through the loop phi at build time; after GVN's phi
     simplification the call site sees the constant closure and becomes a
     direct call. *)
  ignore (Gvn.run f);
  Verify.run f;
  let direct = ref false in
  Mir.iter_instrs f (fun i ->
      match i.Mir.kind with
      | Mir.Call (callee, _) | Mir.Call_known (_, callee, _) -> (
        match (Mir.instr f callee).Mir.kind with
        | Mir.Constant (Value.Closure _) -> direct := true
        | _ -> ())
      | _ -> ());
  Alcotest.(check bool) "call through constant closure after GVN" true !direct

let test_osr_block_shape () =
  let spec = spec_args_for_map () in
  let osr =
    { Builder.osr_pc = 2; osr_args = spec; osr_locals = [| Value.Int 2 |]; osr_bake_locals = true }
  in
  let _, f = build_fn ~key:(Spec_key.Key_values (spec, None)) ~osr map_src 2 in
  match f.Mir.osr_entry with
  | None -> Alcotest.fail "expected an OSR entry"
  | Some ob ->
    let b = Mir.block f ob in
    Alcotest.(check int) "osr block defines args+locals" 5 (List.length b.Mir.body);
    Alcotest.(check bool) "all specialized to constants" true
      (List.for_all
         (fun (i : Mir.instr) ->
           match i.Mir.kind with Mir.Constant _ -> true | _ -> false)
         b.Mir.body)

let test_osr_generic_is_typed () =
  let osr =
    {
      Builder.osr_pc = 2;
      osr_args = spec_args_for_map ();
      osr_locals = [| Value.Int 2 |];
      osr_bake_locals = true;
    }
  in
  let _, f = build_fn ~osr map_src 2 in
  match f.Mir.osr_entry with
  | None -> Alcotest.fail "expected an OSR entry"
  | Some ob ->
    let b = Mir.block f ob in
    let tys = List.map (fun (i : Mir.instr) -> i.Mir.ty) b.Mir.body in
    Alcotest.(check bool) "osr loads typed from the frame" true
      (List.mem Mir.Ty_array tys && List.mem Mir.Ty_int32 tys)

let test_typer_types_loop_counter () =
  let src = "function f(n) { var t = 0; for (var i = 0; i < n; i++) t += i; return t; }" in
  let program = Bytecode.Compile.program_of_source src in
  let func = program.Bytecode.Program.funcs.(1) in
  let f = Builder.build ~program ~func ~key:(Spec_key.Key_values ([| Value.Int 100 |], None)) () in
  Typer.run f;
  Verify.run f;
  let checked_int_adds =
    count_kind f (function Mir.Binop (Ops.Add, _, _, Mir.Mode_int) -> true | _ -> false)
  in
  Alcotest.(check bool) "loop arithmetic runs on the int32 fast path" true
    (checked_int_adds >= 2)

let test_dominators () =
  let _, f = build_fn map_src 2 in
  let doms = Cfg.dominators f in
  List.iter
    (fun bid ->
      Alcotest.(check bool) "entry dominates everything" true
        (Cfg.dominates doms f.Mir.entry bid);
      Alcotest.(check bool) "reflexive" true (Cfg.dominates doms bid bid))
    (Mir.reverse_postorder f)

let test_natural_loops () =
  let _, f = build_fn map_src 2 in
  let loops = Cfg.natural_loops f (Cfg.dominators f) in
  Alcotest.(check int) "one loop" 1 (List.length loops);
  let loop = List.hd loops in
  Alcotest.(check int) "single latch" 1 (List.length loop.Cfg.latches);
  Alcotest.(check bool) "header in body" true (List.mem loop.Cfg.header loop.Cfg.body)

let test_nested_loops () =
  let src =
    "function f(n) { var t = 0; for (var i = 0; i < n; i++) { for (var j = 0; j < i; j++) t++; } return t; }"
  in
  let _, f = build_fn src 1 in
  let loops = Cfg.natural_loops f (Cfg.dominators f) in
  Alcotest.(check int) "two loops" 2 (List.length loops);
  match loops with
  | [ outer; inner ] ->
    Alcotest.(check bool) "outer contains inner header" true
      (List.mem inner.Cfg.header outer.Cfg.body)
  | _ -> Alcotest.fail "expected ordered loops"

let only_loop f =
  match Cfg.natural_loops f (Cfg.dominators f) with
  | [ loop ] -> loop
  | loops -> Alcotest.failf "expected one loop, got %d" (List.length loops)

let counted_src =
  "function f(n) { var t = 0; for (var i = 0; i < n; i += 2) t += i; return t; }"

let test_while_shape () =
  let _, f = build_fn counted_src 1 in
  let loop = only_loop f in
  let header = Mir.block f loop.Cfg.header in
  match Cfg.while_shape f loop with
  | None -> Alcotest.fail "a for loop is while-shaped"
  | Some w ->
    Alcotest.(check bool) "preheader outside" false (Cfg.in_loop loop w.Cfg.pre);
    Alcotest.(check int) "preheader's pred index" w.Cfg.pre
      (List.nth header.Mir.preds w.Cfg.i_pre);
    Alcotest.(check (list int)) "the only latch" loop.Cfg.latches [ w.Cfg.latch ];
    Alcotest.(check bool) "body entry inside" true (Cfg.in_loop loop w.Cfg.body_entry);
    Alcotest.(check bool) "exit outside" false (Cfg.in_loop loop w.Cfg.exit);
    Alcotest.(check bool) "i < n stays on true" true w.Cfg.stays_on_true;
    Alcotest.(check bool) "header branch" true
      (header.Mir.term = Mir.Branch (w.Cfg.test, w.Cfg.body_entry, w.Cfg.exit));
    (match Cfg.inductions f loop ~i_pre:w.Cfg.i_pre with
    | [ iv ] ->
      Alcotest.(check (pair int int)) "i = 0, i += 2" (0, 2) (iv.Cfg.init, iv.Cfg.stride);
      Alcotest.(check bool) "latch operand is i + 2" true
        (match (Mir.instr f iv.Cfg.next).Mir.kind with
        | Mir.Binop (Ops.Add, _, _, _) -> true
        | _ -> false)
    | ivs -> Alcotest.failf "expected one induction (t is not), got %d" (List.length ivs));
    (* Inverted, the loop is bottom-tested and no longer matches. *)
    Alcotest.(check int) "inverted" 1 (Loop_inversion.run f);
    Alcotest.(check bool) "inverted loop" true (Cfg.while_shape f (only_loop f) = None)

let test_while_shape_two_latches () =
  let src =
    "function f(n) { var t = 0, i = 0; while (i < n) { i++; if (i == 3) continue; t++; } \
     return t; }"
  in
  let _, f = build_fn src 1 in
  let loop = only_loop f in
  Alcotest.(check int) "two latches" 2 (List.length loop.Cfg.latches);
  Alcotest.(check bool) "not while-shaped" true (Cfg.while_shape f loop = None)

let test_verifier_catches_bad_phi () =
  let _, f = build_fn map_src 2 in
  (* Corrupt a phi: drop one operand. *)
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
  match Verify.run f with
  | exception Diag.Failed _ -> ()
  | () -> Alcotest.fail "verifier accepted a corrupted graph"

let test_verifier_catches_missing_rp () =
  let _, f = build_fn ~arg_tags:Value.[| Some Tag_array; None; None; None |] map_src 2 in
  let stripped = ref false in
  Mir.iter_instrs f (fun i ->
      if (not !stripped) && Mir.is_guard i.Mir.kind then begin
        i.Mir.rp <- None;
        stripped := true
      end);
  Alcotest.(check bool) "did strip" true !stripped;
  match Verify.run f with
  | exception Diag.Failed _ -> ()
  | () -> Alcotest.fail "verifier accepted guard without resume point"

let test_resume_points_recorded () =
  let _, f = build_fn ~arg_tags:Value.[| Some Tag_array; Some Tag_int; Some Tag_int; Some Tag_function |] map_src 2 in
  Mir.iter_instrs f (fun i ->
      if Mir.is_guard i.Mir.kind then
        match i.Mir.rp with
        | None -> Alcotest.fail "guard without rp"
        | Some rp ->
          Alcotest.(check int) "args tracked" 4 (Array.length rp.Mir.rp_args);
          Alcotest.(check int) "locals tracked" 1 (Array.length rp.Mir.rp_locals))

(* Structural property: for every function of every suite member, the
   builder produces verifiable graphs in generic mode, tagged mode, and
   with an OSR entry at every loop head. *)
let test_build_all_suite_functions_all_modes () =
  List.iter
    (fun (suite : Suite.t) ->
      List.iter
        (fun (m : Suite.member) ->
          let program = Bytecode.Compile.program_of_source m.Suite.m_source in
          Array.iter
            (fun (func : Bytecode.Program.func) ->
              let check f =
                Typer.run f;
                Verify.run f
              in
              check (Builder.build ~program ~func ());
              (* Worst-case tags: everything observed as Int. *)
              let tags = Array.make func.Bytecode.Program.arity (Some Value.Tag_int) in
              check (Builder.build ~program ~func ~arg_tags:tags ());
              (* OSR at every loop head, generic state. *)
              Array.iteri
                (fun pc instr ->
                  match instr with
                  | Bytecode.Instr.Loop_head _ ->
                    let osr =
                      {
                        Builder.osr_pc = pc;
                        osr_args =
                          Array.make func.Bytecode.Program.arity (Value.Int 1);
                        osr_locals =
                          Array.make func.Bytecode.Program.nlocals Value.Undefined;
                        osr_bake_locals = true;
                      }
                    in
                    check (Builder.build ~program ~func ~osr ())
                  | _ -> ())
                func.Bytecode.Program.code)
            program.Bytecode.Program.funcs)
        suite.Suite.members)
    Suites.all

let suites =
  [
    ( "mir.builder",
      [
        Alcotest.test_case "generic build" `Quick test_generic_build_shape;
        Alcotest.test_case "type-tagged build" `Quick test_tagged_build_uses_guards;
        Alcotest.test_case "specialized build" `Quick test_specialized_build_constants;
        Alcotest.test_case "OSR block specialized" `Quick test_osr_block_shape;
        Alcotest.test_case "OSR block typed (generic)" `Quick test_osr_generic_is_typed;
        Alcotest.test_case "resume points" `Quick test_resume_points_recorded;
      ] );
    ( "mir.typer",
      [ Alcotest.test_case "loop counter typed int32" `Quick test_typer_types_loop_counter ]
    );
    ( "mir.cfg",
      [
        Alcotest.test_case "dominators" `Quick test_dominators;
        Alcotest.test_case "natural loops" `Quick test_natural_loops;
        Alcotest.test_case "nested loops" `Quick test_nested_loops;
        Alcotest.test_case "while shape and inductions" `Quick test_while_shape;
        Alcotest.test_case "two latches are not while-shaped" `Quick
          test_while_shape_two_latches;
      ] );
    ( "mir.structural",
      [
        Alcotest.test_case "all suite functions, all modes, all OSR points" `Slow
          test_build_all_suite_functions_all_modes;
      ] );
    ( "mir.verify",
      [
        Alcotest.test_case "catches phi arity" `Quick test_verifier_catches_bad_phi;
        Alcotest.test_case "catches missing rp" `Quick test_verifier_catches_missing_rp;
      ] );
  ]
