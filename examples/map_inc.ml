(* The paper's Section 3 running example, replayed pass by pass.

   Prints the MIR of `map` exactly along the progression of Figures 6-8:
   the generic graph, parameter specialization (7a), constant propagation
   (7b), loop inversion (7c), dead-code elimination (8a), bounds-check
   elimination (8b, with the ablation that lifts the store-conservative
   rule so the elimination actually fires, as in the figure), and closure
   inlining (8c). Finally the native code that the backend emits.

     dune exec examples/map_inc.exe *)

open Runtime

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

let section title = Printf.printf "\n=== %s ===\n" title

let () =
  let program = Bytecode.Compile.program_of_source source in
  let map_fn =
    Array.to_list program.Bytecode.Program.funcs
    |> List.find (fun (f : Bytecode.Program.func) -> f.Bytecode.Program.name = "map")
  in
  let inc_fn =
    Array.to_list program.Bytecode.Program.funcs
    |> List.find (fun (f : Bytecode.Program.func) -> f.Bytecode.Program.name = "inc")
  in
  (* The runtime values of the call in the driver: the array 0xFF3D8800 of
     the paper becomes an actual OCaml-heap array baked by identity. *)
  let arr = Value.Arr (Value.arr_of_list (List.init 5 (fun i -> Value.Int (i + 1)))) in
  let inc_closure =
    Value.Closure { Value.fid = inc_fn.Bytecode.Program.fid; env = [||]; cid = Value.fresh_id () }
  in
  let spec_args = [| arr; Value.Int 2; Value.Int 5; inc_closure |] in

  section "Figure 6: the graph IonMonkey builds (with type feedback)";
  let tags = Value.[| Some Tag_array; Some Tag_int; Some Tag_int; Some Tag_function |] in
  let generic = Builder.build ~program ~func:map_fn ~arg_tags:tags () in
  Typer.run generic;
  print_string (Mir.to_string generic);

  section "Figure 7(a): parameter specialization (entry and OSR blocks)";
  let osr =
    {
      Builder.osr_pc = 2;
      osr_args = spec_args;
      osr_locals = [| Value.Int 2 |];
      osr_bake_locals = true;
    }
  in
  let key = Spec_key.Key_values (spec_args, None) in
  let f = Builder.build ~program ~func:map_fn ~key ~osr () in
  Typer.run f;
  print_string (Mir.to_string f);

  section "Figure 7(b): constant propagation";
  let folded = Constprop.run f in
  Printf.printf "(%d instructions folded)\n" folded;
  print_string (Mir.to_string f);

  section "Figure 7(c): loop inversion";
  ignore (Gvn.run f);
  let inverted = Loop_inversion.run f in
  Printf.printf "(%d loop inverted)\n" inverted;
  print_string (Mir.to_string f);

  section "Figure 8(a): dead-code elimination removes the wrapping conditional";
  let dce = Dce.run f in
  Printf.printf "(%d branches folded, %d blocks removed, %d instructions removed)\n"
    dce.Dce.branches_folded dce.Dce.blocks_removed dce.Dce.instrs_removed;
  print_string (Mir.to_string f);

  section "Figure 8(b): array-bounds-check elimination (precise-alias ablation)";
  let elided = Guard_elim.run ~precise_alias:true f in
  Printf.printf "(%d bounds checks removed)\n"
    (List.length (List.filter (fun (e : Mir.elision) -> e.Mir.el_kind = "bounds") elided));
  print_string (Mir.to_string f);

  section "Figure 8(c): the closure argument inlined";
  let inlined = Inline.run ~program f in
  Typer.run f;
  ignore (Gvn.run f);
  ignore (Constprop.run f);
  ignore (Dce.run f);
  Printf.printf "(%d call site inlined)\n" inlined;
  Verify.run f;
  print_string (Mir.to_string f);

  section "Native code (after lowering and linear-scan allocation)";
  let code, _ = Regalloc.run (Lower.run f) in
  print_string (Code.to_string code);

  section "And the program still runs";
  ignore (Engine.run_source (Engine.default_config ~opt:Pipeline.all_on ()) source)
