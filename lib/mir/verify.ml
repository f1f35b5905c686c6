(* MIR structural and type verifier.

   [run] checks the SSA graph invariants every pass must preserve: layout
   and def-table consistency, operand/resume-point dominance, phi arity,
   guard resume points, terminator targets and edge symmetry. [check_types]
   is the lint companion: it re-derives each instruction's type from its
   operands and rejects declared types that claim MORE than the operands
   support (a pass may leave a type imprecise, never wrong).

   Both raise [Diag.Failed] at the first violation, attributing it to the
   pipeline pass named by [?pass] — the sandwich mode in [Opt.Pipeline]
   threads the pass that just ran, so a corrupted graph is blamed on the
   pass that corrupted it rather than on whichever later pass trips over
   the damage. *)

open Runtime

let run ?pass (f : Mir.func) =
  let fail ?block ?value fmt =
    Diag.error ~layer:"mir" ?pass ~func:f.Mir.source.Bytecode.Program.name
      ~fid:f.Mir.source.Bytecode.Program.fid ?block ?value fmt
  in
  let reachable = Mir.reachable_blocks f in
  (* Layout sanity: every reachable block is laid out exactly once. *)
  let layout = Hashtbl.create 16 in
  List.iter
    (fun bid ->
      if Hashtbl.mem layout bid then fail ~block:bid "block B%d laid out twice" bid;
      Hashtbl.replace layout bid true;
      if not (Mir.has_block f bid) then
        fail ~block:bid "layout references missing B%d" bid)
    f.Mir.block_order;
  Hashtbl.iter
    (fun bid _ ->
      if not (Hashtbl.mem layout bid) then
        fail ~block:bid "reachable block B%d not in layout" bid)
    reachable;
  (* Def table consistency and operand dominance. Every laid-out
     instruction must be the record registered for its def (a hand-built
     copy that skipped [Mir.register] is not). A def must be PRESENT in
     some laid-out block, not merely remembered by the def table: passes
     that delete instructions leave their records behind, and a reference
     to one would read garbage at runtime. *)
  let doms = Cfg.dominators f in
  let present = Hashtbl.create 64 in
  List.iter
    (fun bid ->
      let b = Mir.block f bid in
      let note (i : Mir.instr) =
        (match Mir.find_instr f i.Mir.def with
        | Some r when r == i -> ()
        | _ ->
          fail ~block:bid ~value:i.Mir.def
            "v%d in B%d is not the instruction registered for its def" i.Mir.def bid);
        Hashtbl.replace present i.Mir.def bid
      in
      List.iter note b.Mir.phis;
      List.iter note b.Mir.body)
    f.Mir.block_order;
  let block_of_def ?block d =
    match Hashtbl.find_opt present d with
    | Some b -> b
    | None ->
      if Mir.find_instr f d <> None then
        fail ?block ~value:d "v%d is referenced but its instruction was deleted" d
      else fail ?block ~value:d "v%d has no defining block" d
  in
  let check_defined ?block d = ignore (block_of_def ?block d) in
  (* Constants are location-independent: lowering turns every reference
     into an immediate, so ordering/dominance does not apply to them. *)
  let is_constant d =
    match Mir.find_instr f d with
    | Some { Mir.kind = Mir.Constant _; _ } -> true
    | _ -> false
  in
  List.iter
    (fun bid ->
      if Hashtbl.mem reachable bid then begin
        let b = Mir.block f bid in
        if List.length b.Mir.preds > 0 then
          List.iter
            (fun p ->
              if not (Hashtbl.mem reachable p) then
                fail ~block:bid "B%d has unreachable pred B%d" bid p)
            b.Mir.preds;
        (* Phis: operand count matches preds; operands defined somewhere. *)
        List.iter
          (fun (phi : Mir.instr) ->
            match phi.Mir.kind with
            | Mir.Phi ops ->
              if Array.length ops <> List.length b.Mir.preds then
                fail ~block:bid ~value:phi.Mir.def
                  "phi v%d in B%d has %d operands for %d preds" phi.Mir.def bid
                  (Array.length ops) (List.length b.Mir.preds);
              Array.iter (check_defined ~block:bid) ops
            | _ ->
              fail ~block:bid ~value:phi.Mir.def "non-phi v%d in phi section of B%d"
                phi.Mir.def bid)
          b.Mir.phis;
        (* Body: operands must dominate their uses. Instructions within a
           block must be defined earlier in that block. *)
        let seen = Hashtbl.create 16 in
        List.iter (fun (phi : Mir.instr) -> Hashtbl.replace seen phi.Mir.def true) b.Mir.phis;
        List.iter
          (fun (instr : Mir.instr) ->
            List.iter
              (fun op ->
                let ob = block_of_def ~block:bid op in
                if is_constant op then ()
                else if ob = bid then begin
                  if not (Hashtbl.mem seen op) then
                    fail ~block:bid ~value:instr.Mir.def
                      "v%d used before its definition in B%d (by v%d)" op bid
                      instr.Mir.def
                end
                else if Hashtbl.mem reachable ob && not (Cfg.dominates doms ob bid) then
                  fail ~block:bid ~value:instr.Mir.def
                    "operand v%d (B%d) does not dominate use v%d (B%d)" op ob
                    instr.Mir.def bid)
              (Mir.instr_operands instr.Mir.kind);
            (* Resume points must reference live, dominating values: a
               dangling snapshot would reconstruct a garbage frame. *)
            (match instr.Mir.rp with
            | None -> ()
            | Some rp ->
              let check_rp_ref op =
                let ob = block_of_def ~block:bid op in
                if is_constant op then ()
                else if ob = bid then begin
                  if not (Hashtbl.mem seen op) then
                    fail ~block:bid ~value:instr.Mir.def
                      "rp of v%d references v%d before its definition in B%d"
                      instr.Mir.def op bid
                end
                else if Hashtbl.mem reachable ob && not (Cfg.dominates doms ob bid) then
                  fail ~block:bid ~value:instr.Mir.def
                    "rp of v%d references v%d (B%d) which does not dominate B%d"
                    instr.Mir.def op ob bid
                else if not (Hashtbl.mem reachable ob) then
                  fail ~block:bid ~value:instr.Mir.def
                    "rp of v%d references v%d defined in unreachable B%d"
                    instr.Mir.def op ob
              in
              Array.iter check_rp_ref rp.Mir.rp_args;
              Array.iter check_rp_ref rp.Mir.rp_locals;
              List.iter check_rp_ref rp.Mir.rp_stack);
            (* Guards must be able to bail out. *)
            if Mir.is_guard instr.Mir.kind && instr.Mir.rp = None then
              fail ~block:bid ~value:instr.Mir.def "guard v%d in B%d has no resume point"
                instr.Mir.def bid;
            (match instr.Mir.kind with
            | Mir.Binop (_, _, _, Mir.Mode_int) when instr.Mir.rp = None ->
              fail ~block:bid ~value:instr.Mir.def
                "checked int binop v%d has no resume point" instr.Mir.def
            | _ -> ());
            Hashtbl.replace seen instr.Mir.def true)
          b.Mir.body;
        (* Terminator. *)
        (match b.Mir.term with
        | Mir.Goto t ->
          if not (Mir.has_block f t) then
            fail ~block:bid "B%d: goto missing B%d" bid t
        | Mir.Branch (c, t1, t2) ->
          check_defined ~block:bid c;
          if not (Mir.has_block f t1) then
            fail ~block:bid "B%d: branch missing B%d" bid t1;
          if not (Mir.has_block f t2) then
            fail ~block:bid "B%d: branch missing B%d" bid t2
        | Mir.Return d -> check_defined ~block:bid d
        | Mir.Unreachable -> ());
        (* Successor/pred symmetry. *)
        List.iter
          (fun s ->
            let sb = Mir.block f s in
            if not (List.mem bid sb.Mir.preds) then
              fail ~block:bid "B%d -> B%d edge missing from preds of B%d" bid s s)
          (Mir.successors b)
      end)
    f.Mir.block_order

(* ------------------------------------------------------------------ *)
(* Type-consistency lint                                               *)
(* ------------------------------------------------------------------ *)

(* [wide] may stand in for [narrow]: same type, fully boxed, or the numeric
   widening the typer's join performs (int32 -> double). *)
let ty_subsumes ~wide ~narrow =
  wide = narrow || wide = Mir.Ty_value
  || (wide = Mir.Ty_double && narrow = Mir.Ty_int32)

(* Typer-style join, for recomputing phi types (int32 u double = double,
   anything else mixed = boxed). *)
let ty_join a b =
  if a = b then a
  else
    match (a, b) with
    | Mir.Ty_int32, Mir.Ty_double | Mir.Ty_double, Mir.Ty_int32 -> Mir.Ty_double
    | _ -> Mir.Ty_value

(* Re-derive every instruction's type with an optimistic fixpoint (the
   typer's shape, but with [Mir.result_ty] as the transfer so committed
   arithmetic modes are taken at their word) and reject declared types
   that claim MORE than the re-derivation supports. A one-step local
   recomputation would be too strict: the typer's fixpoint legitimately
   assigns loop-carried phis types narrower than a single step can justify
   when a pass (e.g. loop inversion) has introduced Value-typed
   intermediates. [Parameter]/[Osr_value] are exempt: their types encode
   runtime profile knowledge (argument tags, the live OSR frame) that no
   recomputation can see. *)
let check_types ?pass (f : Mir.func) =
  let fail ?block ?value fmt =
    Diag.error ~layer:"mir" ?pass ~func:f.Mir.source.Bytecode.Program.name
      ~fid:f.Mir.source.Bytecode.Program.fid ?block ?value fmt
  in
  (* Optimistic inference: None is bottom (not yet computed). *)
  let state : (Mir.def, Mir.ty) Hashtbl.t = Hashtbl.create 64 in
  let lookup d = Hashtbl.find_opt state d in
  let transfer (i : Mir.instr) =
    match i.Mir.kind with
    | Mir.Parameter _ | Mir.Osr_value _ -> Some i.Mir.ty  (* fixed by the builder *)
    | Mir.Phi ops ->
      Array.fold_left
        (fun acc d ->
          match (acc, lookup d) with
          | None, x | x, None -> x
          | Some a, Some b -> Some (ty_join a b))
        None ops
    | kind ->
      let operands = Mir.instr_operands kind in
      if List.exists (fun d -> lookup d = None) operands then None
      else Some (Mir.result_ty (fun d -> Option.get (lookup d)) kind)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    Mir.iter_instrs f (fun i ->
        let fresh =
          match (lookup i.Mir.def, transfer i) with
          | x, None | None, x -> x
          | Some a, Some b -> Some (ty_join a b)
        in
        match fresh with
        | Some t when lookup i.Mir.def <> Some t ->
          Hashtbl.replace state i.Mir.def t;
          changed := true
        | _ -> ())
  done;
  (* Operand constraints are checked against the re-inferred types: passes
     (loop inversion in particular) clone instructions with conservative
     Ty_value declarations, but the committed mode is justified by what the
     operand provably IS, which the fixpoint recovers. Bottom (unreachable)
     operands are skipped. *)
  let inferred_is op pred = match lookup op with None -> true | Some t -> pred t in
  let check_instr bid (i : Mir.instr) =
    (* Bitwise operators coerce through to_int32 regardless of mode, so
       they put no constraint on operand types. *)
    (match i.Mir.kind with
    | Mir.Binop ((Ops.Add | Ops.Sub | Ops.Mul | Ops.Mod | Ops.Ushr), a, b, Mir.Mode_int_nocheck)
      ->
      (* nocheck = a range analysis proved int32 exactness, which is only
         meaningful if both operands are provably int32. *)
      List.iter
        (fun op ->
          if not (inferred_is op (fun t -> t = Mir.Ty_int32)) then
            fail ~block:bid ~value:i.Mir.def
              "unchecked int binop v%d has non-Int32 operand v%d: %s" i.Mir.def op
              (Mir.ty_to_string (Option.get (lookup op))))
        [ a; b ]
    | Mir.Binop ((Ops.Add | Ops.Sub | Ops.Mul | Ops.Mod | Ops.Div | Ops.Ushr), a, b, Mir.Mode_double)
      ->
      List.iter
        (fun op ->
          if not (inferred_is op Mir.is_numeric_ty) then
            fail ~block:bid ~value:i.Mir.def
              "double-mode binop v%d has non-numeric operand v%d: %s" i.Mir.def op
              (Mir.ty_to_string (Option.get (lookup op))))
        [ a; b ]
    | _ -> ());
    (* Declared vs re-derived result type. Bottom (never resolved, e.g. in
       unreachable code) is skipped: there is nothing to contradict. *)
    match i.Mir.kind with
    | Mir.Parameter _ | Mir.Osr_value _ -> ()
    | _ -> (
      match lookup i.Mir.def with
      | None -> ()
      | Some inferred ->
        if not (ty_subsumes ~wide:i.Mir.ty ~narrow:inferred) then
          fail ~block:bid ~value:i.Mir.def
            "v%d (%s) declares type %s but re-inference only supports %s" i.Mir.def
            (Mir.kind_to_string i.Mir.kind)
            (Mir.ty_to_string i.Mir.ty)
            (Mir.ty_to_string inferred))
  in
  List.iter
    (fun bid ->
      let b = Mir.block f bid in
      List.iter (check_instr bid) b.Mir.phis;
      List.iter (check_instr bid) b.Mir.body)
    f.Mir.block_order
