open Runtime

(* Can this function body be spliced into another frame? It must not need
   its own activation state beyond arguments: no cells (captured locals),
   no closure creation, and no OSR machinery (never present in callee
   builds). *)
let inlinable (func : Bytecode.Program.func) ~max_size =
  func.Bytecode.Program.ncells = 0
  && Array.length func.Bytecode.Program.code <= max_size
  && Array.for_all
       (function Bytecode.Instr.Make_closure _ -> false | _ -> true)
       func.Bytecode.Program.code

(* Remap one callee instruction kind into the caller's def space. Upvalue
   accesses become direct cell loads through the constant closure's
   environment. *)
let remap_kind env map (kind : Mir.instr_kind) =
  match Mir.map_operands map kind with
  | Mir.Get_upval i -> Mir.Load_captured env.(i)
  | Mir.Set_upval (i, v) -> Mir.Store_captured (env.(i), v)
  | other -> other

let inline_site (caller : Mir.func) ~program ~site_block ~(site : Mir.instr)
    ~(closure : Value.closure) =
  let callee_func = program.Bytecode.Program.funcs.(closure.Value.fid) in
  let args =
    match site.Mir.kind with
    | Mir.Call_known (_, _, args) | Mir.Call (_, args) -> args
    | _ -> assert false
  in
  (* Build the callee graph generically: no spec, no tags, no OSR, and no
     guards (inlined code has no resume points to bail through). *)
  let callee = Builder.build ~program ~func:callee_func ~emit_guards:false () in
  (* Fresh blocks in the caller for every callee block. *)
  let block_map = Hashtbl.create 16 in
  List.iter
    (fun bid ->
      let nb = Mir.new_block caller in
      Hashtbl.replace block_map bid nb.Mir.bid)
    callee.Mir.block_order;
  let map_block bid = Hashtbl.find block_map bid in
  (* Def mapping: parameters alias the call arguments (padded with
     undefined); everything else gets a fresh def as we copy. *)
  let def_map : (Mir.def, Mir.def) Hashtbl.t = Hashtbl.create 64 in
  let b_site = Mir.block caller site_block in
  let undef_def = lazy (Mir.append caller b_site (Mir.Constant Value.Undefined)) in
  let arg_def i = if i < Array.length args then args.(i) else Lazy.force undef_def in
  let map d = match Hashtbl.find_opt def_map d with Some d' -> d' | None -> d in
  (* Split the site block: everything after the call moves to a
     continuation block. *)
  let cont = Mir.new_block caller in
  let rec split before = function
    | [] -> assert false
    | (i : Mir.instr) :: rest ->
      if i.Mir.def = site.Mir.def then (List.rev before, rest)
      else split (i :: before) rest
  in
  let before, after = split [] b_site.Mir.body in
  cont.Mir.body <- after;
  cont.Mir.term <- b_site.Mir.term;
  (* Successors of the old site block now hail from the continuation. *)
  List.iter
    (fun succ ->
      let sb = Mir.block caller succ in
      sb.Mir.preds <-
        List.map (fun p -> if p = site_block then cont.Mir.bid else p) sb.Mir.preds)
    (Mir.successors cont);
  b_site.Mir.body <- before;
  (* Copy callee blocks. Return terminators route to the continuation. *)
  let returns = ref [] in
  (* Pre-assign the caller-side def of every callee instruction, so that
     operand references resolve regardless of block iteration order. *)
  Mir.iter_instrs callee (fun (i : Mir.instr) ->
      match i.Mir.kind with
      | Mir.Parameter k -> Hashtbl.replace def_map i.Mir.def (arg_def k)
      | _ -> Hashtbl.replace def_map i.Mir.def (Mir.fresh_def caller));
  List.iter
    (fun bid ->
      let cb = Mir.block callee bid in
      let nb = Mir.block caller (map_block bid) in
      nb.Mir.preds <- List.map map_block cb.Mir.preds;
      List.iter
        (fun (phi : Mir.instr) ->
          match phi.Mir.kind with
          | Mir.Phi ops ->
            let nd = Hashtbl.find def_map phi.Mir.def in
            let ni =
              {
                Mir.def = nd;
                kind = Mir.Phi (Array.map map ops);
                ty = phi.Mir.ty;
                rp = None;
                (* keep callee provenance (fid/pc) so inlined cycles are
                   attributed to the function they came from *)
                org = { phi.Mir.org with Mir.o_def = nd };
              }
            in
            nb.Mir.phis <- nb.Mir.phis @ [ ni ];
            Mir.register caller ni
          | _ -> assert false)
        cb.Mir.phis;
      List.iter
        (fun (i : Mir.instr) ->
          match i.Mir.kind with
          | Mir.Parameter _ -> ()  (* aliased to the argument *)
          | _ ->
            let kind = remap_kind closure.Value.env map i.Mir.kind in
            (* Checked int32 arithmetic needs a resume point to bail
               through, and the copy has none: demote to a guard-free
               mode (widening the declared result type to match). The
               typer re-commits the best modes afterwards. *)
            let kind, ty =
              match kind with
              | Mir.Binop (op, a, b, Mir.Mode_int) -> (
                match op with
                | Ops.Bit_and | Ops.Bit_or | Ops.Bit_xor | Ops.Shl | Ops.Shr ->
                  (Mir.Binop (op, a, b, Mir.Mode_int_nocheck), i.Mir.ty)
                | _ -> (Mir.Binop (op, a, b, Mir.Mode_generic), Mir.Ty_value))
              | k -> (k, i.Mir.ty)
            in
            let nd = Hashtbl.find def_map i.Mir.def in
            (* Inlined code carries no resume points (see interface). *)
            let ni =
              { Mir.def = nd; kind; ty; rp = None; org = { i.Mir.org with Mir.o_def = nd } }
            in
            nb.Mir.body <- nb.Mir.body @ [ ni ];
            Mir.register caller ni)
        cb.Mir.body;
      nb.Mir.term <-
        (match cb.Mir.term with
        | Mir.Goto t -> Mir.Goto (map_block t)
        | Mir.Branch (c, a, b) -> Mir.Branch (map c, map_block a, map_block b)
        | Mir.Return d ->
          returns := (nb.Mir.bid, map d) :: !returns;
          Mir.Goto cont.Mir.bid
        | Mir.Unreachable -> Mir.Unreachable))
    callee.Mir.block_order;
  (* Route the site block into the inlined entry. *)
  b_site.Mir.term <- Mir.Goto (map_block callee.Mir.entry);
  (Mir.block caller (map_block callee.Mir.entry)).Mir.preds <- [ site_block ];
  (* The call's result becomes a phi over the callee's returns. *)
  cont.Mir.preds <- List.map fst !returns;
  let result_def =
    match !returns with
    | [] ->
      (* Callee never returns normally (infinite loop); keep the graph
         well-formed with an undefined constant. *)
      Lazy.force undef_def
    | [ (_, d) ] -> d
    | multiple -> Mir.append_phi caller cont (Array.of_list (List.map snd multiple))
  in
  let subst d = if d = site.Mir.def then result_def else d in
  Mir.substitute caller subst

let run ~program ?(max_size = 60) ?(max_sites = 8) (caller : Mir.func) =
  let inlined = ref 0 in
  let rec round sites_done =
    if sites_done < max_sites then begin
      (* Find one inlinable site, transform, repeat (the transformation
         invalidates block iteration state, so one site at a time). *)
      let found = ref None in
      List.iter
        (fun bid ->
          if !found = None then
            let b = Mir.block caller bid in
            List.iter
              (fun (i : Mir.instr) ->
                if !found = None then
                  match i.Mir.kind with
                  | Mir.Call_known (_, callee_def, _) | Mir.Call (callee_def, _) -> (
                    match (Mir.instr caller callee_def).Mir.kind with
                    | Mir.Constant (Value.Closure c)
                      when inlinable program.Bytecode.Program.funcs.(c.Value.fid) ~max_size ->
                      found := Some (bid, i, c)
                    | _ -> ())
                  | _ -> ())
              b.Mir.body)
        caller.Mir.block_order;
      match !found with
      | Some (site_block, site, closure) ->
        inline_site caller ~program ~site_block ~site ~closure;
        incr inlined;
        round (sites_done + 1)
      | None -> ()
    end
  in
  round 0;
  !inlined
