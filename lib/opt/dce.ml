open Runtime

type stats = { branches_folded : int; blocks_removed : int; instrs_removed : int }

(* Evaluate a branch condition whose inputs are compile-time constants.
   The paper runs DCE after constant propagation "to give instruction
   folding the chance to transform conditional branches into simple boolean
   values"; loop inversion can create fresh comparisons of constants after
   constprop already ran, so this folds one level of Cmp/Not/ToBool too. *)
let rec const_bool (f : Mir.func) depth d =
  if depth > 4 then None
  else
    let const x =
      match (Mir.instr f x).Mir.kind with
      | Mir.Constant v -> Some v
      | _ -> None
    in
    match (Mir.instr f d).Mir.kind with
    | Mir.Constant v -> Some (Convert.to_boolean v)
    | Mir.Cmp (op, a, b) -> (
      match (const a, const b) with
      | Some va, Some vb -> Some (Convert.to_boolean (Ops.cmp op va vb))
      | _ -> None)
    | Mir.Unop (Ops.Not, a) -> Option.map not (const_bool f (depth + 1) a)
    | Mir.To_bool a -> const_bool f (depth + 1) a
    | _ -> None

let fold_branches (f : Mir.func) =
  let folded = ref 0 in
  List.iter
    (fun bid ->
      let b = Mir.block f bid in
      match b.Mir.term with
      | Mir.Branch (c, t_then, t_else) -> (
        match const_bool f 0 c with
        | Some taken ->
          b.Mir.term <- Mir.Goto (if taken then t_then else t_else);
          incr folded
        | None -> ())
      | Mir.Goto _ | Mir.Return _ | Mir.Unreachable -> ())
    f.Mir.block_order;
  !folded

let remove_unreachable (f : Mir.func) =
  let before = List.length f.Mir.block_order in
  Mir.prune_unreachable f;
  (* Phis of blocks left with a single predecessor degenerate to copies. *)
  let subst = Hashtbl.create 16 in
  List.iter
    (fun bid ->
      let b = Mir.block f bid in
      if List.length b.Mir.preds <= 1 then begin
        List.iter
          (fun (phi : Mir.instr) ->
            match phi.Mir.kind with
            | Mir.Phi [| op |] -> Hashtbl.replace subst phi.Mir.def op
            | Mir.Phi [||] -> ()  (* entry-side degenerate; leave *)
            | _ -> ())
          b.Mir.phis;
        b.Mir.phis <-
          List.filter
            (fun (phi : Mir.instr) -> not (Hashtbl.mem subst phi.Mir.def))
            b.Mir.phis
      end)
    f.Mir.block_order;
  if Hashtbl.length subst > 0 then begin
    (* Resolve chains of single-operand phis. *)
    let rec resolve_fuel fuel d =
      if fuel = 0 then d
      else
        match Hashtbl.find_opt subst d with
        | Some d' when d' <> d -> resolve_fuel (fuel - 1) d'
        | _ -> d
    in
    let resolve d = resolve_fuel 64 d in
    Mir.substitute f resolve
  end;
  before - List.length f.Mir.block_order

(* Liveness over defs: roots are side effects, guards, checked arithmetic
   and terminator operands; resume points of live instructions keep their
   snapshot values alive. *)
let remove_dead_instrs (f : Mir.func) =
  let live = Hashtbl.create 64 in
  let worklist = Queue.create () in
  let mark d =
    if not (Hashtbl.mem live d) then begin
      Hashtbl.replace live d true;
      Queue.add d worklist
    end
  in
  let is_root (i : Mir.instr) =
    Mir.has_side_effect i.Mir.kind || Mir.is_guard i.Mir.kind
    || (match i.Mir.kind with
       | Mir.Binop (_, _, _, Mir.Mode_int) -> true  (* can bail: observable *)
       | _ -> false)
  in
  let mark_rp (i : Mir.instr) =
    match i.Mir.rp with
    | None -> ()
    | Some rp ->
      Array.iter mark rp.Mir.rp_args;
      Array.iter mark rp.Mir.rp_locals;
      List.iter mark rp.Mir.rp_stack
  in
  List.iter
    (fun bid ->
      let b = Mir.block f bid in
      List.iter
        (fun (i : Mir.instr) ->
          if is_root i then begin
            mark i.Mir.def;
            mark_rp i
          end)
        b.Mir.body;
      match b.Mir.term with
      | Mir.Branch (c, _, _) -> mark c
      | Mir.Return d -> mark d
      | Mir.Goto _ | Mir.Unreachable -> ())
    f.Mir.block_order;
  while not (Queue.is_empty worklist) do
    let d = Queue.pop worklist in
    match Mir.find_instr f d with
    | None -> ()
    | Some instr ->
      List.iter mark (Mir.instr_operands instr.Mir.kind);
      mark_rp instr
  done;
  let removed = ref 0 in
  List.iter
    (fun bid ->
      let b = Mir.block f bid in
      let keep (i : Mir.instr) =
        Hashtbl.mem live i.Mir.def
        || not (Mir.is_removable_if_unused i.Mir.kind)
      in
      let filter instrs =
        List.filter
          (fun i ->
            let k = keep i in
            if not k then incr removed;
            k)
          instrs
      in
      b.Mir.phis <- filter b.Mir.phis;
      b.Mir.body <- filter b.Mir.body)
    f.Mir.block_order;
  !removed

let run f =
  let branches_folded = fold_branches f in
  let blocks_removed = remove_unreachable f in
  let instrs_removed = remove_dead_instrs f in
  { branches_folded; blocks_removed; instrs_removed }
