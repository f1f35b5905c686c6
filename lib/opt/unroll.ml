open Runtime

let strip_tonum (f : Mir.func) d =
  match (Mir.instr f d).Mir.kind with
  | Mir.Unop (Ops.To_number, x) -> x
  | _ -> d

let const_int (f : Mir.func) d =
  match (Mir.instr f d).Mir.kind with
  | Mir.Constant (Value.Int n) -> Some n
  | _ -> None

(* Statically evaluate the trip count of [for (i = c0; i OP k; i += c)]. *)
let trip_count ~max_trips op c0 k c =
  let holds i = match op with Ops.Lt -> i < k | Ops.Le -> i <= k | _ -> false in
  let rec go i n =
    if n > max_trips then None else if holds i then go (i + c) (n + 1) else Some n
  in
  go c0 0

type candidate = {
  loop : Cfg.loop;
  pre_bid : int;
  latch_bid : int;
  body_entry : int;
  exit_bid : int;
  trips : int;
  (* header phi def -> (entry operand, latch operand) *)
  phi_ops : (Mir.def * (Mir.def * Mir.def)) list;
}

(* The header may only compute the exit test: phis plus a pure comparison
   chain whose values nothing else uses. *)
let header_is_pure_test (f : Mir.func) (header : Mir.block) =
  let chain_defs =
    List.map (fun (i : Mir.instr) -> i.Mir.def) header.Mir.body
  in
  let ok_kind (i : Mir.instr) =
    match i.Mir.kind with
    | Mir.Constant _ | Mir.Cmp _ | Mir.To_bool _ | Mir.Unop (Ops.To_number, _) -> true
    | _ -> false
  in
  List.for_all ok_kind header.Mir.body
  &&
  (* Chain values must not escape the header. *)
  let escapes = ref false in
  List.iter
    (fun bid ->
      if bid <> header.Mir.bid then begin
        let b = Mir.block f bid in
        let scan (i : Mir.instr) =
          if List.exists (fun d -> List.mem d chain_defs) (Mir.instr_operands i.Mir.kind)
          then escapes := true;
          match i.Mir.rp with
          | None -> ()
          | Some rp ->
            let refs =
              Array.to_list rp.Mir.rp_args @ Array.to_list rp.Mir.rp_locals
              @ rp.Mir.rp_stack
            in
            if List.exists (fun d -> List.mem d chain_defs) refs then escapes := true
        in
        List.iter scan b.Mir.phis;
        List.iter scan b.Mir.body
      end)
    f.Mir.block_order;
  not !escapes

let find_candidate (f : Mir.func) ~max_trips ~max_copied_instrs (loop : Cfg.loop) =
  let header = Mir.block f loop.Cfg.header in
  let in_loop bid = List.mem bid loop.Cfg.body in
  match (loop.Cfg.latches, header.Mir.preds, header.Mir.term) with
  | [ latch_bid ], [ p1; p2 ], Mir.Branch (c, t1, t2)
    when latch_bid <> loop.Cfg.header
         && (Mir.block f latch_bid).Mir.term = Mir.Goto loop.Cfg.header -> (
    let pre_bid = if p1 = latch_bid then p2 else p1 in
    if in_loop pre_bid then None
    else
      let body_entry, exit_bid =
        if in_loop t1 && not (in_loop t2) then (t1, t2)
        else if in_loop t2 && not (in_loop t1) then (t2, t1)
        else (-1, -1)
      in
      let cond_ok =
        (* the in-loop side must be the true side of i < k / i <= k *)
        in_loop t1 && not (in_loop t2)
      in
      if body_entry = -1 || body_entry = loop.Cfg.header || not cond_ok then None
      else if (Mir.block f body_entry).Mir.phis <> [] then None
      else if not (header_is_pure_test f header) then None
      else
        (* No side exits: every non-header loop block stays inside. *)
        let no_side_exits =
          List.for_all
            (fun bid ->
              bid = loop.Cfg.header
              || List.for_all in_loop (Mir.successors (Mir.block f bid)))
            loop.Cfg.body
        in
        if not no_side_exits then None
        else
          let i_pre = if List.nth header.Mir.preds 0 = pre_bid then 0 else 1 in
          let phi_ops =
            List.filter_map
              (fun (phi : Mir.instr) ->
                match phi.Mir.kind with
                | Mir.Phi [| a; b |] ->
                  let e, l = if i_pre = 0 then (a, b) else (b, a) in
                  Some (phi.Mir.def, (e, l))
                | _ -> None)
              header.Mir.phis
          in
          if List.length phi_ops <> List.length header.Mir.phis then None
          else
            (* The controlling induction variable. *)
            match (Mir.instr f c).Mir.kind with
            | Mir.Cmp (op, x, kd) -> (
              let x = strip_tonum f x in
              match (List.assoc_opt x phi_ops, const_int f kd) with
              | Some (init, step), Some k -> (
                match
                  (const_int f init, (Mir.instr f step).Mir.kind)
                with
                | Some c0, Mir.Binop (Ops.Add, a, b, _) -> (
                  let a = strip_tonum f a and b = strip_tonum f b in
                  let cstep =
                    if a = x then const_int f b else if b = x then const_int f a else None
                  in
                  match cstep with
                  | Some cs when cs > 0 -> (
                    match trip_count ~max_trips op c0 k cs with
                    | Some trips ->
                      let body_instrs =
                        List.fold_left
                          (fun acc bid ->
                            if bid = loop.Cfg.header then acc
                            else
                              let b = Mir.block f bid in
                              acc + List.length b.Mir.phis + List.length b.Mir.body)
                          0 loop.Cfg.body
                      in
                      if body_instrs * trips > max_copied_instrs then None
                      else
                        Some
                          {
                            loop; pre_bid; latch_bid; body_entry; exit_bid; trips;
                            phi_ops;
                          }
                    | None -> None)
                  | _ -> None)
                | _ -> None)
              | _ -> None)
            | _ -> None)
  | _ -> None

(* Unroll one candidate. *)
let unroll_one (f : Mir.func) (c : candidate) =
  let body_bids = List.filter (fun b -> b <> c.loop.Cfg.header) c.loop.Cfg.body in
  let exit_blk = Mir.block f c.exit_bid in
  (* Per-iteration substitution for the header phis: iteration 1 sees the
     entry operands; iteration j+1 sees iteration j's latch values. *)
  let retarget_block from_bid to_bid (b : Mir.block) =
    b.Mir.term <-
      (match b.Mir.term with
      | Mir.Goto t -> Mir.Goto (if t = from_bid then to_bid else t)
      | Mir.Branch (cc, a, bb) ->
        Mir.Branch
          (cc, (if a = from_bid then to_bid else a), if bb = from_bid then to_bid else bb)
      | other -> other)
  in
  (* Copy the body once under [phi_subst]; returns (map of block ids,
     def map, latch copy id). *)
  let copy_body phi_subst =
    let block_map = Hashtbl.create 8 in
    List.iter
      (fun bid ->
        let nb = Mir.new_block f in
        Hashtbl.replace block_map bid nb.Mir.bid)
      body_bids;
    let map_block bid = Option.value (Hashtbl.find_opt block_map bid) ~default:bid in
    let def_map = Hashtbl.create 32 in
    (* Pre-assign fresh defs for every copied instruction. *)
    List.iter
      (fun bid ->
        let b = Mir.block f bid in
        let assign (i : Mir.instr) =
          Hashtbl.replace def_map i.Mir.def (Mir.fresh_def f)
        in
        List.iter assign b.Mir.phis;
        List.iter assign b.Mir.body)
      body_bids;
    let map d =
      match Hashtbl.find_opt def_map d with
      | Some d' -> d'
      | None -> Option.value (List.assoc_opt d phi_subst) ~default:d
    in
    List.iter
      (fun bid ->
        let b = Mir.block f bid in
        let nb = Mir.block f (map_block bid) in
        nb.Mir.preds <- List.map map_block b.Mir.preds;
        let copy (i : Mir.instr) =
          let nd = Hashtbl.find def_map i.Mir.def in
          let ni =
            {
              Mir.def = nd;
              kind = Mir.map_operands map i.Mir.kind;
              ty = i.Mir.ty;
              rp = Option.map (Mir.map_resume_point map) i.Mir.rp;
              (* unrolled copies keep the original iteration's provenance *)
              org = { i.Mir.org with Mir.o_def = nd };
            }
          in
          Mir.register f ni;
          ni
        in
        nb.Mir.phis <- List.map copy b.Mir.phis;
        nb.Mir.body <- List.map copy b.Mir.body;
        nb.Mir.term <-
          (match b.Mir.term with
          | Mir.Goto t -> Mir.Goto (map_block t)
          | Mir.Branch (cc, a, bb) -> Mir.Branch (map cc, map_block a, map_block bb)
          | Mir.Return d -> Mir.Return (map d)
          | Mir.Unreachable -> Mir.Unreachable))
      body_bids;
    (map_block, map)
  in
  (* Iterate: thread the phi values through the copies. *)
  let entry_values = List.map (fun (p, (e, _)) -> (p, e)) c.phi_ops in
  let pre = Mir.block f c.pre_bid in
  let prev_patch = ref (fun target -> retarget_block c.loop.Cfg.header target pre) in
  let prev_bid = ref c.pre_bid in
  let phi_subst = ref entry_values in
  for _j = 1 to c.trips do
    let map_block, map = copy_body !phi_subst in
    let entry_copy = map_block c.body_entry in
    !prev_patch entry_copy;
    (Mir.block f entry_copy).Mir.preds <- [ !prev_bid ];
    phi_subst := List.map (fun (p, (_, l)) -> (p, map l)) c.phi_ops;
    let latch_copy_bid = map_block c.latch_bid in
    let latch_copy = Mir.block f latch_copy_bid in
    prev_patch := (fun target -> retarget_block c.loop.Cfg.header target latch_copy);
    prev_bid := latch_copy_bid
  done;
  !prev_patch c.exit_bid;
  let exit_subst = !phi_subst in
  (* Exit block: its H predecessor is now the last latch copy (or the
     preheader when the loop runs zero times); phi operands and later uses
     of header phis see the final values. *)
  exit_blk.Mir.preds <-
    List.map (fun p -> if p = c.loop.Cfg.header then !prev_bid else p) exit_blk.Mir.preds;
  let subst d = Option.value (List.assoc_opt d exit_subst) ~default:d in
  (* Retire the original loop blocks before the global substitution so the
     stale uses inside them do not matter. *)
  Mir.remove_blocks f c.loop.Cfg.body;
  Mir.substitute f subst

let run ?(max_trips = 8) ?(max_copied_instrs = 256) (f : Mir.func) =
  let unrolled = ref 0 in
  let continue_ = ref true in
  (* One loop per round: the transformation invalidates the loop forest. *)
  while !continue_ do
    continue_ := false;
    let doms = Cfg.dominators f in
    let loops = Cfg.natural_loops f doms in
    (* Innermost (smallest) first. *)
    let loops = List.rev loops in
    match List.find_map (find_candidate f ~max_trips ~max_copied_instrs) loops with
    | Some candidate ->
      unroll_one f candidate;
      incr unrolled;
      continue_ := !unrolled < 8
    | None -> ()
  done;
  !unrolled
