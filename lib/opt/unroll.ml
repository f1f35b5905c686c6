open Runtime

(* Statically evaluate the trip count of [for (i = c0; i OP k; i += c)]. *)
let trip_count ~max_trips op c0 k c =
  let rec go holds i n =
    if n > max_trips then None else if holds i then go holds (i + c) (n + 1) else Some n
  in
  match op with
  | Ops.Lt -> go (fun i -> i < k) c0 0
  | Ops.Le -> go (fun i -> i <= k) c0 0
  | _ -> None

type candidate = { loop : Cfg.loop; w : Cfg.while_shape; trips : int }

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

(* A while-shaped loop whose in-loop side is the true side of [i < k] or
   [i <= k] on an induction [i], with binary header phis, a pure test
   header and no side exits. *)
let find_candidate (f : Mir.func) ~max_trips ~max_copied_instrs (loop : Cfg.loop) =
  let header = Mir.block f loop.Cfg.header in
  let binary (phi : Mir.instr) =
    match phi.Mir.kind with Mir.Phi [| _; _ |] -> true | _ -> false
  in
  match Cfg.while_shape f loop with
  | Some w
    when w.Cfg.stays_on_true
         && (Mir.block f w.Cfg.body_entry).Mir.phis = []
         && List.for_all binary header.Mir.phis
         && header_is_pure_test f header
         (* No side exits: every non-header loop block stays inside. *)
         && List.for_all
              (fun bid ->
                bid = loop.Cfg.header
                || List.for_all (Cfg.in_loop loop) (Mir.successors (Mir.block f bid)))
              loop.Cfg.body -> (
    match (Mir.instr f w.Cfg.test).Mir.kind with
    | Mir.Cmp (op, x, k) -> (
      (* The controlling induction variable. *)
      let x = Mir.strip_to_number f x in
      let controls (iv : Cfg.induction) = iv.Cfg.phi = x in
      match
        (List.find_opt controls (Cfg.inductions f loop ~i_pre:w.Cfg.i_pre), Mir.const_int f k)
      with
      | Some iv, Some k -> (
        let body_instrs =
          List.fold_left
            (fun acc bid ->
              if bid = loop.Cfg.header then acc
              else
                let b = Mir.block f bid in
                acc + List.length b.Mir.phis + List.length b.Mir.body)
            0 loop.Cfg.body
        in
        match trip_count ~max_trips op iv.Cfg.init k iv.Cfg.stride with
        | Some trips when body_instrs * trips <= max_copied_instrs -> Some { loop; w; trips }
        | _ -> None)
      | _ -> None)
    | _ -> None)
  | _ -> None

(* Unroll one candidate. *)
let unroll_one (f : Mir.func) { loop; w; trips } =
  let header_bid = loop.Cfg.header in
  let body_bids = List.filter (fun b -> b <> header_bid) loop.Cfg.body in
  let exit_blk = Mir.block f w.Cfg.exit in
  (* header phi def -> (entry operand, latch operand) *)
  let phi_ops =
    List.map
      (fun (phi : Mir.instr) ->
        match phi.Mir.kind with
        | Mir.Phi ops -> (phi.Mir.def, (ops.(w.Cfg.i_pre), ops.(1 - w.Cfg.i_pre)))
        | _ -> assert false)
      (Mir.block f header_bid).Mir.phis
  in
  (* Copy the body once under [phi_subst]; returns the block and def
     maps. *)
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
        nb.Mir.term <- Mir.map_term ~def:map ~block:map_block b.Mir.term)
      body_bids;
    (map_block, map)
  in
  (* Iterate: thread the phi values through the copies. Each round
     redirects the previous block's edge into the header (the preheader's
     first, then each latch copy's) to the next copy. *)
  let prev_bid = ref w.Cfg.pre in
  let redirect target =
    let b = Mir.block f !prev_bid in
    b.Mir.term <- Mir.map_term ~block:(fun t -> if t = header_bid then target else t) b.Mir.term
  in
  (* Per-iteration substitution for the header phis: iteration 1 sees the
     entry operands; iteration j+1 sees iteration j's latch values. *)
  let phi_subst = ref (List.map (fun (p, (e, _)) -> (p, e)) phi_ops) in
  for _j = 1 to trips do
    let map_block, map = copy_body !phi_subst in
    let entry_copy = map_block w.Cfg.body_entry in
    redirect entry_copy;
    (Mir.block f entry_copy).Mir.preds <- [ !prev_bid ];
    phi_subst := List.map (fun (p, (_, l)) -> (p, map l)) phi_ops;
    prev_bid := map_block w.Cfg.latch
  done;
  redirect w.Cfg.exit;
  let exit_subst = !phi_subst in
  (* Exit block: its H predecessor is now the last latch copy (or the
     preheader when the loop runs zero times); phi operands and later uses
     of header phis see the final values. *)
  exit_blk.Mir.preds <-
    List.map (fun p -> if p = header_bid then !prev_bid else p) exit_blk.Mir.preds;
  let subst d = Option.value (List.assoc_opt d exit_subst) ~default:d in
  (* Retire the original loop blocks before the global substitution so the
     stale uses inside them do not matter. *)
  Mir.remove_blocks f loop.Cfg.body;
  Mir.substitute f subst

let run ?(max_trips = 8) ?(max_copied_instrs = 256) (f : Mir.func) =
  Cfg.rewrite_innermost ~limit:8 f (fun _ loop ->
      match find_candidate f ~max_trips ~max_copied_instrs loop with
      | Some candidate ->
        unroll_one f candidate;
        Cfg.Reshaped
      | None -> Cfg.Kept)
