(* Rewrites a while-shaped loop

     PRE -> H;  H: phis + test; Branch(c, B, E);  ... LATCH -> Goto H

   into a repeat-shaped loop

     PRE: test(entry values); Branch(c0, B, E)      <- wrapping conditional
     B:   phis; body ... LATCH: test(latch values); Branch(c', B, E)
     E:   exit phis merging both paths

   The bytecode is left untouched, so resume points in the cloned test
   remain valid: a bailout re-enters the interpreter at the test's pc with
   the values of the corresponding path. *)

(* Build a def-to-def map for the header's own instructions along one path:
   phis map to the path's operand; chain instructions map to their clones. *)
let path_map phi_map chain_pairs d =
  match List.assoc_opt d phi_map with
  | Some d' -> d'
  | None -> (
    match List.assoc_opt d chain_pairs with Some d' -> d' | None -> d)

(* Where a block sits in the rewired graph, relative to the new header B
   and the exit E. *)
type place = Elsewhere | In_new_loop | After_exit

let invert (f : Mir.func) doms (loop : Cfg.loop) (w : Cfg.while_shape) =
  let header = Mir.block f loop.Cfg.header in
  let { Cfg.pre = pre_bid; i_pre; latch = latch_bid; test = cond; body_entry = body_bid;
        exit = exit_bid; stays_on_true = cond_sense } =
    w
  in
  let pre = Mir.block f pre_bid and latch = Mir.block f latch_bid in
  let i_latch = 1 - i_pre in
  (* Per-phi entry/latch operands. *)
  let phi_info =
    List.map
      (fun (phi : Mir.instr) ->
        match phi.Mir.kind with
        | Mir.Phi ops -> (phi, ops.(i_pre), ops.(i_latch))
        | _ -> assert false)
      header.Mir.phis
  in
  let entry_map = List.map (fun (p, e, _) -> (p.Mir.def, e)) phi_info in
  let latch_map = List.map (fun (p, _, l) -> (p.Mir.def, l)) phi_info in
  let chain = header.Mir.body in
  (* Clone the test into the preheader (wrapping conditional). *)
  let rec clone_seq base_map instrs acc =
    match instrs with
    | [] -> List.rev acc
    | (i : Mir.instr) :: rest ->
      let map = path_map base_map acc in
      let kind = Mir.map_operands map i.Mir.kind in
      let rp = Option.map (Mir.map_resume_point map) i.Mir.rp in
      let ni = Mir.make_instr f ?rp kind in
      clone_seq base_map rest ((i.Mir.def, ni.Mir.def) :: acc)
  in
  let pre_pairs = clone_seq entry_map chain [] in
  (* Constants are location-independent: the latch path reuses the
     preheader's clone (which dominates the whole loop) instead of
     duplicating it and merging the two copies through a phi. *)
  let const_defs =
    List.filter_map
      (fun (i : Mir.instr) ->
        match i.Mir.kind with Mir.Constant _ -> Some i.Mir.def | _ -> None)
      chain
  in
  let is_const d = List.mem d const_defs in
  let latch_pairs =
    let reused = List.filter (fun (d, _) -> is_const d) pre_pairs in
    clone_seq latch_map
      (List.filter
         (fun (i : Mir.instr) -> not (is_const i.Mir.def))
         chain)
      (List.rev reused)
  in
  let pre_clones =
    List.map (fun (_, nd) -> Mir.instr f nd) pre_pairs
  in
  let latch_clones =
    List.filter_map
      (fun (d, nd) ->
        if is_const d then None else Some (Mir.instr f nd))
      latch_pairs
  in
  pre.Mir.body <- pre.Mir.body @ pre_clones;
  latch.Mir.body <- latch.Mir.body @ latch_clones;
  let map_pre = path_map entry_map pre_pairs in
  let map_latch = path_map latch_map latch_pairs in
  let branch_of c_def =
    if cond_sense then Mir.Branch (c_def, body_bid, exit_bid)
    else Mir.Branch (c_def, exit_bid, body_bid)
  in
  pre.Mir.term <- branch_of (map_pre cond);
  latch.Mir.term <- branch_of (map_latch cond);
  (* The blocks the rewrite can touch, classified on the original
     graph. Header defs are used only where the header dominates
     (SSA), in phis on edges leaving that region, and in
     unreachable code; the preheader and exit are rewired below.
     Every other block neither uses a header def nor has one
     substituted, so the scans skip it. (Constants may be used
     anywhere; the exit-side scans add the blocks where that
     matters once the graph is rewired.) *)
  let header_bid = loop.Cfg.header in
  let in_subtree bid = Cfg.dominates doms header_bid bid in
  let touched = Array.make f.Mir.next_block false in
  List.iter
    (fun bid ->
      touched.(bid) <-
        bid <> header_bid
        && (bid = pre_bid || bid = exit_bid || in_subtree bid
           || (not (Cfg.reachable doms bid))
           || List.exists
                (fun p -> p = pre_bid || in_subtree p)
                (Mir.block f bid).Mir.preds))
    f.Mir.block_order;
  let header_defs = Hashtbl.create 16 in
  List.iter (fun (p, _, _) -> Hashtbl.replace header_defs p.Mir.def ()) phi_info;
  List.iter (fun (i : Mir.instr) -> Hashtbl.replace header_defs i.Mir.def ()) chain;
  let is_header_def d = Hashtbl.mem header_defs d in
  (* Which header defs are referenced anywhere beyond the header
     itself? Only those need merge phis; dead merge phis would
     otherwise occupy registers and edge moves every iteration. *)
  let used_beyond_header =
    let used = Hashtbl.create 16 in
    let note d = if is_header_def d then Hashtbl.replace used d () in
    List.iter
      (fun bid ->
        if touched.(bid) then begin
          let b = Mir.block f bid in
          List.iter (Mir.iter_uses note) b.Mir.phis;
          List.iter (Mir.iter_uses note) b.Mir.body;
          match b.Mir.term with
          | Mir.Branch (c, _, _) -> note c
          | Mir.Return d -> note d
          | Mir.Goto _ | Mir.Unreachable -> ()
        end)
      f.Mir.block_order;
    Hashtbl.mem used
  in
  (* New loop-header phis at B, merging preheader and latch paths. *)
  let body_blk = Mir.block f body_bid in
  body_blk.Mir.preds <- [ pre_bid; latch_bid ];
  let in_loop_subst = Hashtbl.create 16 in
  List.iter
    (fun (phi, e, l) ->
      if used_beyond_header phi.Mir.def then begin
        let q = Mir.append_phi f body_blk [| e; l |] in
        (Mir.instr f q).Mir.ty <- phi.Mir.ty;
        Hashtbl.replace in_loop_subst phi.Mir.def q
      end)
    phi_info;
  List.iter
    (fun (i : Mir.instr) ->
      if is_const i.Mir.def then
        (* Both paths see the preheader clone; no merge needed. *)
        Hashtbl.replace in_loop_subst i.Mir.def (map_pre i.Mir.def)
      else if used_beyond_header i.Mir.def then begin
        let pre_v = map_pre i.Mir.def and latch_v = map_latch i.Mir.def in
        let q = Mir.append_phi f body_blk [| pre_v; latch_v |] in
        (Mir.instr f q).Mir.ty <- i.Mir.ty;
        Hashtbl.replace in_loop_subst i.Mir.def q
      end)
    chain;
  (* A latch operand that is itself a header phi (an unmodified slot,
     l_j = p_j) must flow through the new B phi instead. *)
  List.iter
    (fun (phi : Mir.instr) ->
      match phi.Mir.kind with
      | Mir.Phi ops ->
        phi.Mir.kind <-
          Mir.Phi
            (Array.mapi
               (fun i op ->
                 if i = 1 then
                   Option.value (Hashtbl.find_opt in_loop_subst op) ~default:op
                 else op)
               ops)
      | _ -> ())
    body_blk.Mir.phis;
  (* Exit block: H's slot in its preds becomes PRE then LATCH. *)
  let exit_blk = Mir.block f exit_bid in
  let h_pos =
    let rec find i = function
      | [] -> -1
      | p :: rest -> if p = loop.Cfg.header then i else find (i + 1) rest
    in
    find 0 exit_blk.Mir.preds
  in
  assert (h_pos >= 0);
  exit_blk.Mir.preds <-
    List.concat_map
      (fun p -> if p = loop.Cfg.header then [ pre_bid; latch_bid ] else [ p ])
      exit_blk.Mir.preds;
  List.iter
    (fun (phi : Mir.instr) ->
      match phi.Mir.kind with
      | Mir.Phi ops ->
        let expanded =
          List.concat_map
            (fun (i, op) ->
              if i = h_pos then [ map_pre op; map_latch op ] else [ op ])
            (List.mapi (fun i op -> (i, op)) (Array.to_list ops))
        in
        phi.Mir.kind <- Mir.Phi (Array.of_list expanded)
      | _ -> ())
    exit_blk.Mir.phis;
  (* The old natural-loop membership is useless after rewiring
     (blocks that break straight to the exit were never in the
     natural loop); classify blocks by dominance in the REWIRED
     graph instead, once each: dominated by the new header B ->
     current iteration values; dominated by the exit E -> exit
     phis. A block is visited when it was touched or sits at or
     beyond the exit, or receives an edge from there. *)
  let doms_new = Cfg.dominators f in
  let place = Array.make f.Mir.next_block Elsewhere in
  List.iter
    (fun bid ->
      if bid <> exit_bid && Cfg.dominates doms_new body_bid bid then
        place.(bid) <- In_new_loop
      else if Cfg.dominates doms_new exit_bid bid then place.(bid) <- After_exit)
    f.Mir.block_order;
  let after_exit bid = place.(bid) = After_exit in
  let visit =
    List.filter
      (fun bid ->
        touched.(bid)
        || (bid <> header_bid
           && (after_exit bid || List.exists after_exit (Mir.block f bid).Mir.preds)))
      f.Mir.block_order
  in
  (* Header defs used at-or-beyond the exit get exit phis, created
     in first-use order along the layout (the table's iteration
     order below depends on it). *)
  let used_outside = Hashtbl.create 8 in
  let note op = if is_header_def op then Hashtbl.replace used_outside op true in
  List.iter
    (fun bid ->
      let b = Mir.block f bid in
      (* Phi operands flow from their PREDECESSOR: a header value
         reaching a later merge through an exit-side edge needs an
         exit phi even if the merge block itself is not dominated
         by the exit. (E's own phis are handled explicitly.) *)
      if bid <> exit_bid then
        List.iter
          (fun (phi : Mir.instr) ->
            match phi.Mir.kind with
            | Mir.Phi ops ->
              List.iteri
                (fun k p -> if k < Array.length ops && after_exit p then note ops.(k))
                b.Mir.preds
            | _ -> ())
          b.Mir.phis;
      if after_exit bid then begin
        List.iter (Mir.iter_uses note) b.Mir.body;
        match b.Mir.term with
        | Mir.Branch (c, _, _) -> note c
        | Mir.Return d -> note d
        | Mir.Goto _ | Mir.Unreachable -> ()
      end)
    visit;
  let outside_subst = Hashtbl.create 8 in
  Hashtbl.iter
    (fun d (_ : bool) ->
      if is_const d then Hashtbl.replace outside_subst d (map_pre d)
      else
      let ops =
        Array.of_list
          (List.map
             (fun p ->
               if p = pre_bid then map_pre d
               else if p = latch_bid then
                 (* The latch operand may itself be a header def (an
                    unmodified slot or a chain value); route it
                    through its in-loop version. *)
                 let x = map_latch d in
                 Option.value (Hashtbl.find_opt in_loop_subst x) ~default:x
               else Hashtbl.find in_loop_subst d  (* used => present *))
             exit_blk.Mir.preds)
      in
      let s = Mir.append_phi f exit_blk ops in
      Hashtbl.replace outside_subst d s)
    used_outside;
  (* Apply the substitutions: header defs inside the loop become the
     new B phis; at or beyond the exit they become the exit phis.
     Phi operands are substituted by the predecessor they flow
     from. *)
  let fresh_phis = Hashtbl.create 16 in
  List.iter
    (fun (i : Mir.instr) -> Hashtbl.replace fresh_phis i.Mir.def true)
    body_blk.Mir.phis;
  Hashtbl.iter (fun _ s -> Hashtbl.replace fresh_phis s true) outside_subst;
  let choose_for bid =
    if bid = pre_bid then map_pre
    else
      match place.(bid) with
      | In_new_loop -> fun d -> Option.value (Hashtbl.find_opt in_loop_subst d) ~default:d
      | After_exit -> fun d -> Option.value (Hashtbl.find_opt outside_subst d) ~default:d
      | Elsewhere -> Fun.id
  in
  let subst_block bid =
    let b = Mir.block f bid in
    let choose = choose_for bid in
    let apply (i : Mir.instr) =
      i.Mir.kind <- Mir.map_operands choose i.Mir.kind;
      i.Mir.rp <- Option.map (Mir.map_resume_point choose) i.Mir.rp
    in
    List.iter
      (fun (phi : Mir.instr) ->
        if not (Hashtbl.mem fresh_phis phi.Mir.def) then
          match phi.Mir.kind with
          | Mir.Phi ops ->
            let preds = Array.of_list b.Mir.preds in
            phi.Mir.kind <-
              Mir.Phi (Array.mapi (fun i op -> choose_for preds.(i) op) ops)
          | _ -> ())
      b.Mir.phis;
    List.iter apply b.Mir.body;
    b.Mir.term <- Mir.map_term ~def:choose b.Mir.term
  in
  List.iter subst_block visit;
  (* Retire the header. *)
  Mir.remove_blocks f [ loop.Cfg.header ];
  if f.Mir.osr_loop_header = Some loop.Cfg.header then
    f.Mir.osr_loop_header <- Some body_bid

(* The while shape, entered from a preheader that only jumps to the header,
   with a loop-body entry that is a plain block: when it is itself a join
   (e.g. an inner loop header starting the body), making it the new
   bottom-tested header would need a phi merge this transformation does not
   model. *)
let invert_one (f : Mir.func) doms (loop : Cfg.loop) =
  match Cfg.while_shape f loop with
  | Some w
    when Mir.successors (Mir.block f w.Cfg.pre) = [ loop.Cfg.header ]
         && (Mir.block f w.Cfg.body_entry).Mir.phis = []
         && List.length (Mir.block f w.Cfg.body_entry).Mir.preds = 1 ->
    invert f doms loop w;
    true
  | _ -> false

(* Inverted loops end with a conditional latch and no longer match the
   while shape, so the rounds terminate. *)
let run ?(max_loops = max_int) (f : Mir.func) =
  Cfg.rewrite_innermost ~limit:max_loops f (invert_one f)
