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

(* Per-sweep state. [users.(d)] lists blocks that may use def [d]: built
   over the whole graph on the sweep's first inversion, then extended with
   every block an inversion rewrites, so an entry may be stale (the block
   no longer uses [d]) but none is missing; the scans read the blocks
   themselves. Defs made later are not indexed: a header inverted later in
   the sweep gains no instruction before its turn (it is no preheader,
   latch, body entry or exit of an inverted loop: the exit case leaves it
   three predecessors, so it is never inverted). [retired] marks the
   headers inverted so far, which stay in the graph until the sweep
   ends. *)
type uses = {
  users : int list array;
  pos : int array;  (* layout position *)
  retired : bool array;
  seen : int array;  (* [stamp] marks the blocks already collected *)
  mutable stamp : int;
}

let note_use u bid d =
  if d < Array.length u.users then
    match u.users.(d) with
    | b :: _ when b = bid -> ()
    | bids -> u.users.(d) <- bid :: bids

let note_uses u (b : Mir.block) =
  let add = note_use u b.Mir.bid in
  List.iter (Mir.iter_uses add) b.Mir.phis;
  List.iter (Mir.iter_uses add) b.Mir.body;
  match b.Mir.term with
  | Mir.Branch (c, _, _) -> add c
  | Mir.Return d -> add d
  | Mir.Goto _ | Mir.Unreachable -> ()

let index_uses (f : Mir.func) =
  let n = f.Mir.next_block in
  let u =
    {
      users = Array.make f.Mir.next_def [];
      pos = Array.make n 0;
      retired = Array.make n false;
      seen = Array.make n 0;
      stamp = 0;
    }
  in
  List.iteri (fun i bid -> u.pos.(bid) <- i) f.Mir.block_order;
  Mir.iter_blocks f (note_uses u);
  u

(* [extra] and the live blocks that may use one of [defs], other than
   [except], in layout order. *)
let blocks_using u ~except defs extra =
  u.stamp <- u.stamp + 1;
  let acc = ref [] in
  let add bid =
    if bid <> except && (not u.retired.(bid)) && u.seen.(bid) <> u.stamp then begin
      u.seen.(bid) <- u.stamp;
      acc := bid :: !acc
    end
  in
  List.iter add extra;
  List.iter (fun d -> List.iter add u.users.(d)) defs;
  List.sort (fun a b -> Int.compare u.pos.(a) u.pos.(b)) !acc

let invert (f : Mir.func) doms u (loop : Cfg.loop) (w : Cfg.while_shape) =
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
  (* The blocks the rewrite can touch: those that use a header def (only
     where the header dominates, in phis on edges leaving that region, in
     unreachable code, and constants anywhere), plus the preheader and
     latch, which now hold the clones, and the exit, rewired below. Every
     other block neither uses a header def nor has one substituted. *)
  let header_bid = loop.Cfg.header in
  let header_defs = Hashtbl.create 16 in
  List.iter (fun (p, _, _) -> Hashtbl.replace header_defs p.Mir.def ()) phi_info;
  List.iter (fun (i : Mir.instr) -> Hashtbl.replace header_defs i.Mir.def ()) chain;
  let is_header_def d = Hashtbl.mem header_defs d in
  let visit =
    blocks_using u ~except:header_bid
      (Hashtbl.fold (fun d () acc -> d :: acc) header_defs [])
      [ pre_bid; latch_bid; exit_bid ]
  in
  (* The old natural-loop membership is useless after rewiring
     (blocks that break straight to the exit were never in the
     natural loop); classify blocks by dominance in the REWIRED
     graph instead: dominated by the new header B -> current
     iteration values; dominated by the exit E -> exit phis. The
     rewiring contracts H into its predecessors, which leaves
     dominance among the other blocks as it was (Cfg.Contracted), so
     [doms] answers for the rewired graph too. *)
  let place bid =
    if bid <> exit_bid && Cfg.dominates doms body_bid bid then In_new_loop
    else if Cfg.dominates doms exit_bid bid then After_exit
    else Elsewhere
  in
  let after_exit bid = place bid = After_exit in
  (* One scan finds the header defs referenced anywhere beyond the
     header itself, which need merge phis (dead merge phis would
     otherwise occupy registers and edge moves every iteration), and
     those used at-or-beyond the exit, which get exit phis. The latter
     are created in first-use order along the layout (the table's
     iteration order below depends on it). *)
  let used = Hashtbl.create 16 and used_outside = Hashtbl.create 8 in
  let note d = if is_header_def d then Hashtbl.replace used d () in
  let note_outside d = if is_header_def d then Hashtbl.replace used_outside d true in
  List.iter
    (fun bid ->
      let b = Mir.block f bid in
      let beyond_exit = after_exit bid in
      List.iter
        (fun (phi : Mir.instr) ->
          Mir.iter_uses note phi;
          (* Phi operands flow from their PREDECESSOR: a header value
             reaching a later merge through an exit-side edge needs an
             exit phi even if the merge block itself is not dominated
             by the exit. (E's own phis are handled explicitly.) *)
          match phi.Mir.kind with
          | Mir.Phi ops when bid <> exit_bid ->
            List.iteri
              (fun k p -> if k < Array.length ops && after_exit p then note_outside ops.(k))
              b.Mir.preds
          | _ -> ())
        b.Mir.phis;
      let note_body d =
        note d;
        if beyond_exit then note_outside d
      in
      List.iter (Mir.iter_uses note_body) b.Mir.body;
      match b.Mir.term with
      | Mir.Branch (c, _, _) -> note_body c
      | Mir.Return d -> note_body d
      | Mir.Goto _ | Mir.Unreachable -> ())
    visit;
  let used_beyond_header = Hashtbl.mem used in
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
      match place bid with
      | In_new_loop -> fun d -> Option.value (Hashtbl.find_opt in_loop_subst d) ~default:d
      | After_exit -> fun d -> Option.value (Hashtbl.find_opt outside_subst d) ~default:d
      | Elsewhere -> Fun.id
  in
  (* Only header defs change, so an instruction that uses none is left
     alone. Every block that gains a use is noted in the index. *)
  let hit = ref false in
  let check d = if is_header_def d then hit := true in
  let uses_header (i : Mir.instr) =
    hit := false;
    Mir.iter_uses check i;
    !hit
  in
  let subst_block bid =
    let b = Mir.block f bid in
    let noted choose d =
      let d' = choose d in
      if d' <> d then note_use u bid d';
      d'
    in
    let choose = noted (choose_for bid) in
    let apply (i : Mir.instr) =
      if uses_header i then begin
        i.Mir.kind <- Mir.map_operands choose i.Mir.kind;
        i.Mir.rp <- Option.map (Mir.map_resume_point choose) i.Mir.rp
      end
    in
    List.iter
      (fun (phi : Mir.instr) ->
        if (not (Hashtbl.mem fresh_phis phi.Mir.def)) && uses_header phi then
          match phi.Mir.kind with
          | Mir.Phi ops ->
            let preds = Array.of_list b.Mir.preds in
            phi.Mir.kind <-
              Mir.Phi (Array.mapi (fun i op -> noted (choose_for preds.(i)) op) ops)
          | _ -> ())
      b.Mir.phis;
    List.iter apply b.Mir.body;
    match b.Mir.term with
    | (Mir.Branch (d, _, _) | Mir.Return d) when is_header_def d ->
      b.Mir.term <- Mir.map_term ~def:choose b.Mir.term
    | _ -> ()
  in
  List.iter subst_block visit;
  (* The new instructions' uses: the clones, B's phis and E's phis. *)
  List.iter (Mir.iter_uses (note_use u pre_bid)) pre_clones;
  List.iter (Mir.iter_uses (note_use u latch_bid)) latch_clones;
  List.iter (Mir.iter_uses (note_use u body_bid)) body_blk.Mir.phis;
  List.iter (Mir.iter_uses (note_use u exit_bid)) exit_blk.Mir.phis;
  (* Retire the header; [Cfg.rewrite_innermost] removes it from the graph. *)
  u.retired.(header_bid) <- true;
  if f.Mir.osr_loop_header = Some header_bid then f.Mir.osr_loop_header <- Some body_bid

(* The while shape, entered from a preheader that only jumps to the header,
   with a loop-body entry that is a plain block: when it is itself a join
   (e.g. an inner loop header starting the body), making it the new
   bottom-tested header would need a phi merge this transformation does not
   model. *)
let invert_one (f : Mir.func) doms uses (loop : Cfg.loop) =
  match Cfg.while_shape f loop with
  | Some w
    when Mir.successors (Mir.block f w.Cfg.pre) = [ loop.Cfg.header ]
         && (Mir.block f w.Cfg.body_entry).Mir.phis = []
         && List.length (Mir.block f w.Cfg.body_entry).Mir.preds = 1 ->
    invert f doms (Lazy.force uses) loop w;
    Cfg.Contracted
  | _ -> Cfg.Kept

(* Inverted loops end with a conditional latch and no longer match the
   while shape, so the sweeps terminate. The use index is built on a
   sweep's first inversion. *)
let run ?(max_loops = max_int) ?after (f : Mir.func) =
  Cfg.rewrite_innermost ~limit:max_loops ?after f (fun doms ->
      invert_one f doms (lazy (index_uses f)))
