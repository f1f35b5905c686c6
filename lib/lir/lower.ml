open Runtime

(* Items carry symbolic targets (chunk keys) until the final layout. *)
type item =
  | I_op of Code.instr
  | I_jump of int
  | I_branch of Code.src * int * int
  | I_ret of Code.src

let resolve_src (f : Mir.func) d : Code.src =
  match (Mir.instr f d).Mir.kind with
  | Mir.Constant v -> Code.Imm v
  | _ -> Code.L (Code.V d)

(* Sequentialize a parallel copy (all destinations distinct). Cycles are
   broken through a fresh virtual register. Each move carries the origin of
   the phi it implements, so edge-copy cycles are charged to their phi. *)
let sequentialize_moves (f : Mir.func) moves =
  let emitted = ref [] in
  let emit dst src org =
    emitted :=
      (I_op { Code.dst = Some dst; op = Code.Move; args = [| src |]; snap = None }, org)
      :: !emitted
  in
  let pending = ref moves in
  let reads_of src = match src with Code.L (Code.V d) -> Some d | _ -> None in
  while !pending <> [] do
    let read_by_pending d =
      List.exists (fun (_, s, _) -> reads_of s = Some d) !pending
    in
    match List.partition (fun (dst, _, _) -> not (read_by_pending dst)) !pending with
    | ready, rest when ready <> [] ->
      List.iter (fun (dst, src, org) -> emit (Code.V dst) src org) ready;
      pending := rest
    | _, (dst, src, org) :: rest ->
      (* Cycle: save the about-to-be-clobbered destination in a temp. *)
      let tmp = Mir.fresh_def f in
      emit (Code.V tmp) (Code.L (Code.V dst)) org;
      let retarget (d, s, o) =
        if reads_of s = Some dst then (d, Code.L (Code.V tmp), o) else (d, s, o)
      in
      pending := (dst, src, org) :: List.map retarget rest
    | _, [] -> assert false
  done;
  List.rev !emitted

let lower_kind (f : Mir.func) (instr : Mir.instr) ~snap : item option =
  let src = resolve_src f in
  let srcs ds = Array.map src ds in
  let dst = Some (Code.V instr.Mir.def) in
  let mk ?(dst = dst) op args = Some (I_op { Code.dst; op; args; snap }) in
  let mk_plain ?dst op args = mk ?dst op args in
  match instr.Mir.kind with
  | Mir.Constant _ -> None  (* inlined into operands *)
  | Mir.Phi _ -> None  (* eliminated into edge moves *)
  | Mir.Parameter i -> mk (Code.Param i) [||]
  | Mir.Osr_value (Mir.Osr_arg i) -> mk (Code.Osr_arg i) [||]
  | Mir.Osr_value (Mir.Osr_local i) -> mk (Code.Osr_local i) [||]
  | Mir.Box a -> mk Code.Move [| src a |]
  | Mir.Type_barrier (a, tag) -> mk (Code.Guard_type tag) [| src a |]
  | Mir.Check_array a -> mk Code.Guard_array [| src a |]
  | Mir.Bounds_check (i, a) -> mk_plain ~dst:None Code.Guard_bounds [| src i; src a |]
  | Mir.Binop (op, a, b, mode) -> mk (Code.Bin (op, mode)) [| src a; src b |]
  | Mir.Cmp (op, a, b) -> mk (Code.Cmp_op op) [| src a; src b |]
  | Mir.Unop (op, a) -> mk (Code.Un op) [| src a |]
  | Mir.To_bool a -> mk Code.To_bool_op [| src a |]
  | Mir.Load_elem (a, i) -> mk Code.Load_elem_op [| src a; src i |]
  | Mir.Store_elem (a, i, v) -> mk_plain ~dst:None Code.Store_elem_op [| src a; src i; src v |]
  | Mir.Elem_generic (a, i) -> mk Code.Elem_gen_op [| src a; src i |]
  | Mir.Store_elem_generic (a, i, v) ->
    mk_plain ~dst:None Code.Store_elem_gen_op [| src a; src i; src v |]
  | Mir.Load_prop (a, p) -> mk (Code.Load_prop_op p) [| src a |]
  | Mir.Store_prop (a, p, v) -> mk_plain ~dst:None (Code.Store_prop_op p) [| src a; src v |]
  | Mir.Array_length a -> mk Code.Arr_len [| src a |]
  | Mir.String_length a -> mk Code.Str_len [| src a |]
  | Mir.Call (c, args) -> mk Code.Call_dyn (Array.append [| src c |] (srcs args))
  | Mir.Call_known (fid, c, args) ->
    mk (Code.Call_known_op fid) (Array.append [| src c |] (srcs args))
  | Mir.Call_native (n, args) -> mk (Code.Call_native_op n) (srcs args)
  | Mir.Method_call (r, m, args) ->
    mk (Code.Method_call_op m) (Array.append [| src r |] (srcs args))
  | Mir.New_array args -> mk Code.New_array_op (srcs args)
  | Mir.Construct (c, args) -> mk (Code.Construct_op c) (srcs args)
  | Mir.New_object (keys, args) -> mk (Code.New_object_op keys) (srcs args)
  | Mir.Make_closure (fid, caps) -> mk (Code.Make_closure_op (fid, caps)) [||]
  | Mir.Get_global i -> mk (Code.Get_global_op i) [||]
  | Mir.Set_global (i, v) -> mk_plain ~dst:None (Code.Set_global_op i) [| src v |]
  | Mir.Get_cell i -> mk (Code.Get_cell_op i) [||]
  | Mir.Set_cell (i, v) -> mk_plain ~dst:None (Code.Set_cell_op i) [| src v |]
  | Mir.Get_upval i -> mk (Code.Get_upval_op i) [||]
  | Mir.Set_upval (i, v) -> mk_plain ~dst:None (Code.Set_upval_op i) [| src v |]
  | Mir.Load_captured r -> mk (Code.Load_captured_op r) [||]
  | Mir.Store_captured (r, v) -> mk_plain ~dst:None (Code.Store_captured_op r) [| src v |]

let run (f : Mir.func) =
  let rpo = Mir.reverse_postorder f in
  (* Snapshot table, shared across guards with identical resume points. *)
  let snapshots = ref [] in
  let snapshot_count = ref 0 in
  let snap_cache = Hashtbl.create 32 in
  let snapshot_of rp =
    let key =
      ( rp.Mir.rp_pc,
        Array.to_list rp.Mir.rp_args,
        Array.to_list rp.Mir.rp_locals,
        rp.Mir.rp_stack )
    in
    match Hashtbl.find_opt snap_cache key with
    | Some id -> id
    | None ->
      let id = !snapshot_count in
      incr snapshot_count;
      let srcs ds = Array.map (resolve_src f) ds in
      snapshots :=
        {
          Code.sn_pc = rp.Mir.rp_pc;
          sn_args = srcs rp.Mir.rp_args;
          sn_locals = srcs rp.Mir.rp_locals;
          sn_stack = srcs (Array.of_list rp.Mir.rp_stack);
        }
        :: !snapshots;
      Hashtbl.replace snap_cache key id;
      id
  in
  (* Control-flow items (jumps, branches, rets) and blocks with no lowered
     body are charged to the block's last instruction, or to a synthetic
     "lower" origin at the function head when the block is empty. *)
  let fallback_org =
    { Mir.o_fid = f.Mir.source.Bytecode.Program.fid; o_pc = 0; o_def = -1; o_pass = "lower" }
  in
  let block_org (b : Mir.block) =
    match List.rev b.Mir.body with
    | (i : Mir.instr) :: _ -> i.Mir.org
    | [] -> (
      match List.rev b.Mir.phis with
      | (i : Mir.instr) :: _ -> i.Mir.org
      | [] -> fallback_org)
  in
  (* Edge moves: for each edge (pred -> succ) collect the phi copies. *)
  let edge_moves pred succ =
    let sb = Mir.block f succ in
    let pred_index =
      let rec find i = function
        | [] -> -1
        | p :: rest -> if p = pred then i else find (i + 1) rest
      in
      find 0 sb.Mir.preds
    in
    if pred_index < 0 then []
    else
      List.filter_map
        (fun (phi : Mir.instr) ->
          match phi.Mir.kind with
          | Mir.Phi ops ->
            let s = resolve_src f ops.(pred_index) in
            (* Skip self-moves. *)
            if s = Code.L (Code.V phi.Mir.def) then None
            else Some (phi.Mir.def, s, phi.Mir.org)
          | _ -> None)
        sb.Mir.phis
  in
  (* Chunks keyed by block id; stubs get fresh negative keys and are laid
     out right after the block that branches into them — placing them at
     the end of the code would stretch the live intervals of loop-carried
     values across the whole function. *)
  let stub_key = ref (-1) in
  let chunks = ref [] in
  let pending_stubs = ref [] in
  let add_chunk key items =
    chunks := (key, items) :: List.rev_append !pending_stubs !chunks;
    pending_stubs := []
  in
  let add_stub key items = pending_stubs := (key, items) :: !pending_stubs in
  List.iter
    (fun bid ->
      let b = Mir.block f bid in
      let borg = block_org b in
      let body =
        List.filter_map
          (fun (i : Mir.instr) ->
            let snap = Option.map snapshot_of i.Mir.rp in
            Option.map (fun item -> (item, i.Mir.org)) (lower_kind f i ~snap))
          b.Mir.body
      in
      let items =
        match b.Mir.term with
        | Mir.Goto t ->
          let moves = sequentialize_moves f (edge_moves bid t) in
          body @ moves @ [ (I_jump t, borg) ]
        | Mir.Branch (c, t1, t2) ->
          let cs = resolve_src f c in
          let m1 = edge_moves bid t1 and m2 = edge_moves bid t2 in
          let target edge_m t =
            if edge_m = [] then t
            else begin
              let key = !stub_key in
              decr stub_key;
              add_stub key (sequentialize_moves f edge_m @ [ (I_jump t, borg) ]);
              key
            end
          in
          let t1' = target m1 t1 and t2' = target m2 t2 in
          body @ [ (I_branch (cs, t1', t2'), borg) ]
        | Mir.Return d -> body @ [ (I_ret (resolve_src f d), borg) ]
        | Mir.Unreachable -> body
      in
      add_chunk bid items)
    rpo;
  (* Layout: main chunks in RPO order, stubs after. Elide jumps to the
     chunk that immediately follows. *)
  let all = List.rev !chunks in
  (* Stubs now sit right before the block that created them in [all]
     (reversed accumulation); swap each stub run after its creator so they
     follow the branch they serve. *)
  let rec reorder = function
    | [] -> []
    | (k, items) :: rest when k >= 0 ->
      let stubs, rest' =
        let rec take acc = function
          | (k', items') :: tl when k' < 0 -> take ((k', items') :: acc) tl
          | tl -> (List.rev acc, tl)
        in
        take [] rest
      in
      ((k, items) :: stubs) @ reorder rest'
    | (k, items) :: rest -> (k, items) :: reorder rest
  in
  let all = reorder all in
  (* The function entry must sit at offset 0 (the OSR block may precede it
     in reverse postorder). *)
  let entry_chunk, others = List.partition (fun (k, _) -> k = f.Mir.entry) all in
  let ordered = entry_chunk @ others in
  let ordered =
    let rec elide = function
      | (k1, items1) :: ((k2, _) :: _ as rest) ->
        let items1 =
          match List.rev items1 with
          | (I_jump t, _) :: body_rev when t = k2 -> List.rev body_rev
          | _ -> items1
        in
        (k1, items1) :: elide rest
      | tail -> tail
    in
    elide ordered
  in
  let offsets = Hashtbl.create 16 in
  let total = ref 0 in
  List.iter
    (fun (key, items) ->
      Hashtbl.replace offsets key !total;
      total := !total + List.length items)
    ordered;
  let target key = Hashtbl.find offsets key in
  let instrs = Array.make !total (Code.Ret (Code.Imm Value.Undefined)) in
  let origins = Array.make !total fallback_org in
  let pos = ref 0 in
  List.iter
    (fun (_, items) ->
      List.iter
        (fun (item, org) ->
          instrs.(!pos) <-
            (match item with
            | I_op i -> Code.Op i
            | I_jump t -> Code.Jump (target t)
            | I_branch (c, a, b) -> Code.Branch (c, target a, target b)
            | I_ret s -> Code.Ret s);
          origins.(!pos) <- org;
          incr pos)
        items)
    ordered;
  {
    Code.fid = f.Mir.source.Bytecode.Program.fid;
    instrs;
    origins;
    snapshots = Array.of_list (List.rev !snapshots);
    nslots = 0;
    osr_offset = Option.map target f.Mir.osr_entry;
    specialized = (match f.Mir.key with Spec_key.Key_values _ -> true | _ -> false);
    widened = (match f.Mir.key with Spec_key.Key_tags _ -> true | _ -> false);
    version = 0;
  }
