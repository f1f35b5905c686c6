open Runtime

type osr_request = {
  osr_pc : int;
  osr_args : Value.t array;
  osr_locals : Value.t array;
  osr_bake_locals : bool;
}

(* Abstract frame state: which SSA def currently holds each argument, local
   and operand-stack slot. Cells and globals are memory, not SSA state. *)
type bstate = { s_args : Mir.def array; s_locals : Mir.def array; s_stack : Mir.def list }

let clone_state st =
  { s_args = Array.copy st.s_args; s_locals = Array.copy st.s_locals; s_stack = st.s_stack }

(* ------------------------------------------------------------------ *)
(* Leaders                                                             *)
(* ------------------------------------------------------------------ *)

let leaders_of (func : Bytecode.Program.func) =
  let code = func.code in
  let n = Array.length code in
  let leader = Array.make n false in
  leader.(0) <- true;
  Array.iteri
    (fun pc instr ->
      let mark t = if t < n then leader.(t) <- true in
      match instr with
      | Bytecode.Instr.Jump t ->
        mark t;
        mark (pc + 1)
      | Bytecode.Instr.Jump_if_false t | Bytecode.Instr.Jump_if_true t ->
        mark t;
        mark (pc + 1)
      | Bytecode.Instr.Return | Bytecode.Instr.Return_undefined -> mark (pc + 1)
      | Bytecode.Instr.Loop_head _ -> leader.(pc) <- true
      | _ -> ())
    code;
  let result = ref [] in
  for pc = n - 1 downto 0 do
    if leader.(pc) then result := pc :: !result
  done;
  !result

(* ------------------------------------------------------------------ *)
(* Builder                                                             *)
(* ------------------------------------------------------------------ *)

type ctx = {
  f : Mir.func;
  func : Bytecode.Program.func;
  emit_guards : bool;
  known_globals : int option array;
      (* global slot -> fid when the slot provably holds one fixed function
         (see [Program.known_global_funcs]); [||] disables resolution *)
  block_of_pc : (int, int) Hashtbl.t;  (* leader pc -> Mir block id *)
  span_end : (int, int) Hashtbl.t;  (* leader pc -> one past last pc *)
  (* Incoming edges per leader pc, in arrival order: (pred block id, state). *)
  edges : (int, (int * bstate) list ref) Hashtbl.t;
  (* Loop-header phi patching: leader pc -> (slot phis to patch later). *)
  pending : (int, pending_header) Hashtbl.t;
  mutable processed : (int, bool) Hashtbl.t;
}

and pending_header = {
  ph_block : int;
  ph_args : Mir.instr array;
  ph_locals : Mir.instr array;
  (* Number of edge states already folded into the phi operand arrays. *)
  mutable ph_filled : int;
}

let record_edge ctx target_pc pred_bid state =
  let cell =
    match Hashtbl.find_opt ctx.edges target_pc with
    | Some c -> c
    | None ->
      let c = ref [] in
      Hashtbl.replace ctx.edges target_pc c;
      c
  in
  cell := !cell @ [ (pred_bid, state) ]

let target_block ctx pc = Hashtbl.find ctx.block_of_pc pc

let is_loop_header ctx pc =
  match ctx.func.Bytecode.Program.code.(pc) with
  | Bytecode.Instr.Loop_head _ -> true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Instruction translation                                             *)
(* ------------------------------------------------------------------ *)

let resume_at pc (st : bstate) =
  {
    Mir.rp_pc = pc;
    rp_args = Array.copy st.s_args;
    rp_locals = Array.copy st.s_locals;
    rp_stack = List.rev st.s_stack;  (* we keep the stack top-first *)
  }

let push st d = { st with s_stack = d :: st.s_stack }

let pop st =
  match st.s_stack with
  | d :: rest -> (d, { st with s_stack = rest })
  | [] -> invalid_arg "Builder: stack underflow"

let pop_n st n =
  let rec go acc st n = if n = 0 then (acc, st) else
      let d, st = pop st in
      go (d :: acc) st (n - 1)
  in
  go [] st n

let const_of ctx d =
  match (Mir.instr ctx.f d).Mir.kind with
  | Mir.Constant v -> Some v
  | _ -> None

let ty_of ctx d = (Mir.instr ctx.f d).Mir.ty

(* Pick the arithmetic lowering mode from operand types (IonMonkey-style
   type specialization; refined again by the Typer pass after phis are
   complete). *)
let binop_mode op ta tb =
  let both_int = ta = Mir.Ty_int32 && tb = Mir.Ty_int32 in
  let numeric t = Mir.is_numeric_ty t in
  match (op : Ops.binop) with
  | Ops.Bit_and | Ops.Bit_or | Ops.Bit_xor | Ops.Shl | Ops.Shr ->
    if both_int then Mir.Mode_int else Mir.Mode_generic
  | Ops.Ushr -> if both_int then Mir.Mode_int else Mir.Mode_generic
  | Ops.Div -> if numeric ta && numeric tb then Mir.Mode_double else Mir.Mode_generic
  | Ops.Add | Ops.Sub | Ops.Mul | Ops.Mod ->
    if both_int then Mir.Mode_int
    else if numeric ta && numeric tb then Mir.Mode_double
    else Mir.Mode_generic

let translate_instr ctx blk pc (st : bstate) (instr : Bytecode.Instr.t) =
  let f = ctx.f in
  let b = Mir.block f blk in
  let rp () = resume_at pc st in
  let emit ?rp kind = Mir.append f b ?rp kind in
  match instr with
  | Bytecode.Instr.Const v -> push st (emit (Mir.Constant v))
  | Bytecode.Instr.Get_arg i -> push st st.s_args.(i)
  | Bytecode.Instr.Set_arg i ->
    let d, st = pop st in
    st.s_args.(i) <- d;
    st
  | Bytecode.Instr.Get_local i -> push st st.s_locals.(i)
  | Bytecode.Instr.Set_local i ->
    let d, st = pop st in
    st.s_locals.(i) <- d;
    st
  | Bytecode.Instr.Get_cell i -> push st (emit (Mir.Get_cell i))
  | Bytecode.Instr.Set_cell i ->
    let d, st = pop st in
    ignore (emit (Mir.Set_cell (i, d)));
    st
  | Bytecode.Instr.Get_upval i -> push st (emit (Mir.Get_upval i))
  | Bytecode.Instr.Set_upval i ->
    let d, st = pop st in
    ignore (emit (Mir.Set_upval (i, d)));
    st
  | Bytecode.Instr.Get_global i -> push st (emit (Mir.Get_global i))
  | Bytecode.Instr.Set_global i ->
    let d, st = pop st in
    ignore (emit (Mir.Set_global (i, d)));
    st
  | Bytecode.Instr.Pop ->
    let _, st = pop st in
    st
  | Bytecode.Instr.Dup -> (
    match st.s_stack with
    | top :: _ -> push st top
    | [] -> invalid_arg "Builder: dup on empty stack")
  | Bytecode.Instr.Binop op ->
    let rpv = rp () in
    let bd, st = pop st in
    let ad, st = pop st in
    let mode = binop_mode op (ty_of ctx ad) (ty_of ctx bd) in
    push st (emit ~rp:rpv (Mir.Binop (op, ad, bd, mode)))
  | Bytecode.Instr.Cmp op ->
    let bd, st = pop st in
    let ad, st = pop st in
    push st (emit (Mir.Cmp (op, ad, bd)))
  | Bytecode.Instr.Unop op ->
    let rpv = rp () in
    let ad, st = pop st in
    push st (emit ~rp:rpv (Mir.Unop (op, ad)))
  | Bytecode.Instr.Call n ->
    let rpv = rp () in
    let args, st = pop_n st n in
    let callee, st = pop st in
    let args = Array.of_list args in
    let kind =
      match const_of ctx callee with
      | Some (Value.Closure c) -> Mir.Call_known (c.Value.fid, callee, args)
      | Some (Value.Native_fun name) -> Mir.Call_native (name, args)
      | _ -> (
        (* A load from a write-once function global is a monomorphic call
           site: keep the load (the callee value is what gets invoked) but
           mark the instruction with the callee's identity. *)
        match (Mir.instr ctx.f callee).Mir.kind with
        | Mir.Get_global i
          when i < Array.length ctx.known_globals && ctx.known_globals.(i) <> None ->
          Mir.Call_known (Option.get ctx.known_globals.(i), callee, args)
        | _ -> Mir.Call (callee, args))
    in
    push st (emit ~rp:rpv kind)
  | Bytecode.Instr.Method_call (name, n) ->
    let rpv = rp () in
    let args, st = pop_n st n in
    let recv, st = pop st in
    push st (emit ~rp:rpv (Mir.Method_call (recv, name, Array.of_list args)))
  | Bytecode.Instr.New_array n ->
    let elems, st = pop_n st n in
    push st (emit (Mir.New_array (Array.of_list elems)))
  | Bytecode.Instr.New (ctor, n) ->
    let args, st = pop_n st n in
    push st (emit (Mir.Construct (ctor, Array.of_list args)))
  | Bytecode.Instr.New_object fields ->
    let values, st = pop_n st (Array.length fields) in
    push st (emit (Mir.New_object (fields, Array.of_list values)))
  | Bytecode.Instr.Get_elem ->
    let rpv = rp () in
    let idx, st = pop st in
    let arr, st = pop st in
    if ctx.emit_guards && ty_of ctx arr = Mir.Ty_array then begin
      (* Fast path guarded exactly as the paper's Figure 6: a (foldable)
         array check plus a bounds check, then an unchecked load. *)
      let checked = emit ~rp:rpv (Mir.Check_array arr) in
      let _bc = emit ~rp:rpv (Mir.Bounds_check (idx, checked)) in
      push st (emit ~rp:rpv (Mir.Load_elem (checked, idx)))
    end
    else push st (emit ~rp:rpv (Mir.Elem_generic (arr, idx)))
  | Bytecode.Instr.Set_elem ->
    let rpv = rp () in
    let v, st = pop st in
    let idx, st = pop st in
    let arr, st = pop st in
    if ctx.emit_guards && ty_of ctx arr = Mir.Ty_array then begin
      let checked = emit ~rp:rpv (Mir.Check_array arr) in
      let _bc = emit ~rp:rpv (Mir.Bounds_check (idx, checked)) in
      ignore (emit ~rp:rpv (Mir.Store_elem (checked, idx, v)))
    end
    else ignore (emit ~rp:rpv (Mir.Store_elem_generic (arr, idx, v)));
    push st v
  | Bytecode.Instr.Keys ->
    let v, st = pop st in
    push st (emit (Mir.Call_native ("__keys", [| v |])))
  | Bytecode.Instr.Get_prop name -> (
    let rpv = rp () in
    let recv, st = pop st in
    match (ty_of ctx recv, name) with
    | Mir.Ty_array, "length" -> push st (emit (Mir.Array_length recv))
    | Mir.Ty_string, "length" -> push st (emit (Mir.String_length recv))
    | _ -> push st (emit ~rp:rpv (Mir.Load_prop (recv, name))))
  | Bytecode.Instr.Set_prop name ->
    let rpv = rp () in
    let v, st = pop st in
    let recv, st = pop st in
    ignore (emit ~rp:rpv (Mir.Store_prop (recv, name, v)));
    push st v
  | Bytecode.Instr.Make_closure (fid, caps) -> push st (emit (Mir.Make_closure (fid, caps)))
  | Bytecode.Instr.Jump _ | Bytecode.Instr.Jump_if_false _ | Bytecode.Instr.Jump_if_true _
  | Bytecode.Instr.Return | Bytecode.Instr.Return_undefined | Bytecode.Instr.Loop_head _ ->
    (* handled by the block driver *)
    st

(* ------------------------------------------------------------------ *)
(* Block driver                                                        *)
(* ------------------------------------------------------------------ *)

let branch_condition ctx blk d =
  if ty_of ctx d = Mir.Ty_bool then d
  else Mir.append ctx.f (Mir.block ctx.f blk) (Mir.To_bool d)

(* Process the bytecode span of one block starting from [state]. *)
let process_span ctx blk leader (state : bstate) =
  let code = ctx.func.Bytecode.Program.code in
  let stop = Hashtbl.find ctx.span_end leader in
  let b = Mir.block ctx.f blk in
  let rec go pc st =
    ctx.f.Mir.cur_pc <- pc;
    if pc >= stop then begin
      (* fallthrough into the next block *)
      let target = target_block ctx pc in
      b.Mir.term <- Mir.Goto target;
      record_edge ctx pc blk st
    end
    else
      match code.(pc) with
      | Bytecode.Instr.Jump t ->
        b.Mir.term <- Mir.Goto (target_block ctx t);
        record_edge ctx t blk st
      | Bytecode.Instr.Jump_if_false t ->
        let d, st = pop st in
        let c = branch_condition ctx blk d in
        b.Mir.term <- Mir.Branch (c, target_block ctx (pc + 1), target_block ctx t);
        record_edge ctx (pc + 1) blk st;
        record_edge ctx t blk st
      | Bytecode.Instr.Jump_if_true t ->
        let d, st = pop st in
        let c = branch_condition ctx blk d in
        b.Mir.term <- Mir.Branch (c, target_block ctx t, target_block ctx (pc + 1));
        record_edge ctx t blk st;
        record_edge ctx (pc + 1) blk st
      | Bytecode.Instr.Return ->
        let d, _st = pop st in
        b.Mir.term <- Mir.Return d
      | Bytecode.Instr.Return_undefined ->
        let d = Mir.append ctx.f b (Mir.Constant Value.Undefined) in
        b.Mir.term <- Mir.Return d
      | instr ->
        let st = translate_instr ctx blk pc st instr in
        go (pc + 1) st
  in
  go leader state

(* Merge incoming edge states for an ordinary (non-loop-header) block. *)
let merge_states ctx blk (edges : (int * bstate) list) =
  let b = Mir.block ctx.f blk in
  b.Mir.preds <- List.map fst edges;
  match edges with
  | [] -> invalid_arg "Builder: merge with no edges"
  | [ (_, st) ] -> clone_state st
  | (_, first) :: _ ->
    let states = List.map snd edges in
    let merge_slot extract i =
      let vals = List.map (fun s -> extract s i) states in
      match vals with
      | [] -> assert false
      | v :: rest ->
        if List.for_all (fun x -> x = v) rest then v
        else Mir.append_phi ctx.f b (Array.of_list vals)
    in
    let nargs = Array.length first.s_args in
    let nlocals = Array.length first.s_locals in
    let s_args = Array.init nargs (merge_slot (fun s i -> s.s_args.(i))) in
    let s_locals = Array.init nlocals (merge_slot (fun s i -> s.s_locals.(i))) in
    let depth = List.length first.s_stack in
    let stacks = List.map (fun s -> Array.of_list s.s_stack) states in
    let s_stack =
      List.init depth (fun i ->
          let vals = List.map (fun arr -> arr.(i)) stacks in
          match vals with
          | v :: rest when List.for_all (fun x -> x = v) rest -> v
          | vals -> Mir.append_phi ctx.f b (Array.of_list vals))
    in
    { s_args; s_locals; s_stack }

(* Create loop-header phis for every slot. Forward-edge operands are known;
   latch operands are patched when the latch is processed.
   Loop heads always have an empty operand stack (loops are statements).

   When several forward edges reach the header (multiple entry paths, or the
   OSR edge), they are first merged in a dedicated preheader block so that
   every loop header has exactly one non-latch predecessor. This gives LICM
   and loop inversion a place to hoist or copy code that dominates the loop
   on both the normal and the OSR path. *)
let setup_loop_header ctx blk (edges : (int * bstate) list) =
  let n_forward_edges = List.length edges in
  let edges =
    match edges with
    | [] | [ _ ] -> edges
    | _ ->
      let pre = Mir.new_block ctx.f in
      let state = merge_states ctx pre.Mir.bid edges in
      pre.Mir.term <- Mir.Goto blk;
      (* Redirect the forward predecessors into the preheader. *)
      let redirect t = if t = blk then pre.Mir.bid else t in
      List.iter
        (fun (pred_bid, _) ->
          let pb = Mir.block ctx.f pred_bid in
          pb.Mir.term <- Mir.map_term ~block:redirect pb.Mir.term)
        edges;
      [ (pre.Mir.bid, state) ]
  in
  let b = Mir.block ctx.f blk in
  b.Mir.preds <- List.map fst edges;
  let states = List.map snd edges in
  List.iter (fun s -> assert (s.s_stack = [])) states;
  let first = List.hd states in
  let mk extract i =
    let ops = Array.of_list (List.map (fun s -> extract s i) states) in
    Mir.append_phi ctx.f b ops
  in
  let nargs = Array.length first.s_args in
  let nlocals = Array.length first.s_locals in
  let arg_phis = Array.init nargs (fun i -> Mir.instr ctx.f (mk (fun s j -> s.s_args.(j)) i)) in
  let local_phis =
    Array.init nlocals (fun i -> Mir.instr ctx.f (mk (fun s j -> s.s_locals.(j)) i))
  in
  let pending =
    { ph_block = blk; ph_args = arg_phis; ph_locals = local_phis; ph_filled = n_forward_edges }
  in
  {
    s_args = Array.map (fun (i : Mir.instr) -> i.Mir.def) arg_phis;
    s_locals = Array.map (fun (i : Mir.instr) -> i.Mir.def) local_phis;
    s_stack = [];
  },
  pending

(* Fold latch edges discovered after the header was processed into its
   phis. *)
let patch_loop_headers ctx =
  Hashtbl.iter
    (fun leader pending ->
      let all_edges = Option.value (Hashtbl.find_opt ctx.edges leader) ~default:(ref []) in
      let extra = List.filteri (fun i _ -> i >= pending.ph_filled) !all_edges in
      if extra <> [] then begin
        let b = Mir.block ctx.f pending.ph_block in
        b.Mir.preds <- b.Mir.preds @ List.map fst extra;
        let add_ops (phis : Mir.instr array) extract =
          Array.iteri
            (fun i (phi : Mir.instr) ->
              match phi.Mir.kind with
              | Mir.Phi ops ->
                let more = List.map (fun (_, s) -> extract s i) extra in
                phi.Mir.kind <- Mir.Phi (Array.append ops (Array.of_list more))
              | _ -> assert false)
            phis
        in
        add_ops pending.ph_args (fun s i -> s.s_args.(i));
        add_ops pending.ph_locals (fun s i -> s.s_locals.(i));
        pending.ph_filled <- List.length !all_edges
      end)
    ctx.pending

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let build ~program ~(func : Bytecode.Program.func) ?(key = Spec_key.Key_generic)
    ?arg_tags ?osr ?(emit_guards = true) ?(no_checked_int = false)
    ?(known_globals = [||]) () =
  ignore program;
  let f = Mir.create_func func in
  f.Mir.key <- key;
  let known = Spec_key.at_entry key in
  f.Mir.no_checked_int <- no_checked_int;
  let arg_tags =
    match arg_tags with Some t -> t | None -> Array.make func.arity None
  in
  let leaders = leaders_of func in
  let ctx =
    {
      f;
      func;
      emit_guards;
      known_globals;
      block_of_pc = Hashtbl.create 16;
      span_end = Hashtbl.create 16;
      edges = Hashtbl.create 16;
      pending = Hashtbl.create 4;
      processed = Hashtbl.create 16;
    }
  in
  (* Entry block is block 0 by construction. *)
  let entry = Mir.new_block f in
  assert (entry.Mir.bid = f.Mir.entry);
  (* Blocks for every leader, plus span ends. *)
  let rec spans = function
    | [] -> ()
    | [ last ] -> Hashtbl.replace ctx.span_end last (Array.length func.code)
    | a :: (b :: _ as rest) ->
      Hashtbl.replace ctx.span_end a b;
      spans rest
  in
  spans leaders;
  List.iter
    (fun pc ->
      let b = Mir.new_block f in
      Hashtbl.replace ctx.block_of_pc pc b.Mir.bid)
    leaders;
  (* Entry block: parameters (burned in as constants where the key knows
     the value, with type barriers otherwise) and undefined-initialized
     locals. *)
  let entry_state =
    (* All parameter loads come before the first type barrier: a failing
       barrier's snapshot reads every argument, so each must have been
       materialized by the time any barrier can bail. *)
    let raw_args =
      Array.init func.arity (fun i ->
          match known i with
          | Spec_key.Known_value v -> Mir.append f entry (Mir.Constant v)
          | Spec_key.Known_tag tag ->
            (* Tag-keyed version: the cache probe compared this position's
               tag before dispatch, so the parameter's declared type may
               carry it — the typed analogue of a burned-in [Constant].
               The entry barrier's operand is then typed, which is what
               lets guard elision remove the barrier. *)
            let d = Mir.append f entry (Mir.Parameter i) in
            (Mir.instr f d).Mir.ty <- Mir.ty_of_tag tag;
            d
          | Spec_key.Unknown -> Mir.append f entry (Mir.Parameter i))
    in
    (* A tag-keyed position gets an entry type barrier for its key tag,
       which the abstract interpreter may then elide because the probe
       compares the same tag ([Absint.entry_state]); an unknown one gets a
       barrier for its stable observed tag, if any. *)
    let s_args =
      Array.mapi
        (fun i p ->
          match (known i, arg_tags.(i)) with
          | Spec_key.Known_tag tag, _ | Spec_key.Unknown, Some tag ->
            (* Placeholder resume point; replaced below once every
               parameter def exists. *)
            Mir.append f entry
              ~rp:{ Mir.rp_pc = 0; rp_args = [||]; rp_locals = [||]; rp_stack = [] }
              (Mir.Type_barrier (p, tag))
          | _ -> p)
        raw_args
    in
    let undef = Mir.append f entry (Mir.Constant Value.Undefined) in
    let s_locals = Array.make func.nlocals undef in
    { s_args; s_locals; s_stack = [] }
  in
  entry.Mir.term <- Mir.Goto (target_block ctx 0);
  record_edge ctx 0 entry.Mir.bid entry_state;
  (* Entry-barrier resume points: bail before anything ran, resuming at pc 0
     with the original (boxed) parameters. *)
  let param_defs =
    List.filter_map
      (fun (i : Mir.instr) ->
        match i.Mir.kind with Mir.Parameter k -> Some (k, i.Mir.def) | _ -> None)
      entry.Mir.body
  in
  let entry_rp_args =
    Array.init func.arity (fun i ->
        match List.assoc_opt i param_defs with
        | Some d -> d
        | None -> entry_state.s_args.(i))
  in
  let entry_rp =
    {
      Mir.rp_pc = 0;
      rp_args = entry_rp_args;
      rp_locals = Array.copy entry_state.s_locals;
      rp_stack = [];
    }
  in
  List.iter
    (fun (i : Mir.instr) ->
      match i.Mir.kind with
      | Mir.Type_barrier _ -> i.Mir.rp <- Some entry_rp
      | _ -> ())
    entry.Mir.body;
  (* OSR entry. *)
  (match osr with
  | None -> ()
  | Some { osr_pc; osr_args; osr_locals; osr_bake_locals } ->
    f.Mir.cur_pc <- osr_pc;
    let ob = Mir.new_block f in
    f.Mir.osr_entry <- Some ob.Mir.bid;
    f.Mir.osr_loop_header <- Some (target_block ctx osr_pc);
    (* The OSR path is entered exactly once, with exactly the frame values
       captured here, so even without specialization the loads can be
       statically typed to the observed tags. *)
    let osr_slot ~spec slot v =
      if spec then Mir.append f ob (Mir.Constant v)
      else begin
        let d = Mir.append f ob (Mir.Osr_value slot) in
        (Mir.instr f d).Mir.ty <- Mir.ty_of_value v;
        d
      end
    in
    (* An argument is baked where the key burns it in. Locals are baked
       only under a value key, and only when the requester says the
       snapshot is exact at entry time (synchronous OSR, entered
       immediately): a deferred entry arrives after the loop has advanced,
       so its locals stay live loads. *)
    let s_args =
      Array.init func.arity (fun i ->
          let spec = match known i with Spec_key.Known_value _ -> true | _ -> false in
          osr_slot ~spec (Mir.Osr_arg i) osr_args.(i))
    in
    let bake_locals =
      osr_bake_locals && match key with Spec_key.Key_values _ -> true | _ -> false
    in
    let s_locals =
      Array.init func.nlocals (fun i ->
          osr_slot ~spec:bake_locals (Mir.Osr_local i) osr_locals.(i))
    in
    ob.Mir.term <- Mir.Goto (target_block ctx osr_pc);
    record_edge ctx osr_pc ob.Mir.bid { s_args; s_locals; s_stack = [] });
  (* Process bytecode blocks in pc order. *)
  List.iter
    (fun leader ->
      let blk = target_block ctx leader in
      f.Mir.cur_pc <- leader;
      match Hashtbl.find_opt ctx.edges leader with
      | None | Some { contents = [] } -> ()  (* unreachable code *)
      | Some { contents = edges } ->
        Hashtbl.replace ctx.processed leader true;
        let state =
          if is_loop_header ctx leader then begin
            let st, pending = setup_loop_header ctx blk edges in
            Hashtbl.replace ctx.pending leader pending;
            st
          end
          else merge_states ctx blk edges
        in
        process_span ctx blk leader state)
    leaders;
  patch_loop_headers ctx;
  Mir.prune_unreachable f;
  f
