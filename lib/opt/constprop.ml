open Runtime

(* The ⊥ < c < ⊤ lattice of Aho et al. *)
type lat = Bot | Const of Value.t | Top

let meet a b =
  match (a, b) with
  | Bot, x | x, Bot -> x
  | Top, _ | _, Top -> Top
  | Const x, Const y -> if Value.same_value x y then Const x else Top

(* Structural equality would loop on NaN (nan <> nan): the fixpoint must
   compare lattice values through the cache equality. *)
let lat_equal a b =
  match (a, b) with
  | Bot, Bot | Top, Top -> true
  | Const x, Const y -> Value.same_value x y
  | (Bot | Top | Const _), _ -> false

(* Evaluate a foldable instruction over constant operands. Every evaluation
   goes through the interpreter's own operator implementations. *)
let try_fold kind lookup =
  let const d = match lookup d with Const v -> Some v | Bot | Top -> None in
  let all_const ds =
    let vs = Array.map const ds in
    if Array.for_all Option.is_some vs then Some (Array.map Option.get vs) else None
  in
  match (kind : Mir.instr_kind) with
  | Mir.Constant v -> Const v
  | Mir.Phi ops -> Array.fold_left (fun acc d -> meet acc (lookup d)) Bot ops
  | Mir.Binop (op, a, b, _) -> (
    match (const a, const b) with
    | Some va, Some vb -> Const (Ops.binop op va vb)
    | _ -> Top)
  | Mir.Cmp (op, a, b) -> (
    match (const a, const b) with
    | Some va, Some vb -> Const (Ops.cmp op va vb)
    | _ -> Top)
  | Mir.Unop (op, a) -> (
    match const a with Some va -> Const (Ops.unop op va) | None -> Top)
  | Mir.To_bool a -> (
    match const a with Some va -> Const (Value.Bool (Convert.to_boolean va)) | None -> Top)
  | Mir.Box a -> lookup a
  | Mir.Type_barrier (a, tag) -> (
    (* A constant of the guarded tag makes the guard a no-op: fold it. A
       constant of the wrong tag would always bail; leave the guard. *)
    match const a with
    | Some va when Value.tag_of va = tag -> Const va
    | _ -> Top)
  | Mir.Check_array a -> (
    match const a with Some (Value.Arr _ as va) -> Const va | _ -> Top)
  | Mir.String_length a -> (
    match const a with
    | Some (Value.Str s) -> Const (Value.Int (String.length s))
    | _ -> Top)
  | Mir.Call_native (name, args) when Builtins.is_pure name -> (
    match all_const args with
    | Some vs -> ( try Const (Builtins.call name vs) with _ -> Top)
    | None -> Top)
  | Mir.Osr_value _ | Mir.Parameter _ | Mir.Bounds_check _ | Mir.Load_elem _
  | Mir.Store_elem _ | Mir.Elem_generic _ | Mir.Store_elem_generic _ | Mir.Load_prop _
  | Mir.Store_prop _ | Mir.Array_length _ | Mir.Call _ | Mir.Call_known _
  | Mir.Call_native _ | Mir.Method_call _ | Mir.New_array _ | Mir.Construct _
  | Mir.New_object _ | Mir.Make_closure _ | Mir.Get_global _ | Mir.Set_global _
  | Mir.Get_cell _ | Mir.Set_cell _ | Mir.Get_upval _ | Mir.Set_upval _
  | Mir.Load_captured _ | Mir.Store_captured _ ->
    Top

(* The fold door shared with {!Sccp}: every instruction [value] proves
   constant is rewritten to that constant. Only pure, non-effectful
   instructions are rewritten; a folded guard disappears entirely (paper
   §3.3: "our constant propagation allows us to fold away many type
   guards"). *)
let fold (f : Mir.func) value =
  let folded = ref 0 in
  Mir.iter_instrs f (fun instr ->
      match value instr with
      | Some v
        when (not (Mir.has_side_effect instr.Mir.kind))
             && (match instr.Mir.kind with Mir.Constant _ -> false | _ -> true) ->
        instr.Mir.kind <- Mir.Constant v;
        instr.Mir.ty <- Mir.ty_of_value v;
        instr.Mir.rp <- None;
        incr folded
      | _ -> ());
  (* Folded phis are no longer phis: relocate them to the head of the
     block body so the phi section stays well-formed. *)
  List.iter
    (fun bid ->
      let b = Mir.block f bid in
      let still_phi, folded_phis =
        List.partition
          (fun (i : Mir.instr) -> match i.Mir.kind with Mir.Phi _ -> true | _ -> false)
          b.Mir.phis
      in
      if folded_phis <> [] then begin
        b.Mir.phis <- still_phi;
        b.Mir.body <- folded_phis @ b.Mir.body
      end)
    f.Mir.block_order;
  !folded

let run (f : Mir.func) =
  let lat : (Mir.def, lat) Hashtbl.t = Hashtbl.create 64 in
  let lookup d = Option.value (Hashtbl.find_opt lat d) ~default:Bot in
  (* Iterate successive applications of the meet operator to a fixpoint. *)
  let changed = ref true in
  while !changed do
    changed := false;
    Mir.iter_instrs f (fun instr ->
        let current = lookup instr.Mir.def in
        let fresh = meet current (try_fold instr.Mir.kind lookup) in
        if not (lat_equal fresh current) then begin
          Hashtbl.replace lat instr.Mir.def fresh;
          changed := true
        end)
  done;
  fold f (fun instr ->
      match lookup instr.Mir.def with Const v -> Some v | Bot | Top -> None)
