open Runtime

(* Abstract type: None is bottom (not yet computed). *)
type aty = Mir.ty option

let join (a : aty) (b : aty) : aty =
  match (a, b) with
  | None, x | x, None -> x
  | Some x, Some y ->
    if x = y then Some x
    else (
      match (x, y) with
      | Mir.Ty_int32, Mir.Ty_double | Mir.Ty_double, Mir.Ty_int32 -> Some Mir.Ty_double
      | _ -> Some Mir.Ty_value)

let numeric = function Some Mir.Ty_int32 | Some Mir.Ty_double -> true | _ -> false
let both_int a b = a = Some Mir.Ty_int32 && b = Some Mir.Ty_int32

(* Optimistic transfer function: what type would this instruction produce if
   we pick the best lowering its (current) operand types allow? *)
let transfer ~checked_int_ok lookup (instr : Mir.instr) : aty =
  let t d = lookup d in
  let can_guard = checked_int_ok && instr.Mir.rp <> None in
  match instr.Mir.kind with
  (* Parameter and Osr_value types were fixed by the builder: Ty_value
     normally, the key's tag type for a tag-keyed (widened) version, the
     actual frame's types for OSR. *)
  | Mir.Parameter _ -> Some instr.Mir.ty
  | Mir.Osr_value _ -> Some instr.Mir.ty
  | Mir.Constant v -> Some (Mir.ty_of_value v)
  | Mir.Phi ops -> Array.fold_left (fun acc d -> join acc (t d)) None ops
  | Mir.Box _ -> Some Mir.Ty_value
  | Mir.Type_barrier (_, tag) -> Some (Mir.ty_of_tag tag)
  | Mir.Check_array _ -> Some Mir.Ty_array
  | Mir.Bounds_check _ -> Some Mir.Ty_int32
  | Mir.Binop (op, a, b, _) -> (
    let ta = t a and tb = t b in
    match (ta, tb) with
    | None, _ | _, None -> None
    | Some _, Some _ -> (
      match op with
      | Ops.Bit_and | Ops.Bit_or | Ops.Bit_xor | Ops.Shl | Ops.Shr -> Some Mir.Ty_int32
      | Ops.Ushr ->
        if both_int ta tb && can_guard then Some Mir.Ty_int32 else Some Mir.Ty_value
      | Ops.Div -> if numeric ta && numeric tb then Some Mir.Ty_double else Some Mir.Ty_value
      | Ops.Add | Ops.Sub | Ops.Mul | Ops.Mod ->
        (* The checked int32 mode needs a resume point to bail through;
           instructions without one (inlined code) fall back to doubles,
           which is exact for int32 operands. *)
        if both_int ta tb && can_guard then Some Mir.Ty_int32
        else if numeric ta && numeric tb then Some Mir.Ty_double
        else if op = Ops.Add && (ta = Some Mir.Ty_string || tb = Some Mir.Ty_string) then
          Some Mir.Ty_string
        else Some Mir.Ty_value))
  | Mir.Cmp _ -> Some Mir.Ty_bool
  | Mir.Unop (op, a) -> (
    match op with
    | Ops.Not -> Some Mir.Ty_bool
    | Ops.Typeof -> Some Mir.Ty_string
    | Ops.Bit_not -> Some Mir.Ty_int32
    | Ops.Neg -> (
      match t a with
      | None -> None
      | Some Mir.Ty_double -> Some Mir.Ty_double
      | Some _ -> Some Mir.Ty_value)
    | Ops.To_number -> (
      match t a with
      | None -> None
      | Some Mir.Ty_int32 | Some Mir.Ty_bool -> Some Mir.Ty_int32
      | Some Mir.Ty_double -> Some Mir.Ty_double
      | Some _ -> Some Mir.Ty_value))
  | Mir.Load_elem _ | Mir.Elem_generic _ | Mir.Load_prop _ -> Some Mir.Ty_value
  | Mir.Store_elem (_, _, v) | Mir.Store_elem_generic (_, _, v) | Mir.Store_prop (_, _, v)
    ->
    t v
  | Mir.Array_length _ | Mir.String_length _ -> Some Mir.Ty_int32
  | Mir.Call _ | Mir.Call_known _ | Mir.Call_native _ | Mir.Method_call _ ->
    Some Mir.Ty_value
  | Mir.New_array _ -> Some Mir.Ty_array
  | Mir.Construct ("Array", _) -> Some Mir.Ty_array
  | Mir.Construct _ | Mir.New_object _ -> Some Mir.Ty_object
  | Mir.Make_closure _ -> Some Mir.Ty_function
  | Mir.Get_global _ | Mir.Get_cell _ | Mir.Get_upval _ | Mir.Load_captured _ ->
    Some Mir.Ty_value
  | Mir.Set_global (_, v) | Mir.Set_cell (_, v) | Mir.Set_upval (_, v)
  | Mir.Store_captured (_, v) ->
    t v
  | Mir.To_bool _ -> Some Mir.Ty_bool

(* Once types are committed, upgrade generic memory operations whose
   receiver turned out to be a known array/string (e.g. an array flowing
   through a loop phi) to the guarded fast path of the paper's Figure 6. *)
let specialize_memory_ops (f : Mir.func) =
  let ty d = Mir.ty_of_def f d in
  List.iter
    (fun bid ->
      let b = Mir.block f bid in
      let expand instr =
        match instr.Mir.kind with
        | Mir.Elem_generic (a, i) when ty a = Mir.Ty_array && instr.Mir.rp <> None ->
          let chk = Mir.make_instr f ?rp:instr.Mir.rp (Mir.Check_array a) in
          let bc = Mir.make_instr f ?rp:instr.Mir.rp (Mir.Bounds_check (i, chk.Mir.def)) in
          instr.Mir.kind <- Mir.Load_elem (chk.Mir.def, i);
          instr.Mir.ty <- Mir.Ty_value;
          [ chk; bc; instr ]
        | Mir.Store_elem_generic (a, i, v) when ty a = Mir.Ty_array && instr.Mir.rp <> None ->
          let chk = Mir.make_instr f ?rp:instr.Mir.rp (Mir.Check_array a) in
          let bc = Mir.make_instr f ?rp:instr.Mir.rp (Mir.Bounds_check (i, chk.Mir.def)) in
          instr.Mir.kind <- Mir.Store_elem (chk.Mir.def, i, v);
          [ chk; bc; instr ]
        | Mir.Load_prop (a, "length") when ty a = Mir.Ty_array ->
          instr.Mir.kind <- Mir.Array_length a;
          instr.Mir.ty <- Mir.Ty_int32;
          instr.Mir.rp <- None;
          [ instr ]
        | Mir.Load_prop (a, "length") when ty a = Mir.Ty_string ->
          instr.Mir.kind <- Mir.String_length a;
          instr.Mir.ty <- Mir.Ty_int32;
          instr.Mir.rp <- None;
          [ instr ]
        | _ -> [ instr ]
      in
      b.Mir.body <- List.concat_map expand b.Mir.body)
    f.Mir.block_order

let run (f : Mir.func) =
  let checked_int_ok = not f.Mir.no_checked_int in
  let tys : (Mir.def, aty) Hashtbl.t = Hashtbl.create 64 in
  let lookup d = Option.join (Hashtbl.find_opt tys d) in
  let changed = ref true in
  while !changed do
    changed := false;
    Mir.iter_instrs f (fun instr ->
        let current = lookup instr.Mir.def in
        let fresh = join current (transfer ~checked_int_ok lookup instr) in
        if fresh <> current then begin
          Hashtbl.replace tys instr.Mir.def fresh;
          changed := true
        end)
  done;
  let final d = Option.value (lookup d) ~default:Mir.Ty_value in
  (* Rewrite arithmetic modes from the refined operand types, then commit
     the refined result types. *)
  Mir.iter_instrs f (fun instr ->
      (match instr.Mir.kind with
      | Mir.Binop (op, a, b, _old_mode) ->
        let ta = Some (final a) and tb = Some (final b) in
        let can_guard = checked_int_ok && instr.Mir.rp <> None in
        let mode =
          match op with
          | Ops.Bit_and | Ops.Bit_or | Ops.Bit_xor | Ops.Shl | Ops.Shr ->
            if both_int ta tb then Mir.Mode_int_nocheck else Mir.Mode_generic
          | Ops.Ushr ->
            if both_int ta tb && can_guard then Mir.Mode_int else Mir.Mode_generic
          | Ops.Div ->
            if numeric ta && numeric tb then Mir.Mode_double else Mir.Mode_generic
          | Ops.Add | Ops.Sub | Ops.Mul | Ops.Mod ->
            if both_int ta tb && can_guard then Mir.Mode_int
            else if numeric ta && numeric tb then Mir.Mode_double
            else Mir.Mode_generic
        in
        instr.Mir.kind <- Mir.Binop (op, a, b, mode)
      | _ -> ());
      instr.Mir.ty <- final instr.Mir.def);
  specialize_memory_ops f
