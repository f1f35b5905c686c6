open Runtime

type outcome = Finished of Value.t | Bailed of { pc : int; reason : string }

type env = {
  ev_args : Value.t array;
  ev_env : Value.t ref array;
  ev_cells : Value.t ref array;
  ev_globals : Value.t array;
  ev_call : Value.t -> Value.t array -> Value.t;
  ev_osr_args : Value.t array;
  ev_osr_locals : Value.t array;
}

exception Bail of int * string

let run env (f : Mir.func) ~at_osr =
  let values : (Mir.def, Value.t) Hashtbl.t = Hashtbl.create 128 in
  let get d =
    match Hashtbl.find_opt values d with
    | Some v -> v
    | None ->
      (* Constants may be referenced before their block runs (they are
         location-independent); anything else is a bug in a pass. *)
      (match (Mir.instr f d).Mir.kind with
      | Mir.Constant v -> v
      | _ -> invalid_arg (Printf.sprintf "Eval.run: v%d read before definition" d))
  in
  let set d v = Hashtbl.replace values d v in
  let eval_instr (i : Mir.instr) =
    let bail reason =
      match i.Mir.rp with
      | Some rp -> raise (Bail (rp.Mir.rp_pc, reason))
      | None -> invalid_arg ("Eval.run: guard without rp: " ^ reason)
    in
    let value =
      match i.Mir.kind with
      | Mir.Phi _ -> assert false  (* handled at block entry *)
      | Mir.Parameter k -> Some env.ev_args.(k)
      | Mir.Osr_value (Mir.Osr_arg k) -> Some env.ev_osr_args.(k)
      | Mir.Osr_value (Mir.Osr_local k) -> Some env.ev_osr_locals.(k)
      | Mir.Constant v -> Some v
      | Mir.Box a -> Some (get a)
      | Mir.Type_barrier (a, tag) ->
        let v = get a in
        if Value.tag_of v = tag then Some v else bail "type barrier"
      | Mir.Check_array a -> (
        match get a with Value.Arr _ as v -> Some v | _ -> bail "not an array")
      | Mir.Bounds_check (idx, arr) -> (
        match (get idx, get arr) with
        | Value.Int n, Value.Arr a when n >= 0 && n < a.Value.length -> None
        | _ -> bail "bounds check")
      | Mir.Binop (op, a, b, mode) -> (
        let r = Ops.binop op (get a) (get b) in
        match (mode, r) with
        | Mir.Mode_int, Value.Int _ -> Some r
        | Mir.Mode_int, _ -> bail "int32 overflow"
        | (Mir.Mode_int_nocheck | Mir.Mode_double | Mir.Mode_generic), _ -> Some r)
      | Mir.Cmp (op, a, b) -> Some (Ops.cmp op (get a) (get b))
      | Mir.Unop (op, a) -> Some (Ops.unop op (get a))
      | Mir.To_bool a -> Some (Value.Bool (Convert.to_boolean (get a)))
      | Mir.Load_elem (arr, idx) -> (
        match (get arr, get idx) with
        | Value.Arr a, Value.Int n -> Some (Value.arr_get a n)
        | _ -> invalid_arg "Eval.run: unguarded ld")
      | Mir.Store_elem (arr, idx, v) ->
        (match (get arr, get idx) with
        | Value.Arr a, Value.Int n -> Value.arr_set a n (get v)
        | _ -> invalid_arg "Eval.run: unguarded st");
        None
      | Mir.Elem_generic (a, idx) -> Some (Objmodel.get_elem (get a) (get idx))
      | Mir.Store_elem_generic (a, idx, v) ->
        Objmodel.set_elem (get a) (get idx) (get v);
        None
      | Mir.Load_prop (a, p) -> Some (Objmodel.get_prop (get a) p)
      | Mir.Store_prop (a, p, v) ->
        Objmodel.set_prop (get a) p (get v);
        None
      | Mir.Array_length a -> (
        match get a with
        | Value.Arr arr -> Some (Value.Int arr.Value.length)
        | _ -> invalid_arg "Eval.run: arraylength on non-array")
      | Mir.String_length a -> (
        match get a with
        | Value.Str s -> Some (Value.Int (String.length s))
        | _ -> invalid_arg "Eval.run: stringlength on non-string")
      | Mir.Call (c, args) -> Some (env.ev_call (get c) (Array.map get args))
      | Mir.Call_known (_, c, args) -> Some (env.ev_call (get c) (Array.map get args))
      | Mir.Call_native (name, args) -> Some (Builtins.call name (Array.map get args))
      | Mir.Method_call (recv, name, args) ->
        Some (Objmodel.dispatch_method ~call:env.ev_call (get recv) name (Array.map get args))
      | Mir.New_array args ->
        Some (Value.Arr (Value.arr_of_list (Array.to_list (Array.map get args))))
      | Mir.Construct (ctor, args) -> Some (Objmodel.construct ctor (Array.map get args))
      | Mir.New_object (keys, args) ->
        let obj = Value.new_obj () in
        Array.iteri (fun k key -> Value.obj_set obj key (get args.(k))) keys;
        Some (Value.Obj obj)
      | Mir.Make_closure (fid, caps) ->
        let cenv =
          Array.map
            (function
              | Bytecode.Instr.Cap_cell k -> env.ev_cells.(k)
              | Bytecode.Instr.Cap_upval k -> env.ev_env.(k))
            caps
        in
        Some (Value.Closure { Value.fid; env = cenv; cid = Value.fresh_id () })
      | Mir.Get_global k -> Some env.ev_globals.(k)
      | Mir.Set_global (k, v) ->
        env.ev_globals.(k) <- get v;
        None
      | Mir.Get_cell k -> Some !(env.ev_cells.(k))
      | Mir.Set_cell (k, v) ->
        env.ev_cells.(k) := get v;
        None
      | Mir.Get_upval k -> Some !(env.ev_env.(k))
      | Mir.Set_upval (k, v) ->
        env.ev_env.(k) := get v;
        None
      | Mir.Load_captured r -> Some !r
      | Mir.Store_captured (r, v) ->
        r := get v;
        None
    in
    match value with Some v -> set i.Mir.def v | None -> set i.Mir.def Value.Undefined
  in
  let start =
    if at_osr then
      match f.Mir.osr_entry with
      | Some b -> b
      | None -> invalid_arg "Eval.run: no OSR entry"
    else f.Mir.entry
  in
  let rec exec_block prev bid =
    let b = Mir.block f bid in
    (* Phis: read operands through the incoming edge, in parallel. *)
    let pred_index =
      if b.Mir.phis = [] then -1
      else
        let rec find i = function
          | [] ->
            invalid_arg
              (Printf.sprintf "Eval.run: B%d entered from unlisted pred B%d" bid prev)
          | p :: rest -> if p = prev then i else find (i + 1) rest
        in
        find 0 b.Mir.preds
    in
    let phi_values =
      List.map
        (fun (phi : Mir.instr) ->
          match phi.Mir.kind with
          | Mir.Phi ops -> (phi.Mir.def, get ops.(pred_index))
          | _ -> assert false)
        b.Mir.phis
    in
    List.iter (fun (d, v) -> set d v) phi_values;
    List.iter eval_instr b.Mir.body;
    match b.Mir.term with
    | Mir.Goto t -> exec_block bid t
    | Mir.Branch (c, t1, t2) ->
      exec_block bid (if Convert.to_boolean (get c) then t1 else t2)
    | Mir.Return d -> get d
    | Mir.Unreachable -> invalid_arg "Eval.run: reached unreachable"
  in
  match exec_block (-1) start with
  | v -> Finished v
  | exception Bail (pc, reason) -> Bailed { pc; reason }
