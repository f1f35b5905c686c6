open Runtime

(* Hash key for a pure instruction, after operand resolution. [None] means
   the instruction is not eligible for value numbering. [bounds_stable] says
   no instruction in the function can shrink an array length
   ([Absint.may_shrink]): only then is a later Bounds_check on the
   same (index, array) pair guaranteed to pass because a dominating one did
   — found by the translation-validation sandwich, which refused to certify
   the dedup across a potentially shrinking call. *)
let key_of ~bounds_stable resolve (kind : Mir.instr_kind) =
  let d x = string_of_int (resolve x) in
  let open Printf in
  match kind with
  | Mir.Constant v -> (
    (* Heap constants number by identity; primitives by value. *)
    match v with
    | Value.Obj o -> Some (sprintf "const:obj%d" o.Value.oid)
    | Value.Arr a -> Some (sprintf "const:arr%d" a.Value.aid)
    | Value.Closure c -> Some (sprintf "const:clo%d" c.Value.cid)
    | Value.Double f -> Some (sprintf "const:d%Lx" (Int64.bits_of_float f))
    | Value.Undefined | Value.Null | Value.Bool _ | Value.Int _ | Value.Str _
    | Value.Native_fun _ ->
      (* The display string alone is not injective across constructors
         (Int 4 and Str "4" both display as "4"), so prefix the tag. *)
      Some
        (sprintf "const:%s:%s"
           (Value.tag_to_string (Value.tag_of v))
           (Value.to_display_string v)))
  | Mir.Binop (op, a, b, mode) ->
    Some
      (sprintf "binop:%s:%s:%s:%s" (Ops.binop_to_string op) (Mir.mode_to_string mode)
         (d a) (d b))
  | Mir.Cmp (op, a, b) -> Some (sprintf "cmp:%s:%s:%s" (Ops.cmp_to_string op) (d a) (d b))
  | Mir.Unop (op, a) -> Some (sprintf "unop:%s:%s" (Ops.unop_to_string op) (d a))
  | Mir.To_bool a -> Some (sprintf "tobool:%s" (d a))
  | Mir.Box a -> Some (sprintf "box:%s" (d a))
  | Mir.String_length a -> Some (sprintf "strlen:%s" (d a))
  | Mir.Type_barrier (a, tag) ->
    Some (sprintf "barrier:%s:%s" (Value.tag_to_string tag) (d a))
  | Mir.Check_array a -> Some (sprintf "chkarr:%s" (d a))
  | Mir.Bounds_check (i, a) ->
    if bounds_stable then Some (sprintf "bc:%s:%s" (d i) (d a)) else None
  | Mir.Array_length _
  (* length is mutable: do not number across possible stores *)
  | Mir.Parameter _ | Mir.Osr_value _ | Mir.Phi _ | Mir.Load_elem _ | Mir.Store_elem _
  | Mir.Elem_generic _ | Mir.Store_elem_generic _ | Mir.Load_prop _ | Mir.Store_prop _
  | Mir.Call _ | Mir.Call_known _ | Mir.Call_native _ | Mir.Method_call _
  | Mir.New_array _ | Mir.Construct _ | Mir.New_object _ | Mir.Make_closure _
  | Mir.Get_global _ | Mir.Set_global _ | Mir.Get_cell _ | Mir.Set_cell _
  | Mir.Get_upval _ | Mir.Set_upval _ | Mir.Load_captured _ | Mir.Store_captured _ ->
    None

let run (f : Mir.func) =
  let doms = Cfg.dominators f in
  let bounds_stable = ref true in
  Mir.iter_instrs f (fun i ->
      if Absint.may_shrink ~precise_alias:false i.Mir.kind then
        bounds_stable := false);
  let bounds_stable = !bounds_stable in
  let subst : (Mir.def, Mir.def) Hashtbl.t = Hashtbl.create 32 in
  let rec resolve d =
    match Hashtbl.find_opt subst d with Some d' when d' <> d -> resolve d' | _ -> d
  in
  let available : (string, (Mir.def * int) list) Hashtbl.t = Hashtbl.create 64 in
  let eliminated = ref 0 in
  let rpo = Mir.reverse_postorder f in
  List.iter
    (fun bid ->
      let b = Mir.block f bid in
      (* Degenerate phi simplification. *)
      let simplified =
        List.filter
          (fun (phi : Mir.instr) ->
            match phi.Mir.kind with
            | Mir.Phi ops ->
              let resolved = Array.map resolve ops in
              let distinct =
                Array.to_list resolved
                |> List.filter (fun o -> o <> phi.Mir.def)
                |> List.sort_uniq compare
              in
              (match distinct with
              | [ only ] ->
                Hashtbl.replace subst phi.Mir.def only;
                incr eliminated;
                false
              | _ ->
                phi.Mir.kind <- Mir.Phi resolved;
                true)
            | _ -> true)
          b.Mir.phis
      in
      b.Mir.phis <- simplified;
      let kept =
        List.filter
          (fun (instr : Mir.instr) ->
            instr.Mir.kind <- Mir.map_operands resolve instr.Mir.kind;
            instr.Mir.rp <- Option.map (Mir.map_resume_point resolve) instr.Mir.rp;
            match instr.Mir.kind with
            | Mir.Unop (Ops.To_number, x)
              when (let t = Mir.ty_of_def f x in t = Mir.Ty_int32 || t = Mir.Ty_double) ->
              (* ToNumber of a number is the identity. *)
              Hashtbl.replace subst instr.Mir.def x;
              incr eliminated;
              false
            | _ ->
            match key_of ~bounds_stable resolve instr.Mir.kind with
            | None -> true
            | Some key -> (
              let candidates = Option.value (Hashtbl.find_opt available key) ~default:[] in
              match
                List.find_opt (fun (_, def_bid) -> Cfg.dominates doms def_bid bid) candidates
              with
              | Some (prior, _) ->
                Hashtbl.replace subst instr.Mir.def prior;
                incr eliminated;
                false
              | None ->
                Hashtbl.replace available key ((instr.Mir.def, bid) :: candidates);
                true))
          b.Mir.body
      in
      b.Mir.body <- kept)
    rpo;
  if Hashtbl.length subst > 0 then Mir.substitute f resolve;
  !eliminated
