open Runtime

type stats = { folded : int; branches_decided : int }

let run (f : Mir.func) =
  let facts = Absint.analyze f in
  let const d =
    match Absint.value_of facts d with Absint.Const v -> Some v | _ -> None
  in
  (* A def's abstract value holds only if control gets past it, so a guard
     (or a checked int op, which bails like one) can be [Const] and still
     fail. A non-phi therefore folds only on constant operands: its value
     is then the one it computes, and a guard whose constant operand has
     the wrong tag is [Bot]. [Bounds_check] never folds: its value is its
     index, which says nothing about the array's length. *)
  let value (i : Mir.instr) =
    let on_constants () =
      List.for_all (fun d -> Option.is_some (const d)) (Mir.instr_operands i.Mir.kind)
    in
    match i.Mir.kind with
    | Mir.Phi _ -> const i.Mir.def
    | Mir.Binop _ | Mir.Cmp _ | Mir.Unop _ | Mir.To_bool _ | Mir.Box _
    | Mir.Type_barrier _ | Mir.Check_array _ | Mir.String_length _
      when on_constants () ->
      const i.Mir.def
    | Mir.Call_native (name, _) when Builtins.is_pure name && on_constants () ->
      const i.Mir.def
    | _ -> None
  in
  let folded = Constprop.fold f value in
  let decided bid =
    match (Mir.block f bid).Mir.term with
    | Mir.Branch (c, _, _) -> Absint.block_executable facts bid && Option.is_some (const c)
    | Mir.Goto _ | Mir.Return _ | Mir.Unreachable -> false
  in
  { folded; branches_decided = List.length (List.filter decided f.Mir.block_order) }
