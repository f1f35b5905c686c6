let is_hoistable_kind ~loop_has_effects (kind : Mir.instr_kind) =
  match kind with
  | Mir.Constant _ | Mir.Cmp _ | Mir.To_bool _ | Mir.Box _ | Mir.String_length _ ->
    true
  | Mir.Unop _ -> true
  | Mir.Binop (_, _, _, mode) -> (
    (* Checked int arithmetic is a guard (it can bail); moving it would
       reorder a potential bailout with loop side effects. *)
    match mode with
    | Mir.Mode_int -> false
    | Mir.Mode_int_nocheck | Mir.Mode_double | Mir.Mode_generic -> true)
  | Mir.Array_length _ -> not loop_has_effects
  | Mir.Parameter _ | Mir.Osr_value _ | Mir.Phi _ | Mir.Type_barrier _ | Mir.Check_array _
  | Mir.Bounds_check _ | Mir.Load_elem _ | Mir.Store_elem _ | Mir.Elem_generic _
  | Mir.Store_elem_generic _ | Mir.Load_prop _ | Mir.Store_prop _ | Mir.Call _
  | Mir.Call_known _ | Mir.Call_native _ | Mir.Method_call _ | Mir.New_array _
  | Mir.Construct _ | Mir.New_object _ | Mir.Make_closure _ | Mir.Get_global _
  | Mir.Set_global _ | Mir.Get_cell _ | Mir.Set_cell _ | Mir.Get_upval _
  | Mir.Set_upval _ | Mir.Load_captured _ | Mir.Store_captured _ ->
    false

(* Split the edge [pre -> header] with a fresh block that becomes a valid
   preheader (needed after loop inversion, where the entry-side predecessor
   is the wrapping conditional with two successors). *)
let split_entry_edge (f : Mir.func) pre_bid header_bid =
  let ph = Mir.new_block f in
  ph.Mir.term <- Mir.Goto header_bid;
  ph.Mir.preds <- [ pre_bid ];
  let pre = Mir.block f pre_bid in
  let redirect t = if t = header_bid then ph.Mir.bid else t in
  pre.Mir.term <- Mir.map_term ~block:redirect pre.Mir.term;
  let header = Mir.block f header_bid in
  header.Mir.preds <-
    List.map (fun p -> if p = pre_bid then ph.Mir.bid else p) header.Mir.preds;
  ph.Mir.bid

let run (f : Mir.func) =
  let doms = Cfg.dominators f in
  let loops = Cfg.natural_loops f doms in
  let hoisted = ref 0 in
  List.iter
    (fun (loop : Cfg.loop) ->
      let header = Mir.block f loop.Cfg.header in
      (* The preheader is the unique predecessor outside the loop. *)
      let outside = List.filter (fun p -> not (Cfg.in_loop loop p)) header.Mir.preds in
      match outside with
      | [ direct_pre ] ->
        let pre_bid =
          if Mir.successors (Mir.block f direct_pre) = [ loop.Cfg.header ] then direct_pre
          else split_entry_edge f direct_pre loop.Cfg.header
        in
        let pre = Mir.block f pre_bid in
        if Mir.successors pre = [ loop.Cfg.header ] then begin
          let loop_has_effects =
            List.exists
              (fun bid ->
                let b = Mir.block f bid in
                List.exists (fun (i : Mir.instr) -> Mir.has_side_effect i.Mir.kind) b.Mir.body)
              loop.Cfg.body
          in
          (* Defs inside the loop (recomputed as instructions move out). *)
          let def_in_loop = Hashtbl.create 64 in
          List.iter
            (fun bid ->
              let b = Mir.block f bid in
              List.iter (fun (i : Mir.instr) -> Hashtbl.replace def_in_loop i.Mir.def true) b.Mir.phis;
              List.iter (fun (i : Mir.instr) -> Hashtbl.replace def_in_loop i.Mir.def true) b.Mir.body)
            loop.Cfg.body;
          let invariant (i : Mir.instr) =
            is_hoistable_kind ~loop_has_effects i.Mir.kind
            && List.for_all
                 (fun op -> not (Hashtbl.mem def_in_loop op))
                 (Mir.instr_operands i.Mir.kind)
          in
          let changed = ref true in
          while !changed do
            changed := false;
            List.iter
              (fun bid ->
                let b = Mir.block f bid in
                let stay, move = List.partition (fun i -> not (invariant i)) b.Mir.body in
                if move <> [] then begin
                  b.Mir.body <- stay;
                  pre.Mir.body <- pre.Mir.body @ move;
                  List.iter
                    (fun (i : Mir.instr) ->
                      Hashtbl.remove def_in_loop i.Mir.def;
                      (* Hoisted instructions cannot deoptimize (guards and
                         checked arithmetic are not hoistable); their stale
                         resume points would reference loop-interior values
                         that no longer dominate them. *)
                      i.Mir.rp <- None;
                      incr hoisted)
                    move;
                  changed := true
                end)
              loop.Cfg.body
          done
        end
      | _ -> ())
    loops;
  !hoisted
