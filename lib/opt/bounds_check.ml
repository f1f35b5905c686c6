open Runtime

type stats = { bounds_removed : int; overflow_checks_removed : int }

type range = { lo : int; hi : int }

let no_stats = { bounds_removed = 0; overflow_checks_removed = 0 }

(* Find a loop-exit comparison bounding [p] (or its step def) by a constant:
   a Branch whose condition is Cmp(Lt|Le, x, k) with exactly one successor
   outside the loop and x ∈ {p, step}. Returns the bound together with the
   in-loop successor of the test: the bound on the phi is only valid in
   blocks dominated by that edge. *)
let upper_bound (f : Mir.func) (loop : Cfg.loop) p step =
  let in_loop = Cfg.in_loop loop in
  let found = ref None in
  List.iter
    (fun bid ->
      if in_loop bid && !found = None then begin
        let b = Mir.block f bid in
        match b.Mir.term with
        | Mir.Branch (c, t_true, t_false)
          when (in_loop t_true && not (in_loop t_false))
               || (in_loop t_false && not (in_loop t_true)) -> (
          let stays_true = in_loop t_true in
          let s_block = if stays_true then t_true else t_false in
          match (Mir.instr f c).Mir.kind with
          | Mir.Cmp (op, x, k) -> (
            let x = Mir.strip_to_number f x in
            match (Mir.const_int f k, x = p || x = step) with
            | Some kv, true -> (
              (* The in-loop edge is taken when the comparison holds (for
                 Lt/Le with the loop side on true). *)
              match (op, stays_true) with
              | Ops.Lt, true -> found := Some (kv - 1, s_block)
              | Ops.Le, true -> found := Some (kv, s_block)
              | Ops.Ge, false -> found := Some (kv - 1, s_block)
              | Ops.Gt, false -> found := Some (kv, s_block)
              | _ -> ())
            | _ -> ())
          | _ -> ())
        | _ -> ()
      end)
    loop.Cfg.body;
  !found

(* [defer_bounds]: when the abstract-interpretation guard-elision pass is
   also enabled, this pass leaves Bounds_check removal to it (Guard_elim
   subsumes the local induction reasoning and records the deletion in
   telemetry exactly once); only the overflow-check rewrite stays here. *)
let run ?(precise_alias = false) ?(eliminate_overflow_checks = false)
    ?(defer_bounds = false) (f : Mir.func) =
  (* Nothing to do: the sweep is deferred and the overflow rewrite is off. *)
  if defer_bounds && not eliminate_overflow_checks then no_stats
  else
    let has_blocker = ref false in
    Mir.iter_instrs f (fun i ->
        if Absint.may_shrink ~precise_alias i.Mir.kind then has_blocker := true);
    (* Ranges of induction variables (and their step defs), each valid only
       in blocks dominated by the bounding test's in-loop edge. *)
    let ranges : (Mir.def, range * int) Hashtbl.t = Hashtbl.create 8 in
    let doms = Cfg.dominators f in
    let loops = Cfg.natural_loops f doms in
    List.iter
      (fun (loop : Cfg.loop) ->
        match Cfg.entry_edge f loop with
        | Some (_, i_pre) ->
          List.iter
            (fun { Cfg.phi = p; next = step; init = n0; stride = c } ->
              match upper_bound f loop p step with
              (* [hi >= n0] rules out a zero-trip bound (e.g. i = 5 while
                 i < 3): a test that never admits the loop body must not be
                 turned into a synthetic non-empty range, or guards in the
                 (dynamically dead but still present) body would be removed
                 on the strength of an interval no execution satisfies. *)
              | Some (hi, s_block) when n0 >= 0 && hi >= n0 ->
                Hashtbl.replace ranges p ({ lo = n0; hi }, s_block);
                Hashtbl.replace ranges step ({ lo = n0 + c; hi = hi + c }, s_block)
              | _ -> ())
            (Cfg.inductions f loop ~i_pre)
        | None -> ())
      loops;
    (* [range_of d ~at] is the range of [d] valid in block [at]. *)
    let range_of d ~at =
      match Hashtbl.find_opt ranges (Mir.strip_to_number f d) with
      | Some (r, s_block) when Cfg.dominates doms s_block at -> Some r
      | Some _ -> None
      | None -> (
        match Mir.const_int f d with Some n -> Some { lo = n; hi = n } | None -> None)
    in
    (* Remove provably safe bounds checks on compile-time-constant arrays. *)
    let bounds_removed = ref 0 in
    if (not !has_blocker) && not defer_bounds then
      List.iter
        (fun bid ->
          let b = Mir.block f bid in
          b.Mir.body <-
            List.filter
              (fun (i : Mir.instr) ->
                match i.Mir.kind with
                | Mir.Bounds_check (idx, arr) -> (
                  (* The receiver may still be wrapped in its type guard when
                     BCE runs before constant propagation folds it. *)
                  let receiver =
                    match (Mir.instr f arr).Mir.kind with
                    | Mir.Check_array inner -> (Mir.instr f inner).Mir.kind
                    | k -> k
                  in
                  match (receiver, range_of idx ~at:bid) with
                  | Mir.Constant (Value.Arr a), Some r
                    when r.lo >= 0 && r.hi < a.Value.length ->
                    incr bounds_removed;
                    false
                  | _ -> true)
                | _ -> true)
              b.Mir.body)
        f.Mir.block_order;
    (* Optional extension: overflow-check elimination on induction steps. *)
    let overflow_checks_removed = ref 0 in
    if eliminate_overflow_checks then
      Mir.iter_blocks f (fun b ->
          let at = b.Mir.bid in
          let bound d =
            match range_of d ~at with
            | Some r when r.lo >= 0 -> Some r.hi
            | _ -> None
          in
          List.iter
            (fun (i : Mir.instr) ->
              match i.Mir.kind with
              | Mir.Binop (Ops.Add, x, y, Mir.Mode_int) -> (
                match (bound x, bound y) with
                | Some hx, Some hy when hx + hy <= Value.int32_max ->
                  i.Mir.kind <- Mir.Binop (Ops.Add, x, y, Mir.Mode_int_nocheck);
                  i.Mir.rp <- None;
                  incr overflow_checks_removed
                | _ -> ())
              | _ -> ())
            b.Mir.body);
    if !bounds_removed = 0 && !overflow_checks_removed = 0 then no_stats
    else { bounds_removed = !bounds_removed; overflow_checks_removed = !overflow_checks_removed }
