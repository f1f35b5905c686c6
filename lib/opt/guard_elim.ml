(* Guard elision driven by the abstract interpreter (Absint), the VM's one
   bounds-check elimination (§3.6).

   Runs late in the pipeline, after specialization, constant propagation,
   GVN and the loop passes have exposed whatever the argument cache key
   implies, and deletes the guards Absint proves can never fail:

     - [Type_barrier (a, tag)] when the operand's refined tag set is
       within {tag}: uses are rewired to the unguarded operand. We also
       require the operand's *declared* type to already equal the
       barrier's result type, so the type-consistency lint keeps passing
       (the substitution must not launder an optimistic type).
     - [Check_array a]: same, against Ty_array.
     - [Bounds_check (i, a)] when the refined interval of [i] fits the
       array: the def is unused by construction (Load/Store_elem take the
       checked array and the raw index), so the guard is simply deleted;
       if anything does reference the def we leave the guard alone. The
       interval counts the induction range of a counted loop, so a check
       on [i] in a bottom-tested loop goes too; the array length counts
       only while nothing may shrink an array (conservatively any call,
       or none with [precise_alias], the paper's Figure 8 assumption).

   Deletion goes through [Mir.elide_guards], which preserves origin
   provenance for telemetry ([Guard_elided] events).

   [eliminate_overflow_checks] applies the same intervals to the implicit
   guard of checked int32 addition (§6 future work).

   The same module hosts the translation-validation side: [snapshot]
   records every guard with its position before a pass runs, and
   [validate] checks afterwards that each guard the pass removed was
   either relocated (same constructor and origin, e.g. unroll clones) or
   provably redundant/unreachable under the pre-pass abstract state. *)

type snapshot_entry = {
  s_def : Mir.def;
  s_kind : Mir.instr_kind;
  s_bid : int;
  s_idx : int;
  s_ctor : int;
  s_ofid : int;
  s_pc : int;
}

type snapshot = snapshot_entry list

let ctor_class = function
  | Mir.Type_barrier _ -> 0
  | Mir.Check_array _ -> 1
  | Mir.Bounds_check _ -> 2
  | _ -> 3

let iter_guards f fn =
  List.iter
    (fun bid ->
      let b = Mir.block f bid in
      List.iteri
        (fun idx (i : Mir.instr) -> if Mir.is_guard i.Mir.kind then fn bid idx i)
        b.Mir.body)
    f.Mir.block_order

(* Every def referenced anywhere: operands, resume points, terminators. *)
let used_defs (f : Mir.func) =
  let used = Hashtbl.create 64 in
  let mark d = Hashtbl.replace used d () in
  let mark_rp = function
    | None -> ()
    | Some rp ->
      Array.iter mark rp.Mir.rp_args;
      Array.iter mark rp.Mir.rp_locals;
      List.iter mark rp.Mir.rp_stack
  in
  List.iter
    (fun bid ->
      let b = Mir.block f bid in
      let scan (i : Mir.instr) =
        List.iter mark (Mir.instr_operands i.Mir.kind);
        mark_rp i.Mir.rp
      in
      List.iter scan b.Mir.phis;
      List.iter scan b.Mir.body;
      match b.Mir.term with
      | Mir.Branch (c, _, _) -> mark c
      | Mir.Return d -> mark d
      | Mir.Goto _ | Mir.Unreachable -> ())
    f.Mir.block_order;
  used

(* Returns the elisions performed (origin-tagged, for telemetry). *)
let run ?(precise_alias = false) (f : Mir.func) =
  let r = Absint.analyze ~precise_alias f in
  let used = used_defs f in
  let operand_ty_is a ty =
    match Mir.find_instr f a with
    | Some (ai : Mir.instr) -> ai.Mir.ty = ty
    | None -> false
  in
  let victims = ref [] in
  iter_guards f (fun bid idx i ->
      if
        Absint.block_executable r bid
        && Absint.prove r ~at:(bid, idx) ~exclude:i.Mir.def i.Mir.kind
           = Absint.Redundant
      then
        match i.Mir.kind with
        | Mir.Type_barrier (a, tag) when operand_ty_is a (Mir.ty_of_tag tag) ->
          victims := (i.Mir.def, Some a) :: !victims
        | Mir.Check_array a when operand_ty_is a Mir.Ty_array ->
          victims := (i.Mir.def, Some a) :: !victims
        | Mir.Bounds_check _ when not (Hashtbl.mem used i.Mir.def) ->
          victims := (i.Mir.def, None) :: !victims
        | _ -> ());
  Mir.elide_guards f !victims

(* Overflow-check elimination (Sol et al. style): a checked int32 add
   whose operands' intervals at its block keep the sum within int32 can
   never bail, so it becomes unchecked and drops its resume point.
   Returns the number of adds rewritten. *)
let eliminate_overflow_checks (f : Mir.func) =
  let r = Absint.analyze ~induction_ranges:true f in
  let rewritten = ref 0 in
  Mir.iter_blocks f (fun b ->
      let range d = Absint.int_range_at r ~at:b.Mir.bid d in
      List.iter
        (fun (i : Mir.instr) ->
          match i.Mir.kind with
          | Mir.Binop (Runtime.Ops.Add, x, y, Mir.Mode_int) -> (
            match (range x, range y) with
            | Some rx, Some ry
              when rx.Absint.lo + ry.Absint.lo >= Runtime.Value.int32_min
                   && rx.Absint.hi + ry.Absint.hi <= Runtime.Value.int32_max ->
              i.Mir.kind <- Mir.Binop (Runtime.Ops.Add, x, y, Mir.Mode_int_nocheck);
              i.Mir.rp <- None;
              incr rewritten
            | _ -> ())
          | _ -> ())
        b.Mir.body);
  !rewritten

(* ------------------------------------------------------------------ *)
(* Translation validation                                              *)
(* ------------------------------------------------------------------ *)

let snapshot (f : Mir.func) : snapshot =
  let out = ref [] in
  iter_guards f (fun bid idx i ->
      out :=
        {
          s_def = i.Mir.def;
          s_kind = i.Mir.kind;
          s_bid = bid;
          s_idx = idx;
          s_ctor = ctor_class i.Mir.kind;
          s_ofid = i.Mir.org.Mir.o_fid;
          s_pc = i.Mir.org.Mir.o_pc;
        }
        :: !out);
  List.rev !out

(* [pre] must be [Absint.analyze] of the function as it stood when [snap]
   was taken (the pre-pass state). Raises [Diag.Failed] on the first guard
   whose removal cannot be justified. *)
let validate ~pass ~(pre : Absint.result) ~(snap : snapshot) (f : Mir.func) =
  let present = Hashtbl.create 32 in
  let by_origin = Hashtbl.create 32 in
  iter_guards f (fun _ _ i ->
      Hashtbl.replace present i.Mir.def ();
      Hashtbl.replace by_origin
        (ctor_class i.Mir.kind, i.Mir.org.Mir.o_fid, i.Mir.org.Mir.o_pc)
        ());
  List.iter
    (fun e ->
      if not (Hashtbl.mem present e.s_def) then
        let relocated = Hashtbl.mem by_origin (e.s_ctor, e.s_ofid, e.s_pc) in
        if
          (not relocated)
          && not
               (Absint.never_fails pre ~at:(e.s_bid, e.s_idx) ~exclude:e.s_def
                  e.s_kind)
        then
          Diag.error ~layer:"absint" ~pass
            ~func:f.Mir.source.Bytecode.Program.name
            ~fid:f.Mir.source.Bytecode.Program.fid ~block:e.s_bid
            ~value:e.s_def ~pc:e.s_pc
            "guard %s removed by pass but not provably redundant under the \
             pre-pass abstract state"
            (Mir.guard_kind_name e.s_kind))
    snap
