(* Abstract interpretation over the MIR CFG.

   A fixpoint analysis on the product lattice

       constancy  ×  integer intervals  ×  type tags

   seeded at function entry from the specialization key: baked-in arguments
   enter the analysis as precise abstract constants, so everything
   specialization exposes (constant arrays, constant trip counts, constant
   tags) flows through joins and loops instead of only through syntactic
   constant propagation.

   The lattice, per SSA def:
     - [Bot]: no value reaches the def (unreachable, or dominated by a
       guard that always bails).
     - [Const v]: exactly the runtime value [v].
     - [Vals {tags; range}]: the value's runtime tag is within the [tags]
       bitmask; when the value is an Int, it lies within [range]
       ([None] = unconstrained).

   Widening applies at loop-header phis (targets of retreating edges in
   RPO): a growing interval bound jumps to the int32 extreme after one
   step, so ascending iteration terminates; a bounded descending (narrowing)
   pass afterwards recovers precision lost to widening where the body
   supports it. Reachability is tracked SCCP-style through executable
   edges, so constant branches prune paths the way Dce later does.

   On top of the per-def state the analysis records flow-sensitive
   refinements that are applied at query time:
     - edge facts from comparisons controlling branches (numeric bounds,
       and the symbolic [i < a.length] fact for the canonical loop shape);
     - dominating-guard facts (a passed [Type_barrier]/[Check_array] pins
       the operand's tag; a passed [Bounds_check] establishes the bounds
       fact for the same index/array pair);
     - induction ranges (the counted loop of §3.6): a counter
       [i = phi(n0, i + c)] bounded by a constant in a loop-exit
       comparison anywhere in its loop lies in [n0, bound] wherever that
       test's in-loop edge dominates, even where no dominating test
       bounds it (the bottom-tested loops inversion leaves).

   Consumers ask [prove]: can this guard, at this program point, ever
   fail? Guard elision ([Opt.Guard_elim]) deletes only [Redundant] guards;
   the translation-validation sandwich additionally accepts [Unreachable]
   (a guard removed from dead code is vacuously sound). The SCCP ablation
   ([Opt.Sccp]) reads [value_of] and [block_executable] instead: it is
   Wegman-Zadeck constant propagation folding this fixpoint's constants. *)

open Runtime

(* ------------------------------------------------------------------ *)
(* Lattice                                                             *)
(* ------------------------------------------------------------------ *)

let tag_bit = function
  | Value.Tag_undefined -> 1
  | Value.Tag_null -> 2
  | Value.Tag_bool -> 4
  | Value.Tag_int -> 8
  | Value.Tag_double -> 16
  | Value.Tag_string -> 32
  | Value.Tag_object -> 64
  | Value.Tag_array -> 128
  | Value.Tag_function -> 256

let all_tags = 511
let t_int = 8
let t_double = 16
let t_numeric = t_int lor t_double
let t_bool = 4
let t_string = 32
let t_array = 128
let t_object = 64
let t_function = 256

type itv = { lo : int; hi : int }

type aval = Bot | Const of Value.t | Vals of { tags : int; range : itv option }

let top = Vals { tags = all_tags; range = None }
let range_of_const = function Value.Int n -> Some { lo = n; hi = n } | _ -> None

(* Normalizing constructor: an empty interval removes Int from the possible
   tags; a pinned singleton interval with only Int possible is a constant;
   no possible tags is bottom. *)
let vals tags range =
  let range = if tags land t_int = 0 then None else range in
  match range with
  | Some r when r.lo > r.hi ->
    let tags = tags land lnot t_int in
    if tags = 0 then Bot else Vals { tags; range = None }
  | Some r when r.lo = r.hi && tags = t_int -> Const (Value.Int r.lo)
  | _ -> if tags = 0 then Bot else Vals { tags; range }

let tags_of = function
  | Bot -> 0
  | Const v -> tag_bit (Value.tag_of v)
  | Vals { tags; _ } -> tags

let parts = function
  | Bot -> (0, None)
  | Const v -> (tag_bit (Value.tag_of v), range_of_const v)
  | Vals { tags; range } -> (tags, range)

let equal a b =
  match (a, b) with
  | Bot, Bot -> true
  | Const x, Const y -> Value.same_value x y
  | Vals x, Vals y -> x.tags = y.tags && x.range = y.range
  | (Bot | Const _ | Vals _), _ -> false

let join a b =
  match (a, b) with
  | Bot, x | x, Bot -> x
  | Const x, Const y when Value.same_value x y -> a
  | _ ->
    let ta, ra = parts a and tb, rb = parts b in
    let range =
      match (ta land t_int <> 0, tb land t_int <> 0) with
      | false, _ -> rb
      | _, false -> ra
      | true, true -> (
        match (ra, rb) with
        | Some x, Some y -> Some { lo = min x.lo y.lo; hi = max x.hi y.hi }
        | _ -> None)
    in
    vals (ta lor tb) range

(* Widening: a bound that grew since [old] jumps to its int32 extreme, so
   each def widens at most twice before its interval is stable. *)
let widen old nv =
  if equal old nv then old
  else
    let _, old_r = parts old in
    match nv with
    | Vals { tags; range = Some r } -> (
      match old_r with
      | Some o ->
        let lo = if r.lo < o.lo then Value.int32_min else r.lo in
        let hi = if r.hi > o.hi then Value.int32_max else r.hi in
        vals tags (Some { lo; hi })
      | None -> nv)
    | _ -> nv

let meet_tags av mask =
  match av with
  | Bot -> Bot
  | Const v -> if tag_bit (Value.tag_of v) land mask <> 0 then av else Bot
  | Vals { tags; range } -> vals (tags land mask) range

let meet_range av (r : itv) =
  match av with
  | Bot -> Bot
  | Const (Value.Int n) -> if n >= r.lo && n <= r.hi then av else Bot
  | Const _ -> av
  | Vals { tags; range } ->
    if tags land t_int = 0 then av
    else
      let rr =
        match range with
        | None -> r
        | Some o -> { lo = max o.lo r.lo; hi = min o.hi r.hi }
      in
      vals tags (Some rr)

let int_range av =
  match av with
  | Const (Value.Int n) -> Some { lo = n; hi = n }
  | Vals { tags; range = Some r } when tags land t_int <> 0 -> Some r
  | _ -> None

let tags_within av mask =
  let t = tags_of av in
  t <> 0 && t land lnot mask = 0

let to_string av =
  match av with
  | Bot -> "bot"
  | Const v -> Printf.sprintf "const:%s" (Value.tag_to_string (Value.tag_of v))
  | Vals { tags; range } ->
    let names = ref [] in
    List.iter
      (fun (m, n) -> if tags land m <> 0 then names := n :: !names)
      [
        (256, "fun"); (128, "arr"); (64, "obj"); (32, "str"); (16, "dbl");
        (8, "int"); (4, "bool"); (2, "null"); (1, "undef");
      ];
    let r =
      match range with
      | Some { lo; hi } -> Printf.sprintf "[%d,%d]" lo hi
      | None -> ""
    in
    Printf.sprintf "{%s}%s" (String.concat "|" !names) r

(* ------------------------------------------------------------------ *)
(* Specialization-key entry state                                      *)
(* ------------------------------------------------------------------ *)

(* The abstract value of argument [i] the argument cache key implies:
   burned-in arguments are precise constants, tag-keyed arguments are
   tag-constrained unknowns (no value, no range), everything else is
   unknown. *)
let entry_arg (f : Mir.func) i =
  match Spec_key.at_entry f.Mir.key i with
  | Spec_key.Known_value v -> Const v
  | Spec_key.Known_tag tag -> vals (tag_bit tag) None
  | Spec_key.Unknown -> top

let entry_state (f : Mir.func) =
  Array.init f.Mir.source.Bytecode.Program.arity (entry_arg f)

(* ------------------------------------------------------------------ *)
(* Analysis result                                                     *)
(* ------------------------------------------------------------------ *)

type fact_kind =
  | F_tag of Mir.def * int        (* canonical operand satisfies tag mask *)
  | F_bounds of Mir.def * Mir.def (* canonical index in-bounds for array *)

type guard_site = { g_def : Mir.def; g_bid : int; g_idx : int; g_fact : fact_kind }

type edge_fact = {
  ef_def : Mir.def;               (* canonical def the fact refines *)
  ef_range : itv option;          (* numeric constraint when it is an Int *)
  ef_below_len : Mir.def option;  (* value < length(canonical array def) *)
}

type result = {
  r_vals : (Mir.def, aval) Hashtbl.t;
  r_exec : (int, unit) Hashtbl.t;
  r_doms : Cfg.dominators;
  r_canon : (Mir.def, Mir.def) Hashtbl.t;
  r_guards : guard_site list;
  r_edge_facts : (int * int, edge_fact list) Hashtbl.t;
  r_single_pred : (int, int) Hashtbl.t; (* block -> its unique predecessor *)
  r_addend : (Mir.def, Mir.def * int) Hashtbl.t; (* canon d = canon x + c *)
  r_inductions : (Mir.def, itv * int) Hashtbl.t; (* canon d in range below block *)
  r_shrinkers : bool; (* some instruction may shrink an array's length *)
}

let value_of r d = Option.value (Hashtbl.find_opt r.r_vals d) ~default:top
let block_executable r bid = Hashtbl.mem r.r_exec bid
let canonical r d = Option.value (Hashtbl.find_opt r.r_canon d) ~default:d

(* Does position (b1, i1) strictly dominate position (b2, i2)? Positions are
   (block, index-in-body). *)
let pos_dominates r (b1, i1) (b2, i2) =
  if b1 = b2 then i1 < i2 else Cfg.dominates r.r_doms b1 b2

(* ------------------------------------------------------------------ *)
(* Fixpoint                                                            *)
(* ------------------------------------------------------------------ *)

let abs_binop op a b (mode : Mir.num_mode) =
  match (a, b) with
  | Const va, Const vb -> Const (Ops.binop op va vb)
  | Bot, _ | _, Bot -> Bot
  | _ -> (
    match op with
    | Ops.Bit_and | Ops.Bit_or | Ops.Bit_xor | Ops.Shl | Ops.Shr ->
      vals t_int None
    | Ops.Add | Ops.Sub | Ops.Mul -> (
      match mode with
      | Mir.Mode_int | Mir.Mode_int_nocheck ->
        (* Checked int arithmetic bails outside the int32 range (and the
           nocheck mode was proven exact), so the result is an int32 and
           interval arithmetic clamps soundly. *)
        let r =
          match (int_range a, int_range b) with
          | Some x, Some y ->
            let lo, hi =
              match op with
              | Ops.Add -> (x.lo + y.lo, x.hi + y.hi)
              | Ops.Sub -> (x.lo - y.hi, x.hi - y.lo)
              | _ ->
                let ps = [ x.lo * y.lo; x.lo * y.hi; x.hi * y.lo; x.hi * y.hi ] in
                (List.fold_left min max_int ps, List.fold_left max min_int ps)
            in
            Some { lo = max lo Value.int32_min; hi = min hi Value.int32_max }
          | _ -> None
        in
        vals t_int r
      | Mir.Mode_double -> vals t_numeric None
      | Mir.Mode_generic -> top (* generic Add may concatenate strings *))
    | Ops.Mod | Ops.Ushr -> (
      match mode with
      | Mir.Mode_int | Mir.Mode_int_nocheck -> vals t_int None
      | Mir.Mode_double -> vals t_numeric None
      | Mir.Mode_generic -> top)
    | Ops.Div -> (
      match mode with
      | Mir.Mode_int | Mir.Mode_int_nocheck | Mir.Mode_double -> vals t_numeric None
      | Mir.Mode_generic -> top))

let abs_unop op a =
  match a with
  | Const va -> Const (Ops.unop op va)
  | Bot -> Bot
  | _ -> (
    match op with
    | Ops.Not -> vals t_bool None
    | Ops.Bit_not -> vals t_int None
    | Ops.Typeof -> vals t_string None
    | Ops.Neg -> vals t_numeric None
    | Ops.To_number -> if tags_within a t_int then a else vals t_numeric None)

(* Alias discipline: which instructions make a compile-time array length
   untrustworthy as an upper bound. Element stores only ever grow an array
   in this VM, so the compile-time length stays a valid LOWER bound on the
   runtime length and stores never block. What can shrink a length is a
   [pop]/[shift]/[splice] method call, an explicit [x.length = n] store, or
   — conservatively — any call, which might reach one of those on an alias.
   [precise_alias] is the paper's Figure 8 assumption that callees do not
   alias the specialized array. *)
let may_shrink ~precise_alias (kind : Mir.instr_kind) =
  match kind with
  | Mir.Store_prop (_, p, _) -> p = "length"
  | Mir.Method_call (_, m, _) -> m = "pop" || m = "shift" || m = "splice"
  | Mir.Call _ | Mir.Call_known _ -> not precise_alias
  | Mir.Call_native (name, _) -> not (Builtins.is_pure name)
  | _ -> false

(* The inclusive constant bound a loop-exit comparison puts on induction
   [ind], and the block below which it holds: a branch in the loop with
   exactly one successor outside it, on [Cmp (op, x, k)] with [x] the
   counter or its step and [k] a constant. The bound holds below the
   test's in-loop successor [s] when the edge into [s] dominates it ([s]
   has no other predecessor), and below the header when the test is on
   the step and loops back to the header: every counter value but the
   initial one passed the test. The first such test in body order wins. *)
let exit_bound (f : Mir.func) (loop : Cfg.loop) (ind : Cfg.induction) =
  let in_loop = Cfg.in_loop loop in
  List.find_map
    (fun bid ->
      match (Mir.block f bid).Mir.term with
      | Mir.Branch (c, t, e) when in_loop t <> in_loop e -> (
        let stays_true = in_loop t in
        let s = if stays_true then t else e in
        match (Mir.instr f c).Mir.kind with
        | Mir.Cmp (op, x, k) -> (
          let x = Mir.strip_to_number f x in
          let holds_below_s =
            (Mir.block f s).Mir.preds = [ bid ] || (s = loop.Cfg.header && x = ind.Cfg.next)
          in
          match Mir.const_int f k with
          | Some kv when holds_below_s && (x = ind.Cfg.phi || x = ind.Cfg.next) -> (
            (* The in-loop edge is taken when [x op k] holds on the true
               side, or fails on the false side. *)
            match (op, stays_true) with
            | Ops.Lt, true | Ops.Ge, false -> Some (kv - 1, s)
            | Ops.Le, true | Ops.Gt, false -> Some (kv, s)
            | _ -> None)
          | _ -> None)
        | _ -> None)
      | _ -> None)
    loop.Cfg.body

let analyze ?(precise_alias = false) ?(induction_ranges = false) (f : Mir.func) =
  let vals_tbl : (Mir.def, aval) Hashtbl.t = Hashtbl.create 64 in
  let lookup d = Option.value (Hashtbl.find_opt vals_tbl d) ~default:Bot in
  let instr_of d = Mir.find_instr f d in
  let exec_blocks = Hashtbl.create 16 in
  let exec_edges = Hashtbl.create 32 in
  let doms = Cfg.dominators f in
  let rpo = Mir.reverse_postorder f in
  (* Loop headers: targets of retreating edges in RPO. Widening there. *)
  let rpo_index = Hashtbl.create 16 in
  List.iteri (fun i b -> Hashtbl.replace rpo_index b i) rpo;
  let idx_of b = Option.value (Hashtbl.find_opt rpo_index b) ~default:max_int in
  let widen_at = Hashtbl.create 4 in
  List.iter
    (fun bid ->
      List.iter
        (fun s -> if idx_of s <= idx_of bid then Hashtbl.replace widen_at s ())
        (Mir.successors (Mir.block f bid)))
    rpo;
  (* def -> blocks that must re-evaluate when it changes. *)
  let users : (Mir.def, int list ref) Hashtbl.t = Hashtbl.create 64 in
  let add_user d bid =
    match Hashtbl.find_opt users d with
    | Some l -> if not (List.mem bid !l) then l := bid :: !l
    | None -> Hashtbl.replace users d (ref [ bid ])
  in
  List.iter
    (fun bid ->
      let b = Mir.block f bid in
      let scan (i : Mir.instr) =
        List.iter (fun op -> add_user op bid) (Mir.instr_operands i.Mir.kind)
      in
      List.iter scan b.Mir.phis;
      List.iter scan b.Mir.body;
      match b.Mir.term with Mir.Branch (c, _, _) -> add_user c bid | _ -> ())
    f.Mir.block_order;
  let work = Queue.create () in
  let queued = Hashtbl.create 16 in
  let enqueue bid =
    if Hashtbl.mem exec_blocks bid && not (Hashtbl.mem queued bid) then begin
      Hashtbl.replace queued bid ();
      Queue.add bid work
    end
  in
  let mark_edge p s =
    if not (Hashtbl.mem exec_edges (p, s)) then begin
      Hashtbl.replace exec_edges (p, s) ();
      if not (Hashtbl.mem exec_blocks s) then Hashtbl.replace exec_blocks s ();
      enqueue s
    end
  in
  let transfer (i : Mir.instr) =
    match i.Mir.kind with
    | Mir.Constant v -> Const v
    | Mir.Parameter idx -> entry_arg f idx
    | Mir.Osr_value _ -> top
    | Mir.Phi _ -> assert false (* handled per-edge in eval_block *)
    | Mir.Box a -> lookup a
    | Mir.Type_barrier (a, tag) -> meet_tags (lookup a) (tag_bit tag)
    | Mir.Check_array a -> meet_tags (lookup a) t_array
    | Mir.Bounds_check (idx, _) ->
      meet_range (meet_tags (lookup idx) t_int) { lo = 0; hi = Value.int32_max }
    | Mir.Binop (op, a, b, mode) -> abs_binop op (lookup a) (lookup b) mode
    | Mir.Cmp (op, a, b) -> (
      match (lookup a, lookup b) with
      | Const va, Const vb -> Const (Ops.cmp op va vb)
      | Bot, _ | _, Bot -> Bot
      | _ -> vals t_bool None)
    | Mir.Unop (op, a) -> abs_unop op (lookup a)
    | Mir.To_bool a -> (
      match lookup a with
      | Const va -> Const (Value.Bool (Convert.to_boolean va))
      | Bot -> Bot
      | av ->
        if tags_within av (tag_bit Value.Tag_undefined lor tag_bit Value.Tag_null)
        then Const (Value.Bool false)
        else vals t_bool None)
    | Mir.String_length a -> (
      match lookup a with
      | Const (Value.Str s) -> Const (Value.Int (String.length s))
      | Bot -> Bot
      | _ -> vals t_int (Some { lo = 0; hi = Value.int32_max }))
    | Mir.Array_length _ -> vals t_int (Some { lo = 0; hi = Value.int32_max })
    | Mir.Call_native (name, args) when Builtins.is_pure name -> (
      let cs = Array.map (fun d -> match lookup d with Const v -> Some v | _ -> None) args in
      if Array.for_all Option.is_some cs then
        try Const (Builtins.call name (Array.map Option.get cs)) with _ -> top
      else top)
    | Mir.New_array _ -> vals t_array None
    | Mir.New_object _ -> vals t_object None
    | Mir.Make_closure _ -> vals t_function None
    | Mir.Load_elem _ | Mir.Elem_generic _ | Mir.Load_prop _ | Mir.Call _
    | Mir.Call_known _ | Mir.Call_native _ | Mir.Method_call _ | Mir.Construct _
    | Mir.Get_global _ | Mir.Get_cell _ | Mir.Get_upval _ | Mir.Load_captured _
    | Mir.Store_elem _ | Mir.Store_elem_generic _ | Mir.Store_prop _
    | Mir.Set_global _ | Mir.Set_cell _ | Mir.Set_upval _ | Mir.Store_captured _ ->
      top
  in
  let truthiness av =
    match av with
    | Const v -> Some (Convert.to_boolean v)
    | _ -> None
  in
  (* [narrowing]: recompute directly (no join with the previous state, no
     widening); the state stays above the least fixpoint because the
     transfer is monotone. *)
  let eval_block ~narrowing bid =
    let b = Mir.block f bid in
    let changed = ref [] in
    let update (i : Mir.instr) fresh =
      let cur = lookup i.Mir.def in
      let nv =
        if narrowing then fresh
        else
          let j = join cur fresh in
          if Hashtbl.mem widen_at bid &&
             (match i.Mir.kind with Mir.Phi _ -> true | _ -> false)
          then widen cur j
          else j
      in
      if not (equal cur nv) then begin
        Hashtbl.replace vals_tbl i.Mir.def nv;
        changed := i.Mir.def :: !changed
      end
    in
    let preds = Array.of_list b.Mir.preds in
    List.iter
      (fun (phi : Mir.instr) ->
        match phi.Mir.kind with
        | Mir.Phi ops ->
          let v = ref Bot in
          Array.iteri
            (fun k op ->
              if k < Array.length preds && Hashtbl.mem exec_edges (preds.(k), bid)
              then v := join !v (lookup op))
            ops;
          update phi !v
        | _ -> update phi (transfer phi))
      b.Mir.phis;
    List.iter (fun (i : Mir.instr) -> update i (transfer i)) b.Mir.body;
    (match b.Mir.term with
    | Mir.Goto t -> mark_edge bid t
    | Mir.Branch (c, t, e) -> (
      match truthiness (lookup c) with
      | Some true -> mark_edge bid t
      | Some false -> mark_edge bid e
      | None -> (
        match lookup c with
        | Bot -> () (* condition unreachable: successors stay unmarked *)
        | _ ->
          mark_edge bid t;
          mark_edge bid e))
    | Mir.Return _ | Mir.Unreachable -> ());
    !changed
  in
  List.iter
    (fun e ->
      Hashtbl.replace exec_blocks e ();
      enqueue e)
    (Mir.entry_blocks f);
  let steps = ref 0 in
  let budget = 64 * (1 + Mir.all_instr_count f) in
  let overflowed = ref false in
  while not (Queue.is_empty work) && not !overflowed do
    incr steps;
    if !steps > budget then overflowed := true
    else begin
      let bid = Queue.pop work in
      Hashtbl.remove queued bid;
      let changed = eval_block ~narrowing:false bid in
      List.iter
        (fun d ->
          match Hashtbl.find_opt users d with
          | Some l -> List.iter enqueue !l
          | None -> ())
        changed
    end
  done;
  if !overflowed then begin
    (* Emergency degrade (should be unreachable: widening bounds the chain
       height): force everything to the conservative state. *)
    Mir.iter_instrs f (fun i -> Hashtbl.replace vals_tbl i.Mir.def top);
    List.iter
      (fun bid ->
        Hashtbl.replace exec_blocks bid ();
        List.iter
          (fun s -> Hashtbl.replace exec_edges (bid, s) ())
          (Mir.successors (Mir.block f bid)))
      f.Mir.block_order
  end
  else begin
    (* One descending (narrowing) pass in RPO over executable blocks. *)
    Queue.clear work;
    Hashtbl.reset queued;
    List.iter
      (fun bid ->
        if Hashtbl.mem exec_blocks bid then ignore (eval_block ~narrowing:true bid))
      rpo
  end;
  (* ---- post-fixpoint: canonicalization, facts ---- *)
  let chase_tbl = Hashtbl.create 64 in
  let rec chase fuel d =
    match Hashtbl.find_opt chase_tbl d with
    | Some c -> c
    | None ->
      let c =
        if fuel = 0 then d
        else
          match instr_of d with
          | None -> d
          | Some i -> (
            match i.Mir.kind with
            | Mir.Type_barrier (a, _) | Mir.Check_array a | Mir.Box a ->
              chase (fuel - 1) a
            | Mir.Bounds_check (idx, _) -> chase (fuel - 1) idx
            | Mir.Unop (Ops.To_number, a) when tags_within (lookup a) t_int ->
              chase (fuel - 1) a
            | _ -> d)
      in
      Hashtbl.replace chase_tbl d c;
      c
  in
  let chase d = chase 64 d in
  (* Defs with the same [Const] abstract value collapse to one
     representative, keyed the way GVN numbers constants (heap values by
     identity, doubles by bits, other primitives by tag + display), so the
     guard facts below survive GVN's constant dedup: a Bounds_check whose
     duplicate (index, array) constants GVN resolved away still matches
     the dominating guard's fact. The first def canonicalized wins —
     [iter_instrs] order, hence deterministic. *)
  let const_key v =
    match v with
    | Value.Obj o -> Printf.sprintf "obj%d" o.Value.oid
    | Value.Arr a -> Printf.sprintf "arr%d" a.Value.aid
    | Value.Closure c -> Printf.sprintf "clo%d" c.Value.cid
    | Value.Double fl -> Printf.sprintf "d%Lx" (Int64.bits_of_float fl)
    | Value.Undefined | Value.Null | Value.Bool _ | Value.Int _ | Value.Str _
    | Value.Native_fun _ ->
      Printf.sprintf "%s:%s"
        (Value.tag_to_string (Value.tag_of v))
        (Value.to_display_string v)
  in
  let const_rep = Hashtbl.create 32 in
  let canon_tbl = Hashtbl.create 64 in
  let canon d =
    match Hashtbl.find_opt canon_tbl d with
    | Some c -> c
    | None ->
      let c = chase d in
      let c =
        match lookup c with
        | Const v -> (
          let k = const_key v in
          match Hashtbl.find_opt const_rep k with
          | Some r -> r
          | None ->
            Hashtbl.add const_rep k c;
            c)
        | _ -> c
      in
      Hashtbl.replace canon_tbl d c;
      c
  in
  Mir.iter_instrs f (fun i -> ignore (canon i.Mir.def));
  (* One-level linear relation: canon d = canon x + c (checked int step). *)
  let addend = Hashtbl.create 16 in
  Mir.iter_instrs f (fun i ->
      match i.Mir.kind with
      | Mir.Binop (Ops.Add, a, b, (Mir.Mode_int | Mir.Mode_int_nocheck)) -> (
        let const_side d = match lookup (canon d) with
          | Const (Value.Int n) -> Some n
          | _ -> (match lookup d with Const (Value.Int n) -> Some n | _ -> None)
        in
        match (const_side b, const_side a) with
        | Some c, _ -> Hashtbl.replace addend (canon i.Mir.def) (canon a, c)
        | _, Some c -> Hashtbl.replace addend (canon i.Mir.def) (canon b, c)
        | None, None -> ())
      | _ -> ());
  (* Guard sites (facts established once the guard passes). *)
  let guards = ref [] in
  List.iter
    (fun bid ->
      let b = Mir.block f bid in
      List.iteri
        (fun idx (i : Mir.instr) ->
          let site fact =
            guards := { g_def = i.Mir.def; g_bid = bid; g_idx = idx; g_fact = fact } :: !guards
          in
          match i.Mir.kind with
          | Mir.Type_barrier (a, tag) -> site (F_tag (canon a, tag_bit tag))
          | Mir.Check_array a -> site (F_tag (canon a, t_array))
          | Mir.Bounds_check (idx_d, arr) -> site (F_bounds (canon idx_d, canon arr))
          | _ -> ())
        b.Mir.body)
    f.Mir.block_order;
  (* Edge facts from branch comparisons, recorded on single-pred targets
     (there, edge dominance coincides with block dominance). *)
  let edge_facts = Hashtbl.create 16 in
  let single_pred = Hashtbl.create 16 in
  List.iter
    (fun bid ->
      let b = Mir.block f bid in
      match b.Mir.preds with
      | [ p ] -> Hashtbl.replace single_pred bid p
      | _ -> ())
    f.Mir.block_order;
  let strip_len d =
    (* Array_length through an optional To_number wrapper. *)
    let d' =
      match instr_of d with
      | Some { Mir.kind = Mir.Unop (Ops.To_number, x); _ } -> x
      | _ -> d
    in
    match instr_of d' with
    | Some { Mir.kind = Mir.Array_length a; _ } -> Some (canon a)
    | _ -> None
  in
  let rec cond_root fuel d sense =
    if fuel = 0 then (d, sense)
    else
      match instr_of d with
      | Some { Mir.kind = Mir.To_bool x; _ } -> cond_root (fuel - 1) x sense
      | Some { Mir.kind = Mir.Unop (Ops.Not, x); _ } -> cond_root (fuel - 1) x (not sense)
      | _ -> (d, sense)
  in
  let add_edge_fact p s fact =
    if Hashtbl.find_opt single_pred s = Some p then begin
      let cur = Option.value (Hashtbl.find_opt edge_facts (p, s)) ~default:[] in
      Hashtbl.replace edge_facts (p, s) (fact :: cur)
    end
  in
  let cmp_facts op x y ~holds =
    (* Facts valid when [x op y] evaluates to [holds], for int-tagged x/y. *)
    let facts = ref [] in
    let xr = int_range (lookup x) and yr = int_range (lookup y) in
    let x_int = tags_within (lookup x) t_int and y_int = tags_within (lookup y) t_int in
    let bound_hi d v = facts := { ef_def = canon d; ef_range = Some { lo = Value.int32_min; hi = v }; ef_below_len = None } :: !facts in
    let bound_lo d v = facts := { ef_def = canon d; ef_range = Some { lo = v; hi = Value.int32_max }; ef_below_len = None } :: !facts in
    let sat_plus v k = if v > Value.int32_max - 1_000_000 then v else v + k in
    (match (op, holds) with
    | Ops.Lt, true | Ops.Ge, false ->
      (* x < y *)
      if x_int && y_int then begin
        (match yr with Some r -> bound_hi x (r.hi - 1) | None -> ());
        (match xr with Some r -> bound_lo y (sat_plus r.lo 1) | None -> ())
      end;
      if x_int then
        (match strip_len y with
        | Some arr -> facts := { ef_def = canon x; ef_range = None; ef_below_len = Some arr } :: !facts
        | None -> ())
    | Ops.Le, true | Ops.Gt, false ->
      if x_int && y_int then begin
        (match yr with Some r -> bound_hi x r.hi | None -> ());
        (match xr with Some r -> bound_lo y r.lo | None -> ())
      end
    | Ops.Gt, true | Ops.Le, false ->
      (* x > y *)
      if x_int && y_int then begin
        (match yr with Some r -> bound_lo x (sat_plus r.lo 1) | None -> ());
        (match xr with Some r -> bound_hi y (r.hi - 1) | None -> ())
      end;
      if y_int then
        (match strip_len x with
        | Some arr -> facts := { ef_def = canon y; ef_range = None; ef_below_len = Some arr } :: !facts
        | None -> ())
    | Ops.Ge, true | Ops.Lt, false ->
      if x_int && y_int then begin
        (match yr with Some r -> bound_lo x r.lo | None -> ());
        (match xr with Some r -> bound_hi y r.hi | None -> ())
      end
    | (Ops.Eq | Ops.Strict_eq), true | (Ops.Neq | Ops.Strict_neq), false ->
      if x_int && y_int then begin
        (match yr with
        | Some r -> facts := { ef_def = canon x; ef_range = Some r; ef_below_len = None } :: !facts
        | None -> ());
        (match xr with
        | Some r -> facts := { ef_def = canon y; ef_range = Some r; ef_below_len = None } :: !facts
        | None -> ())
      end
    | (Ops.Eq | Ops.Strict_eq), false | (Ops.Neq | Ops.Strict_neq), true -> ());
    !facts
  in
  List.iter
    (fun bid ->
      let b = Mir.block f bid in
      match b.Mir.term with
      | Mir.Branch (c, t, e) when t <> e -> (
        let root, sense = cond_root 4 c true in
        match instr_of root with
        | Some { Mir.kind = Mir.Cmp (op, x, y); _ } ->
          List.iter (add_edge_fact bid t) (cmp_facts op x y ~holds:sense);
          List.iter (add_edge_fact bid e) (cmp_facts op x y ~holds:(not sense))
        | _ -> ())
      | _ -> ())
    f.Mir.block_order;
  (* Induction ranges, computed only where a consumer reads them: a
     function with a loop and a bounds check, or a caller that asks. The
     zero-trip rule [hi >= n0] keeps a test that never admits the body
     (i = 5 while i < 3) from yielding an empty range, which would call
     the first iteration of a bottom-tested loop unreachable. *)
  let inductions = Hashtbl.create 8 in
  let has_bounds_check =
    List.exists (fun g -> match g.g_fact with F_bounds _ -> true | F_tag _ -> false) !guards
  in
  if Hashtbl.length widen_at > 0 && (induction_ranges || has_bounds_check) then
    List.iter
      (fun (loop : Cfg.loop) ->
        match Cfg.entry_edge f loop with
        | Some (_, i_pre) ->
          List.iter
            (fun (ind : Cfg.induction) ->
              match exit_bound f loop ind with
              | Some (hi, s) when hi >= ind.Cfg.init ->
                let c = ind.Cfg.stride in
                Hashtbl.replace inductions (canon ind.Cfg.phi) ({ lo = ind.Cfg.init; hi }, s);
                Hashtbl.replace inductions (canon ind.Cfg.next)
                  ({ lo = ind.Cfg.init + c; hi = hi + c }, s)
              | _ -> ())
            (Cfg.inductions f loop ~i_pre)
        | None -> ())
      (Cfg.natural_loops f doms);
  let shrinkers = ref false in
  Mir.iter_instrs f (fun i ->
      if may_shrink ~precise_alias i.Mir.kind then shrinkers := true);
  {
    r_vals = vals_tbl;
    r_exec = exec_blocks;
    r_doms = doms;
    r_canon = canon_tbl;
    r_guards = List.rev !guards;
    r_edge_facts = edge_facts;
    r_single_pred = single_pred;
    r_addend = addend;
    r_inductions = inductions;
    r_shrinkers = !shrinkers;
  }

(* ------------------------------------------------------------------ *)
(* Guard redundancy queries                                            *)
(* ------------------------------------------------------------------ *)

type proof =
  | Redundant    (* the guard provably never fails where it stands *)
  | Unreachable  (* the guard's program point provably never executes *)
  | Unknown

let meet_itv a b =
  match (a, b) with
  | Some x, Some y -> Some { lo = max x.lo y.lo; hi = min x.hi y.hi }
  | x, None | None, x -> x

(* Walk the dominator chain from [bid] collecting refinements applicable to
   canonical def [x]: numeric intersections and below-length facts, with a
   one-level linear rewrite through [r_addend] (a fact about x+c bounds x),
   starting from [x]'s induction range where it holds. *)
let refinements r x ~at =
  let range =
    ref
      (match Hashtbl.find_opt r.r_inductions x with
      | Some (rr, s) when Cfg.dominates r.r_doms s at -> Some rr
      | _ -> None)
  in
  let below = ref [] in
  let apply_range rr = range := meet_itv !range (Some rr) in
  let apply_fact (ef : edge_fact) target =
    if ef.ef_def = target then begin
      (match ef.ef_range with Some rr -> apply_range rr | None -> ());
      match ef.ef_below_len with Some arr -> below := arr :: !below | None -> ()
    end
    else
      (* One level of y = x + c: a bound on y bounds x by c less. *)
      match Hashtbl.find_opt r.r_addend ef.ef_def with
      | Some (base, c) when base = target ->
        (match ef.ef_range with
        | Some rr -> apply_range { lo = rr.lo - c; hi = rr.hi - c }
        | None -> ());
        (match ef.ef_below_len with
        | Some arr when c >= 0 -> below := arr :: !below
        | _ -> ())
      | _ -> ()
  in
  let rec walk bid =
    (match Hashtbl.find_opt r.r_single_pred bid with
    | Some p -> (
      match Hashtbl.find_opt r.r_edge_facts (p, bid) with
      | Some facts -> List.iter (fun ef -> apply_fact ef x) facts
      | None -> ())
    | None -> ());
    match Cfg.immediate_dominator r.r_doms bid with
    | Some p -> walk p
    | None -> ()
  in
  walk at;
  (!range, !below)

(* Tag mask of canonical [x] at position [at], counting dominating guard
   facts (excluding the guard being judged). *)
let refined_tags r x ~at ~exclude base =
  List.fold_left
    (fun acc g ->
      match g.g_fact with
      | F_tag (y, mask)
        when y = x && g.g_def <> exclude
             && block_executable r g.g_bid
             && pos_dominates r (g.g_bid, g.g_idx) at ->
        acc land mask
      | _ -> acc)
    base r.r_guards

let prove r ~at:(bid, idx) ~exclude (kind : Mir.instr_kind) =
  if not (block_executable r bid) then Unreachable
  else
    let tag_proof a mask =
      let av = value_of r a in
      if equal av Bot then Unreachable
      else
        let tags = refined_tags r (canonical r a) ~at:(bid, idx) ~exclude (tags_of av) in
        if tags = 0 then Unreachable
        else if tags land lnot mask = 0 then Redundant
        else Unknown
    in
    match kind with
    | Mir.Type_barrier (a, tag) -> tag_proof a (tag_bit tag)
    | Mir.Check_array a -> tag_proof a t_array
    | Mir.Bounds_check (i, arr) -> (
      let av = value_of r i in
      if equal av Bot then Unreachable
      else if not (tags_within av t_int) then Unknown
      else
        let i_c = canonical r i and arr_c = canonical r arr in
        (* A dominating identical bounds check makes this one redundant
           only while lengths cannot shrink in between. *)
        let dominated_by_same =
          (not r.r_shrinkers)
          && List.exists
               (fun g ->
                 match g.g_fact with
                 | F_bounds (i', a') ->
                   i' = i_c && a' = arr_c && g.g_def <> exclude
                   && block_executable r g.g_bid
                   && pos_dominates r (g.g_bid, g.g_idx) (bid, idx)
                 | F_tag _ -> false)
               r.r_guards
        in
        if dominated_by_same then Redundant
        else
          let refined, below = refinements r i_c ~at:bid in
          match meet_itv (int_range av) refined with
          | Some { lo; hi } when lo > hi -> Unreachable (* dead iteration space *)
          | Some { lo; hi } when lo >= 0 ->
            let len_ok =
              (not r.r_shrinkers)
              && ((match value_of r arr with
                  | Const (Value.Arr a) -> hi < a.Value.length
                  | _ -> false)
                 || List.mem arr_c below)
            in
            if len_ok then Redundant else Unknown
          | _ -> Unknown)
    | _ -> Unknown

let never_fails r ~at ~exclude kind = prove r ~at ~exclude kind <> Unknown

let int_range_at r ~at d =
  let av = value_of r d in
  if tags_within av t_int then meet_itv (int_range av) (fst (refinements r (canonical r d) ~at))
  else None

(* Provably-redundant guards still present in [f] (the missed-guard
   report): guards in executable blocks whose own analysis proves them
   redundant without counting themselves. *)
let survivors r (f : Mir.func) =
  let out = ref [] in
  List.iter
    (fun bid ->
      if block_executable r bid then begin
        let b = Mir.block f bid in
        List.iteri
          (fun idx (i : Mir.instr) ->
            if Mir.is_guard i.Mir.kind
               && prove r ~at:(bid, idx) ~exclude:i.Mir.def i.Mir.kind = Redundant
            then out := (bid, i) :: !out)
          b.Mir.body
      end)
    f.Mir.block_order;
  List.rev !out
