(* The Middle-level Intermediate Representation: SSA three-address code over
   basic blocks, the format the paper's optimizations operate on (Section
   3.1). A function graph has up to two entry points: the function entry
   block and, when compiled during interpretation, the on-stack-replacement
   (OSR) block.

   Guard instructions (type barriers, array checks, bounds checks) carry
   resume points: snapshots mapping the live bytecode state (args, locals,
   operand stack) to SSA definitions, so that a failing guard can hand
   execution back to the interpreter at the precise bytecode pc. *)

open Runtime

type ty =
  | Ty_value  (* boxed: any runtime value *)
  | Ty_int32
  | Ty_double
  | Ty_bool
  | Ty_string
  | Ty_object
  | Ty_array
  | Ty_function
  | Ty_undefined
  | Ty_null

type def = int

(* Provenance tag threaded from bytecode through every lowering stage so the
   profiler can charge simulated cycles back to the source construct that
   caused them. [o_pass] names the stage that created the instruction:
   "build" for the builder, a pipeline pass name for pass-inserted
   instructions, "lower" for LIR-only artifacts such as phi edge copies. *)
type origin = {
  o_fid : int;  (* bytecode function id *)
  o_pc : int;  (* bytecode pc the instruction derives from *)
  o_def : int;  (* MIR def id at creation time *)
  o_pass : string;  (* stage that produced the instruction *)
}

type resume_point = {
  rp_pc : int;  (* bytecode pc to resume at (instruction to re-execute) *)
  rp_args : def array;
  rp_locals : def array;
  rp_stack : def list;  (* bottom first *)
}

(* Arithmetic lowering mode chosen by the builder from operand types. *)
type num_mode =
  | Mode_int
      (* int32 fast path with an overflow/inexactness guard: bails to the
         interpreter when the JS result is not an int32 (overflow, NaN from
         x%0, ...). Pure bitwise operators never need the guard. *)
  | Mode_int_nocheck
      (* int32 fast path with the guard elided because a range analysis
         proved the result exact (the overflow-check elimination of
         Sol et al. that the paper lists as future work). *)
  | Mode_double
  | Mode_generic  (* boxed, full JS semantics *)

type instr_kind =
  | Parameter of int
  | Osr_value of osr_slot  (* live interpreter-frame value entering via OSR *)
  | Constant of Value.t
  | Phi of def array  (* operands align with the block's preds list *)
  | Box of def  (* no-op at runtime in this VM; models (re)boxing cost *)
  | Type_barrier of def * Value.tag  (* guard *)
  | Check_array of def  (* guard: receiver is an array *)
  | Bounds_check of def * def  (* guard: index, array; 0 <= i < length *)
  | Binop of Ops.binop * def * def * num_mode
  | Cmp of Ops.cmp * def * def
  | Unop of Ops.unop * def
  | Load_elem of def * def  (* array, index; bounds already checked *)
  | Store_elem of def * def * def  (* array, index, value; checked *)
  | Elem_generic of def * def  (* fully generic a[i] read *)
  | Store_elem_generic of def * def * def
  | Load_prop of def * string
  | Store_prop of def * string * def
  | Array_length of def
  | String_length of def
  | Call of def * def array  (* dynamic callee *)
  | Call_known of int * def * def array  (* fid, callee closure def, args *)
  | Call_native of string * def array
  | Method_call of def * string * def array
  | New_array of def array
  | Construct of string * def array
  | New_object of string array * def array
  | Make_closure of int * Bytecode.Instr.capture array
  | Get_global of int
  | Set_global of int * def
  | Get_cell of int
  | Set_cell of int * def
  | Get_upval of int
  | Set_upval of int * def
  | Load_captured of Value.t ref  (* direct cell pointer baked by inlining *)
  | Store_captured of Value.t ref * def
  | To_bool of def  (* branch-condition coercion *)

and osr_slot = Osr_arg of int | Osr_local of int

type instr = {
  def : def;
  mutable kind : instr_kind;
  mutable ty : ty;
  mutable rp : resume_point option;
  mutable org : origin;
}

type terminator =
  | Goto of int
  | Branch of def * int * int  (* condition, then-block, else-block *)
  | Return of def
  | Unreachable

type block = {
  bid : int;
  mutable phis : instr list;
  mutable body : instr list;
  mutable term : terminator;
  mutable preds : int list;  (* order matters: phi operands align with it *)
}

type func = {
  source : Bytecode.Program.func;
  entry : int;
  mutable osr_entry : int option;
  mutable osr_loop_header : int option;  (* block the OSR path joins *)
  mutable blocks : block option array;
      (* indexed by block id; holds exactly the blocks in [block_order] *)
  mutable block_order : int list;  (* layout order; entry first *)
  mutable next_def : int;
  mutable next_block : int;
  mutable defs : instr option array;
      (* indexed by def; a deleted instruction keeps its record *)
  mutable key : Spec_key.t;
      (* the argument-cache key this graph was built for: what the probe
         admits is exactly what the entry may assume
         ([Spec_key.at_entry]) *)
  mutable no_checked_int : bool;
      (* overflow feedback: a previous binary of this function bailed on an
         int32 overflow guard, so arithmetic compiles on the double path *)
  mutable cur_pc : int;
      (* provenance context: bytecode pc the builder is currently
         translating; instructions created while it is set inherit it *)
  mutable cur_pass : string;
      (* provenance context: stage currently creating instructions
         ("build" during construction, the pass name during a pipeline
         pass — maintained by [Pipeline.run_pass]) *)
}

(* ------------------------------------------------------------------ *)
(* Construction helpers                                                *)
(* ------------------------------------------------------------------ *)

let create_func source =
  {
    source;
    entry = 0;
    osr_entry = None;
    osr_loop_header = None;
    blocks = Array.make 16 None;
    block_order = [];
    next_def = 0;
    next_block = 0;
    defs = Array.make 64 None;
    key = Spec_key.Key_generic;
    no_checked_int = false;
    cur_pc = 0;
    cur_pass = "build";
  }

(* The block and def tables are dense arrays indexed by id, grown by
   doubling; only this module reads or writes them. *)
let slot tbl i = if i >= 0 && i < Array.length tbl then tbl.(i) else None

let grown tbl i =
  if i < Array.length tbl then tbl
  else begin
    let t = Array.make (max (i + 1) (2 * Array.length tbl)) None in
    Array.blit tbl 0 t 0 (Array.length tbl);
    t
  end

let has_block f bid = slot f.blocks bid <> None
let block f bid = match slot f.blocks bid with Some b -> b | None -> raise Not_found
let iter_blocks f fn = List.iter (fun bid -> fn (block f bid)) f.block_order

(* The instruction record of a def; deleted instructions keep theirs. *)
let find_instr f d = slot f.defs d
let instr f d = match slot f.defs d with Some i -> i | None -> raise Not_found

(* Record [i] as the instruction of its def. Instructions built by hand
   (copies) must be registered before they are laid out. *)
let register f i =
  f.defs <- grown f.defs i.def;
  f.defs.(i.def) <- Some i

let new_block f =
  let bid = f.next_block in
  f.next_block <- f.next_block + 1;
  let b = { bid; phis = []; body = []; term = Unreachable; preds = [] } in
  f.blocks <- grown f.blocks bid;
  f.blocks.(bid) <- Some b;
  f.block_order <- f.block_order @ [ bid ];
  b

(* Delete blocks from the layout and the table. *)
let remove_blocks f bids =
  List.iter (fun bid -> f.blocks.(bid) <- None) bids;
  f.block_order <- List.filter (has_block f) f.block_order

let fresh_def f =
  let d = f.next_def in
  f.next_def <- f.next_def + 1;
  d

let ty_of_tag = function
  | Value.Tag_undefined -> Ty_undefined
  | Value.Tag_null -> Ty_null
  | Value.Tag_bool -> Ty_bool
  | Value.Tag_int -> Ty_int32
  | Value.Tag_double -> Ty_double
  | Value.Tag_string -> Ty_string
  | Value.Tag_object -> Ty_object
  | Value.Tag_array -> Ty_array
  | Value.Tag_function -> Ty_function

let ty_of_value v = ty_of_tag (Value.tag_of v)

let is_numeric_ty = function
  | Ty_int32 | Ty_double -> true
  | Ty_value | Ty_bool | Ty_string | Ty_object | Ty_array | Ty_function | Ty_undefined
  | Ty_null ->
    false

(* Result type of an instruction kind, given a lookup for operand types. *)
let result_ty ty_of kind =
  match kind with
  | Parameter _ | Osr_value _ -> Ty_value
  | Constant v -> ty_of_value v
  | Phi operands ->
    let tys = Array.map ty_of operands in
    if Array.length tys = 0 then Ty_value
    else begin
      let first = tys.(0) in
      if Array.for_all (fun t -> t = first) tys then first else Ty_value
    end
  | Box _ -> Ty_value
  | Type_barrier (_, tag) -> ty_of_tag tag
  | Check_array _ -> Ty_array
  | Bounds_check _ -> Ty_int32
  | Binop (op, a, b, mode) -> (
    match op with
    | Ops.Bit_and | Ops.Bit_or | Ops.Bit_xor | Ops.Shl | Ops.Shr -> Ty_int32
    | Ops.Ushr -> (
      (* >>> may exceed the int32 range; the checked int mode guards it. *)
      match mode with
      | Mode_int | Mode_int_nocheck -> Ty_int32
      | Mode_double | Mode_generic -> Ty_value)
    | Ops.Div -> (
      match mode with
      | Mode_double | Mode_int | Mode_int_nocheck -> Ty_double
      | Mode_generic -> Ty_value)
    | Ops.Add | Ops.Sub | Ops.Mul | Ops.Mod -> (
      match mode with
      | Mode_int | Mode_int_nocheck -> Ty_int32  (* guarded (or proven) *)
      | Mode_double -> Ty_double
      | Mode_generic ->
        if op = Ops.Add && (ty_of a = Ty_string || ty_of b = Ty_string) then Ty_string
        else Ty_value))
  | Cmp _ -> Ty_bool
  | Unop (op, a) -> (
    match op with
    | Ops.Not -> Ty_bool
    | Ops.Typeof -> Ty_string
    | Ops.Bit_not -> Ty_int32
    | Ops.Neg -> (
      (* -0 and int32-min escape the int range, so int negation is Value. *)
      match ty_of a with Ty_double -> Ty_double | _ -> Ty_value)
    | Ops.To_number -> (
      match ty_of a with
      | Ty_int32 | Ty_bool -> Ty_int32
      | Ty_double -> Ty_double
      | _ -> Ty_value))
  | Load_elem _ | Elem_generic _ -> Ty_value
  | Store_elem (_, _, v) | Store_elem_generic (_, _, v) -> ty_of v
  | Load_prop _ -> Ty_value
  | Store_prop (_, _, v) -> ty_of v
  | Array_length _ | String_length _ -> Ty_int32
  | Call _ | Call_known _ | Call_native _ | Method_call _ -> Ty_value
  | New_array _ -> Ty_array
  | Construct ("Array", _) -> Ty_array
  | Construct _ -> Ty_object
  | New_object _ -> Ty_object
  | Make_closure _ -> Ty_function
  | Get_global _ | Get_cell _ | Get_upval _ | Load_captured _ -> Ty_value
  | Set_global (_, v) | Set_cell (_, v) | Set_upval (_, v) | Store_captured (_, v) ->
    ty_of v
  | To_bool _ -> Ty_bool

let ty_of_def f d = (instr f d).ty

(* Origin for an instruction created right now: the builder/pass context
   recorded on the function, stamped with the fresh def id. *)
let cur_origin f def =
  {
    o_fid = f.source.Bytecode.Program.fid;
    o_pc = f.cur_pc;
    o_def = def;
    o_pass = f.cur_pass;
  }

(* Create and register an instruction without appending it to any body;
   callers splice it into a block themselves (used by passes that insert
   guards mid-block). *)
let make_instr f ?rp ?org kind =
  let def = fresh_def f in
  let ty = result_ty (ty_of_def f) kind in
  let org = match org with Some o -> o | None -> cur_origin f def in
  let instr = { def; kind; ty; rp; org } in
  register f instr;
  instr

(* Append an instruction to a block's body, registering its def. *)
let append f b ?rp ?org kind =
  let instr = make_instr f ?rp ?org kind in
  b.body <- b.body @ [ instr ];
  instr.def

let append_phi f b ?org operands =
  let def = fresh_def f in
  let org = match org with Some o -> o | None -> cur_origin f def in
  let instr = { def; kind = Phi operands; ty = Ty_value; rp = None; org } in
  b.phis <- b.phis @ [ instr ];
  register f instr;
  def

let successors b =
  match b.term with
  | Goto t -> [ t ]
  | Branch (_, a, c) -> [ a; c ]
  | Return _ | Unreachable -> []

(* Rewrite a terminator's condition or returned def through [def] and its
   successors through [block]. *)
let map_term ?(def = Fun.id) ?(block = Fun.id) = function
  | Goto t -> Goto (block t)
  | Branch (c, a, b) -> Branch (def c, block a, block b)
  | Return d -> Return (def d)
  | Unreachable -> Unreachable

(* The operand of the ToNumber wrapper that [i++] produces, else [d]. *)
let strip_to_number f d = match (instr f d).kind with Unop (Ops.To_number, x) -> x | _ -> d

let const_int f d = match (instr f d).kind with Constant (Value.Int n) -> Some n | _ -> None

(* Every operand of an instruction kind, in order (callee before args). *)
let iter_operands fn kind =
  match kind with
  | Parameter _ | Osr_value _ | Constant _ | Get_global _ | Get_cell _ | Get_upval _
  | Load_captured _ | Make_closure _ ->
    ()
  | Phi ops -> Array.iter fn ops
  | Box a | Type_barrier (a, _) | Check_array a | Unop (_, a) | Load_prop (a, _)
  | Array_length a | String_length a | Set_global (_, a) | Set_cell (_, a)
  | Set_upval (_, a) | Store_captured (_, a) | To_bool a ->
    fn a
  | Bounds_check (a, b) | Binop (_, a, b, _) | Cmp (_, a, b) | Load_elem (a, b)
  | Elem_generic (a, b) | Store_prop (a, _, b) ->
    fn a;
    fn b
  | Store_elem (a, b, c) | Store_elem_generic (a, b, c) ->
    fn a;
    fn b;
    fn c
  | Call (callee, args) | Call_known (_, callee, args) | Method_call (callee, _, args) ->
    fn callee;
    Array.iter fn args
  | Call_native (_, args) | New_array args | Construct (_, args) | New_object (_, args) ->
    Array.iter fn args

let instr_operands kind =
  let ops = ref [] in
  iter_operands (fun d -> ops := d :: !ops) kind;
  List.rev !ops

(* Every def an instruction reads, without building a list: the operands in
   [iter_operands] order, then the resume point's args, locals and stack. *)
let iter_uses fn i =
  iter_operands fn i.kind;
  match i.rp with
  | None -> ()
  | Some rp ->
    Array.iter fn rp.rp_args;
    Array.iter fn rp.rp_locals;
    List.iter fn rp.rp_stack

(* Rewrite every operand through [subst]. *)
let map_operands subst kind =
  let s = subst in
  let sa = Array.map subst in
  match kind with
  | Parameter _ | Osr_value _ | Constant _ | Get_global _ | Get_cell _ | Get_upval _
  | Load_captured _ | Make_closure _ ->
    kind
  | Phi ops -> Phi (sa ops)
  | Box a -> Box (s a)
  | Type_barrier (a, t) -> Type_barrier (s a, t)
  | Check_array a -> Check_array (s a)
  | Bounds_check (a, b) -> Bounds_check (s a, s b)
  | Binop (op, a, b, m) -> Binop (op, s a, s b, m)
  | Cmp (op, a, b) -> Cmp (op, s a, s b)
  | Unop (op, a) -> Unop (op, s a)
  | Load_elem (a, b) -> Load_elem (s a, s b)
  | Store_elem (a, b, c) -> Store_elem (s a, s b, s c)
  | Elem_generic (a, b) -> Elem_generic (s a, s b)
  | Store_elem_generic (a, b, c) -> Store_elem_generic (s a, s b, s c)
  | Load_prop (a, p) -> Load_prop (s a, p)
  | Store_prop (a, p, c) -> Store_prop (s a, p, s c)
  | Array_length a -> Array_length (s a)
  | String_length a -> String_length (s a)
  | Call (c, args) -> Call (s c, sa args)
  | Call_known (fid, c, args) -> Call_known (fid, s c, sa args)
  | Call_native (n, args) -> Call_native (n, sa args)
  | Method_call (r, m, args) -> Method_call (s r, m, sa args)
  | New_array args -> New_array (sa args)
  | Construct (c, args) -> Construct (c, sa args)
  | New_object (ks, args) -> New_object (ks, sa args)
  | Set_global (i, a) -> Set_global (i, s a)
  | Set_cell (i, a) -> Set_cell (i, s a)
  | Set_upval (i, a) -> Set_upval (i, s a)
  | Store_captured (r, a) -> Store_captured (r, s a)
  | To_bool a -> To_bool (s a)

let map_resume_point subst rp =
  {
    rp with
    rp_args = Array.map subst rp.rp_args;
    rp_locals = Array.map subst rp.rp_locals;
    rp_stack = List.map subst rp.rp_stack;
  }

(* Effects classification: is this instruction observable (must keep even if
   unused), and can it trigger a bailout? *)
let has_side_effect = function
  | Store_elem _ | Store_elem_generic _ | Store_prop _ | Set_global _ | Set_cell _
  | Set_upval _ | Store_captured _ | Call _ | Call_known _ | Method_call _ ->
    true
  | Call_native (name, _) -> not (Builtins.is_pure name)
  | Parameter _ | Osr_value _ | Constant _ | Phi _ | Box _ | Type_barrier _
  | Check_array _ | Bounds_check _ | Binop _ | Cmp _ | Unop _ | Load_elem _
  | Elem_generic _ | Load_prop _ | Array_length _ | String_length _ | New_array _
  | Construct _ | New_object _ | Make_closure _ | Get_global _ | Get_cell _
  | Get_upval _ | Load_captured _ | To_bool _ ->
    false

let is_guard = function
  | Type_barrier _ | Check_array _ | Bounds_check _ -> true
  | _ -> false

(* Instructions safe to delete when their result is unused. Guards are NOT
   removable (they protect later code); loads are removable (our loads
   cannot fault once guarded); allocation is removable if unobserved. *)
let is_removable_if_unused kind = (not (has_side_effect kind)) && not (is_guard kind)

(* Apply a def-to-def substitution to every operand, resume point and
   terminator in the function. Used by passes after they decide on a set of
   replacements. *)
let substitute f subst =
  let apply (i : instr) =
    i.kind <- map_operands subst i.kind;
    i.rp <- Option.map (map_resume_point subst) i.rp
  in
  iter_blocks f (fun b ->
      List.iter apply b.phis;
      List.iter apply b.body;
      b.term <- map_term ~def:subst b.term)

(* ------------------------------------------------------------------ *)
(* Guard elision                                                       *)
(* ------------------------------------------------------------------ *)

(* Record of a deleted guard, keeping the bytecode-level provenance of the
   instruction so telemetry and diagnostics can attribute the deletion to
   the original program point even after the instruction is gone. *)
type elision = {
  el_def : def;
  el_kind : string;  (* "type" | "array" | "bounds" *)
  el_ofid : int;     (* origin function (differs from host after inlining) *)
  el_pc : int;       (* origin bytecode pc *)
  el_block : int;
}

let guard_kind_name = function
  | Type_barrier _ -> "type"
  | Check_array _ -> "array"
  | Bounds_check _ -> "bounds"
  | _ -> "?"

(* Delete a batch of guards, each optionally substituting its def by a
   replacement (a guard's result is the guarded value itself, so a
   [Type_barrier]/[Check_array] def is replaced by its operand; a
   [Bounds_check] def is normally unused and needs no replacement). The
   instruction records stay in [defs] exactly like other deleting passes
   leave them; the returned elisions preserve each guard's origin. *)
let elide_guards f (victims : (def * def option) list) =
  if victims = [] then []
  else begin
    let by_def = Hashtbl.create (List.length victims) in
    List.iter (fun (d, repl) -> Hashtbl.replace by_def d repl) victims;
    let elisions = ref [] in
    List.iter
      (fun bid ->
        let b = block f bid in
        b.body <-
          List.filter
            (fun (i : instr) ->
              if Hashtbl.mem by_def i.def && is_guard i.kind then begin
                elisions :=
                  {
                    el_def = i.def;
                    el_kind = guard_kind_name i.kind;
                    el_ofid = i.org.o_fid;
                    el_pc = i.org.o_pc;
                    el_block = bid;
                  }
                  :: !elisions;
                false
              end
              else true)
            b.body)
      f.block_order;
    let subst d =
      match Hashtbl.find_opt by_def d with Some (Some r) -> r | _ -> d
    in
    (* Chase chains (a deleted guard replaced by another deleted guard). *)
    let rec resolve fuel d =
      if fuel = 0 then d
      else
        let d' = subst d in
        if d' = d then d else resolve (fuel - 1) d'
    in
    if List.exists (fun (_, r) -> r <> None) victims then
      substitute f (resolve 64);
    List.rev !elisions
  end

(* ------------------------------------------------------------------ *)
(* Ordering and traversal                                              *)
(* ------------------------------------------------------------------ *)

let entry_blocks f =
  f.entry :: (match f.osr_entry with Some b -> [ b ] | None -> [])

let reverse_postorder f =
  let visited = Array.make f.next_block false in
  let order = ref [] in
  let rec visit bid =
    if not visited.(bid) then begin
      visited.(bid) <- true;
      List.iter visit (successors (block f bid));
      order := bid :: !order
    end
  in
  List.iter visit (entry_blocks f);
  !order

let reachable_blocks f =
  let rpo = reverse_postorder f in
  let set = Hashtbl.create 16 in
  List.iter (fun bid -> Hashtbl.replace set bid true) rpo;
  set

(* Recompute preds from terminators (after CFG edits), preserving the
   relative order of surviving preds so phi operands stay aligned. *)
let recompute_preds f =
  let reachable = reachable_blocks f in
  iter_blocks f (fun b ->
      if Hashtbl.mem reachable b.bid then begin
        let still_pred p =
          Hashtbl.mem reachable p && List.mem b.bid (successors (block f p))
        in
        let kept = List.filter still_pred b.preds in
        (* Drop phi operands for removed preds. *)
        let keep_mask = List.map still_pred b.preds in
        List.iter
          (fun phi ->
            match phi.kind with
            | Phi ops ->
              let kept_ops =
                List.filteri (fun i _ -> List.nth keep_mask i) (Array.to_list ops)
              in
              phi.kind <- Phi (Array.of_list kept_ops)
            | _ -> ())
          b.phis;
        b.preds <- kept
      end)

(* Drop the blocks no entry reaches, from the layout and the table, and the
   preds and phi operands that came from them. *)
let prune_unreachable f =
  let reachable = reachable_blocks f in
  remove_blocks f (List.filter (fun bid -> not (Hashtbl.mem reachable bid)) f.block_order);
  recompute_preds f

let iter_instrs f fn =
  iter_blocks f (fun b ->
      List.iter fn b.phis;
      List.iter fn b.body)

let all_instr_count f =
  let n = ref 0 in
  iter_instrs f (fun _ -> incr n);
  !n

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let ty_to_string = function
  | Ty_value -> "Value"
  | Ty_int32 -> "Int32"
  | Ty_double -> "Double"
  | Ty_bool -> "Bool"
  | Ty_string -> "String"
  | Ty_object -> "Object"
  | Ty_array -> "Array"
  | Ty_function -> "Function"
  | Ty_undefined -> "Undefined"
  | Ty_null -> "Null"

let mode_to_string = function
  | Mode_int -> "i"
  | Mode_int_nocheck -> "i!"
  | Mode_double -> "d"
  | Mode_generic -> "v"

let def_name d = Printf.sprintf "v%d" d

let kind_to_string kind =
  let open Printf in
  let defs ds = String.concat ", " (List.map def_name (Array.to_list ds)) in
  match kind with
  | Parameter i -> sprintf "parameter %d" i
  | Osr_value (Osr_arg i) -> sprintf "osrvalue arg[%d]" i
  | Osr_value (Osr_local i) -> sprintf "osrvalue local[%d]" i
  | Constant v -> sprintf "constant %s" (Format.asprintf "%a" Value.pp v)
  | Phi ops -> sprintf "phi(%s)" (defs ops)
  | Box a -> sprintf "box %s" (def_name a)
  | Type_barrier (a, tag) -> sprintf "typebarrier %s %s" (def_name a) (Value.tag_to_string tag)
  | Check_array a -> sprintf "checkarray %s" (def_name a)
  | Bounds_check (i, a) -> sprintf "boundscheck %s, %s" (def_name i) (def_name a)
  | Binop (op, a, b, m) ->
    sprintf "%s.%s %s, %s" (Ops.binop_to_string op) (mode_to_string m) (def_name a) (def_name b)
  | Cmp (op, a, b) -> sprintf "%s %s, %s" (Ops.cmp_to_string op) (def_name a) (def_name b)
  | Unop (op, a) -> sprintf "%s %s" (Ops.unop_to_string op) (def_name a)
  | Load_elem (a, i) -> sprintf "ld %s, %s" (def_name a) (def_name i)
  | Store_elem (a, i, v) -> sprintf "st %s, %s, %s" (def_name a) (def_name i) (def_name v)
  | Elem_generic (a, i) -> sprintf "ldgen %s, %s" (def_name a) (def_name i)
  | Store_elem_generic (a, i, v) ->
    sprintf "stgen %s, %s, %s" (def_name a) (def_name i) (def_name v)
  | Load_prop (a, p) -> sprintf "ldprop %s.%s" (def_name a) p
  | Store_prop (a, p, v) -> sprintf "stprop %s.%s = %s" (def_name a) p (def_name v)
  | Array_length a -> sprintf "arraylength %s" (def_name a)
  | String_length a -> sprintf "stringlength %s" (def_name a)
  | Call (c, args) -> sprintf "call %s(%s)" (def_name c) (defs args)
  | Call_known (fid, c, args) -> sprintf "callknown f%d/%s(%s)" fid (def_name c) (defs args)
  | Call_native (n, args) -> sprintf "callnative %s(%s)" n (defs args)
  | Method_call (r, m, args) -> sprintf "methodcall %s.%s(%s)" (def_name r) m (defs args)
  | New_array args -> sprintf "newarray [%s]" (defs args)
  | Construct (c, args) -> sprintf "construct %s(%s)" c (defs args)
  | New_object (ks, args) ->
    sprintf "newobject {%s}"
      (String.concat ", "
         (List.mapi (fun i k -> sprintf "%s: %s" k (def_name args.(i))) (Array.to_list ks)))
  | Make_closure (fid, _) -> sprintf "makeclosure f%d" fid
  | Get_global i -> sprintf "getglobal %d" i
  | Set_global (i, v) -> sprintf "setglobal %d, %s" i (def_name v)
  | Get_cell i -> sprintf "getcell %d" i
  | Set_cell (i, v) -> sprintf "setcell %d, %s" i (def_name v)
  | Get_upval i -> sprintf "getupval %d" i
  | Set_upval (i, v) -> sprintf "setupval %d, %s" i (def_name v)
  | Load_captured _ -> "ldcaptured <cell>"
  | Store_captured (_, v) -> sprintf "stcaptured <cell>, %s" (def_name v)
  | To_bool a -> sprintf "tobool %s" (def_name a)

let instr_to_string i =
  let rp = match i.rp with None -> "" | Some rp -> Printf.sprintf "  ; rp@%d" rp.rp_pc in
  Printf.sprintf "%s = %s : %s%s" (def_name i.def) (kind_to_string i.kind)
    (ty_to_string i.ty) rp

let term_to_string = function
  | Goto t -> Printf.sprintf "goto B%d" t
  | Branch (c, a, b) -> Printf.sprintf "brt %s, B%d, B%d" (def_name c) a b
  | Return d -> Printf.sprintf "ret %s" (def_name d)
  | Unreachable -> "unreachable"

let to_string f =
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "mir function %s (entry=B%d%s)\n" f.source.Bytecode.Program.name
    f.entry
    (match f.osr_entry with Some b -> Printf.sprintf ", osr=B%d" b | None -> "");
  List.iter
    (fun bid ->
      let b = block f bid in
      Printf.bprintf buf "B%d:  ; preds: %s\n" b.bid
        (String.concat "," (List.map (Printf.sprintf "B%d") b.preds));
      List.iter (fun i -> Printf.bprintf buf "  %s\n" (instr_to_string i)) b.phis;
      List.iter (fun i -> Printf.bprintf buf "  %s\n" (instr_to_string i)) b.body;
      Printf.bprintf buf "  %s\n" (term_to_string b.term))
    f.block_order;
  Buffer.contents buf
