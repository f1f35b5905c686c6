open Jsfront

exception Error of string

let error fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

module String_set = Set.Make (String)

(* ------------------------------------------------------------------ *)
(* Scope analysis                                                      *)
(* ------------------------------------------------------------------ *)

(* The one walk over a function body: every statement and expression in
   source order, but not the bodies of nested functions, which go to
   [func] ([true] for a function declaration). [declare] sees each name
   the body hoists (vars, for-in variables, function declarations),
   [reference] each name it reads or assigns. *)
let walk ~declare ~reference ~func body =
  let rec expr e =
    match e with
    | Ast.Var name -> reference name
    | Ast.Int _ | Ast.Float _ | Ast.Str _ | Ast.Bool _ | Ast.Null | Ast.Undefined -> ()
    | Ast.Binop (_, a, b) | Ast.Cmp (_, a, b) | Ast.And (a, b) | Ast.Or (a, b) | Ast.Index (a, b)
      ->
      expr a;
      expr b
    | Ast.Unop (_, a) | Ast.Prop (a, _) -> expr a
    | Ast.Cond (c, t, e2) ->
      expr c;
      expr t;
      expr e2
    | Ast.Assign (l, e2) | Ast.Op_assign (_, l, e2) ->
      lhs l;
      expr e2
    | Ast.Update (_, _, l) -> lhs l
    | Ast.Call (f, args) | Ast.Method_call (f, _, args) ->
      expr f;
      List.iter expr args
    | Ast.Array_lit es | Ast.New (_, es) -> List.iter expr es
    | Ast.Object_lit fields -> List.iter (fun (_, v) -> expr v) fields
    | Ast.Func f -> func false f
  and lhs = function
    | Ast.L_var name -> reference name
    | Ast.L_index (a, i) ->
      expr a;
      expr i
    | Ast.L_prop (o, _) -> expr o
  and stmt s =
    match s with
    | Ast.Expr_stmt e -> expr e
    | Ast.Var_decl decls ->
      List.iter
        (fun (name, init) ->
          declare name;
          Option.iter expr init)
        decls
    | Ast.If (c, a, b) ->
      expr c;
      List.iter stmt a;
      List.iter stmt b
    | Ast.While (c, b) | Ast.Do_while (b, c) ->
      expr c;
      List.iter stmt b
    | Ast.For (init, cond, step, b) ->
      Option.iter stmt init;
      Option.iter expr cond;
      Option.iter expr step;
      List.iter stmt b
    | Ast.For_in (name, obj, b) ->
      declare name;
      expr obj;
      List.iter stmt b
    | Ast.Return e -> Option.iter expr e
    | Ast.Func_decl f ->
      Option.iter declare f.Ast.name;
      func true f
    | Ast.Block b -> List.iter stmt b
    | Ast.Switch (disc, cases) ->
      expr disc;
      List.iter
        (fun (test, body) ->
          Option.iter expr test;
          List.iter stmt body)
        cases
    | Ast.Break | Ast.Continue -> ()
  in
  List.iter stmt body

(* Free variables of a function: names referenced anywhere in its body
   (including transitively nested functions) that it does not declare. *)
let rec free_vars (f : Ast.func) =
  let declared = ref (String_set.of_list f.Ast.params) and used = ref String_set.empty in
  walk
    ~declare:(fun name -> declared := String_set.add name !declared)
    ~reference:(fun name -> used := String_set.add name !used)
    ~func:(fun _ g -> used := String_set.union !used (free_vars g))
    f.Ast.body;
  String_set.diff !used !declared

(* ------------------------------------------------------------------ *)
(* Code emission                                                       *)
(* ------------------------------------------------------------------ *)

type site = Arg of int | Local of int | Cell of int | Upval of int | Global of int

(* A loop or switch that [break] binds to. *)
type loop_ctx = {
  mutable break_fixups : int list;
  mutable continue_fixups : int list;
  continue_head : int option;  (* [continue] jumps straight here, unpatched *)
  is_switch : bool;  (* `break` binds to switches too; `continue` does not *)
}

type gctx = {
  mutable funcs : Program.func list;  (* reverse order *)
  mutable next_fid : int;
  global_table : (string, int) Hashtbl.t;
  mutable global_order : string list;  (* reverse order *)
}

type fctx = {
  g : gctx;
  parent : fctx option;
  table : (string, site) Hashtbl.t;
  is_toplevel : bool;
  mutable upvals : (string * Instr.capture) list;  (* reverse order *)
  mutable nupvals : int;
  mutable nlocals : int;
  mutable ncells : int;
  mutable nloops : int;
  mutable code : Instr.t array;  (* grows by doubling; [pc] entries used *)
  mutable pc : int;
  mutable loops : loop_ctx list;
}

let emit fx instr =
  if fx.pc = Array.length fx.code then begin
    let grown = Array.make (2 * fx.pc) Instr.Pop in
    Array.blit fx.code 0 grown 0 fx.pc;
    fx.code <- grown
  end;
  fx.code.(fx.pc) <- instr;
  fx.pc <- fx.pc + 1

let emits fx instrs = List.iter (emit fx) instrs

(* Emit a placeholder jump; returns the pc to patch later. *)
let emit_jump_placeholder fx make =
  let at = fx.pc in
  emit fx (make (-1));
  at

let patch fx at target =
  fx.code.(at) <-
    (match fx.code.(at) with
    | Instr.Jump _ -> Instr.Jump target
    | Instr.Jump_if_false _ -> Instr.Jump_if_false target
    | Instr.Jump_if_true _ -> Instr.Jump_if_true target
    | _ -> assert false)

let patch_here fx ats = List.iter (fun at -> patch fx at fx.pc) ats

let global_slot g name =
  match Hashtbl.find_opt g.global_table name with
  | Some slot -> slot
  | None ->
    let slot = Hashtbl.length g.global_table in
    Hashtbl.add g.global_table name slot;
    g.global_order <- name :: g.global_order;
    slot

let fresh_local fx =
  let slot = fx.nlocals in
  fx.nlocals <- fx.nlocals + 1;
  slot

let fresh_cell fx =
  let cell = fx.ncells in
  fx.ncells <- fx.ncells + 1;
  cell

(* Resolve a name to its access site, creating upvalue chains on demand. *)
let rec resolve fx name =
  match Hashtbl.find_opt fx.table name with
  | Some site -> site
  | None -> (
    match fx.parent with
    | None -> Global (global_slot fx.g name)
    | Some parent -> (
      match resolve parent name with
      | Global _ as g -> g
      | Cell i -> add_upval fx name (Instr.Cap_cell i)
      | Upval i -> add_upval fx name (Instr.Cap_upval i)
      | Arg _ | Local _ ->
        (* The capture analysis boxes every captured variable, so a
           captured name can never resolve to a plain arg/local. *)
        assert false))

and add_upval fx name cap =
  let idx = fx.nupvals in
  fx.upvals <- (name, cap) :: fx.upvals;
  fx.nupvals <- fx.nupvals + 1;
  let site = Upval idx in
  Hashtbl.add fx.table name site;
  site

let emit_get fx = function
  | Arg i -> emit fx (Instr.Get_arg i)
  | Local i -> emit fx (Instr.Get_local i)
  | Cell i -> emit fx (Instr.Get_cell i)
  | Upval i -> emit fx (Instr.Get_upval i)
  | Global i -> emit fx (Instr.Get_global i)

let emit_set fx = function
  | Arg i -> emit fx (Instr.Set_arg i)
  | Local i -> emit fx (Instr.Set_local i)
  | Cell i -> emit fx (Instr.Set_cell i)
  | Upval i -> emit fx (Instr.Set_upval i)
  | Global i -> emit fx (Instr.Set_global i)

(* ------------------------------------------------------------------ *)
(* Function compilation                                                *)
(* ------------------------------------------------------------------ *)

let rec compile_function g ~parent ~name ~params ~body ~is_toplevel =
  let fid = g.next_fid in
  g.next_fid <- g.next_fid + 1;
  (* Reserve the slot so nested functions get later fids. *)
  let fx =
    {
      g;
      parent;
      table = Hashtbl.create 16;
      is_toplevel;
      upvals = [];
      nupvals = 0;
      nlocals = 0;
      ncells = 0;
      nloops = 0;
      code = Array.make 64 Instr.Pop;
      pc = 0;
      loops = [];
    }
  in
  (* Names this body declares, its function declarations in source order
     (hoisted to the prologue), and the declared names a nested function
     captures. *)
  let declared = ref (String_set.of_list params) and decls = ref [] and nested = ref [] in
  walk
    ~declare:(fun name -> declared := String_set.add name !declared)
    ~reference:ignore
    ~func:(fun is_decl f ->
      if is_decl then decls := f :: !decls;
      nested := f :: !nested)
    body;
  let captured =
    if is_toplevel then String_set.empty
    else
      List.fold_left
        (fun acc f -> String_set.union acc (String_set.inter !declared (free_vars f)))
        String_set.empty !nested
  in
  (* Parameters. Captured parameters are copied into cells in the prologue. *)
  List.iteri
    (fun i p ->
      if String_set.mem p captured then begin
        let cell = fresh_cell fx in
        Hashtbl.replace fx.table p (Cell cell);
        emit fx (Instr.Get_arg i);
        emit fx (Instr.Set_cell cell)
      end
      else if not (Hashtbl.mem fx.table p) then Hashtbl.replace fx.table p (Arg i))
    params;
  (* Hoisted var declarations. At toplevel they are globals. *)
  if not is_toplevel then
    String_set.iter
      (fun v ->
        if not (Hashtbl.mem fx.table v) then
          Hashtbl.replace fx.table v
            (if String_set.mem v captured then Cell (fresh_cell fx) else Local (fresh_local fx)))
      !declared;
  List.iter
    (fun (f : Ast.func) ->
      let fname = Option.get f.Ast.name in
      compile_closure fx ~name:(Some fname) ~params:f.Ast.params ~body:f.Ast.body;
      let site = resolve fx fname in
      emit_set fx site)
    (List.rev !decls);
  List.iter (compile_stmt fx) body;
  emit fx Instr.Return_undefined;
  let code = Array.sub fx.code 0 fx.pc in
  let func =
    {
      Program.fid;
      name = (match name with Some n -> n | None -> Printf.sprintf "<anonymous:%d>" fid);
      arity = List.length params;
      nlocals = fx.nlocals;
      ncells = fx.ncells;
      nupvals = fx.nupvals;
      code;
      max_stack = Program.compute_max_stack code;
      nloops = fx.nloops;
    }
  in
  g.funcs <- func :: g.funcs;
  (fid, List.rev_map snd fx.upvals)

and compile_closure fx ~name ~params ~body =
  let fid, captures =
    compile_function fx.g ~parent:(Some fx) ~name ~params ~body ~is_toplevel:false
  in
  emit fx (Instr.Make_closure (fid, Array.of_list captures))

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

and compile_stmt fx (s : Ast.stmt) =
  match s with
  | Ast.Expr_stmt e ->
    compile_expr fx e;
    emit fx Instr.Pop
  | Ast.Var_decl decls ->
    List.iter
      (fun (name, init) ->
        match init with
        | None -> ()
        | Some e ->
          compile_expr fx e;
          emit_set fx (resolve fx name))
      decls
  | Ast.If (cond, then_b, else_b) ->
    compile_expr fx cond;
    let to_else = emit_jump_placeholder fx (fun t -> Instr.Jump_if_false t) in
    List.iter (compile_stmt fx) then_b;
    if else_b = [] then patch fx to_else fx.pc
    else begin
      let to_end = emit_jump_placeholder fx (fun t -> Instr.Jump t) in
      patch fx to_else fx.pc;
      List.iter (compile_stmt fx) else_b;
      patch fx to_end fx.pc
    end
  | Ast.While (cond, body) ->
    compile_loop fx ~continue_at_head:true body
      ~test:(fun () ->
        compile_expr fx cond;
        Some (emit_jump_placeholder fx (fun t -> Instr.Jump_if_false t)))
      ~latch:(fun head -> emit fx (Instr.Jump head))
  | Ast.Do_while (body, cond) ->
    compile_loop fx body
      ~test:(fun () -> None)
      ~latch:(fun head ->
        compile_expr fx cond;
        emit fx (Instr.Jump_if_true head))
  | Ast.For (init, cond, step, body) ->
    Option.iter (compile_stmt fx) init;
    compile_loop fx body
      ~test:(fun () ->
        Option.map
          (fun c ->
            compile_expr fx c;
            emit_jump_placeholder fx (fun t -> Instr.Jump_if_false t))
          cond)
      ~latch:(fun head ->
        Option.iter
          (fun e ->
            compile_expr fx e;
            emit fx Instr.Pop)
          step;
        emit fx (Instr.Jump head))
  | Ast.For_in (name, obj, body) ->
    (* Desugared enumeration: snapshot the keys once, then index through
       them (JS semantics for the common no-mutation case; key order is
       the object's insertion order). *)
    let t_keys = fresh_local fx and t_idx = fresh_local fx in
    compile_then fx [ obj ] Instr.Keys;
    emits fx Instr.[ Set_local t_keys; Const (Runtime.Value.Int 0); Set_local t_idx ];
    compile_loop fx body
      ~test:(fun () ->
        emits fx Instr.[ Get_local t_idx; Get_local t_keys; Get_prop "length"; Cmp Runtime.Ops.Lt ];
        let to_exit = emit_jump_placeholder fx (fun t -> Instr.Jump_if_false t) in
        emits fx Instr.[ Get_local t_keys; Get_local t_idx; Get_elem ];
        emit_set fx (resolve fx name);
        Some to_exit)
      ~latch:(fun head ->
        emits fx
          Instr.
            [ Get_local t_idx; Const (Runtime.Value.Int 1); Binop Runtime.Ops.Add;
              Set_local t_idx; Jump head ])
  | Ast.Return None -> emit fx Instr.Return_undefined
  | Ast.Return (Some e) ->
    compile_expr fx e;
    emit fx Instr.Return
  | Ast.Break -> (
    match fx.loops with
    | [] -> error "break outside of a loop or switch"
    | ctx :: _ ->
      let at = emit_jump_placeholder fx (fun t -> Instr.Jump t) in
      ctx.break_fixups <- at :: ctx.break_fixups)
  | Ast.Continue -> (
    (* continue binds to the nearest enclosing LOOP, skipping switches. *)
    match List.find_opt (fun ctx -> not ctx.is_switch) fx.loops with
    | None -> error "continue outside of a loop"
    | Some { continue_head = Some head; _ } -> emit fx (Instr.Jump head)
    | Some ctx ->
      let at = emit_jump_placeholder fx (fun t -> Instr.Jump t) in
      ctx.continue_fixups <- at :: ctx.continue_fixups)
  | Ast.Switch (disc, cases) ->
    (* Evaluate the discriminant once, test the case expressions in source
       order with ===, then lay the bodies out sequentially so execution
       falls through until a break (JavaScript switch semantics). *)
    let t_disc = fresh_local fx in
    compile_then fx [ disc ] (Instr.Set_local t_disc);
    let case_jumps =
      List.map
        (fun (test, _) ->
          Option.map
            (fun e ->
              emit fx (Instr.Get_local t_disc);
              compile_then fx [ e ] (Instr.Cmp Runtime.Ops.Strict_eq);
              emit_jump_placeholder fx (fun t -> Instr.Jump_if_true t))
            test)
        cases
    in
    (* No match: jump to the default clause's body if there is one (a jump
       backwards into the laid-out bodies), else past the switch. *)
    let to_default = emit_jump_placeholder fx (fun t -> Instr.Jump t) in
    let default_at = ref None in
    let ctx =
      breakable fx ~is_switch:true ~continue_head:None (fun () ->
          List.iter2
            (fun (_, body) jump ->
              (match jump with
              | Some at -> patch fx at fx.pc
              | None -> default_at := Some fx.pc);
              List.iter (compile_stmt fx) body)
            cases case_jumps)
    in
    patch fx to_default (Option.value !default_at ~default:fx.pc);
    patch_here fx ctx.break_fixups
  | Ast.Func_decl _ -> ()  (* hoisted in the prologue *)
  | Ast.Block body -> List.iter (compile_stmt fx) body

(* Run [f] with [break] (and, unless [is_switch], [continue]) bound to a
   fresh context, which it returns for patching. *)
and breakable fx ~is_switch ~continue_head f =
  let ctx = { break_fixups = []; continue_fixups = []; continue_head; is_switch } in
  fx.loops <- ctx :: fx.loops;
  f ();
  fx.loops <- List.tl fx.loops;
  ctx

(* Every loop: a fresh loop id and its [Loop_head] at [head], then [test]
   (the per-iteration code before the body, returning the exit jump if
   there is one), the body, and [latch head] (what follows the body, where
   [continue] lands unless [continue_at_head]); [break] and the exit jump
   land after the latch. *)
and compile_loop fx ?(continue_at_head = false) body ~test ~latch =
  let loop_id = fx.nloops in
  fx.nloops <- fx.nloops + 1;
  let head = fx.pc in
  emit fx (Instr.Loop_head loop_id);
  let to_exit = test () in
  let ctx =
    breakable fx ~is_switch:false
      ~continue_head:(if continue_at_head then Some head else None)
      (fun () -> List.iter (compile_stmt fx) body)
  in
  patch_here fx ctx.continue_fixups;
  latch head;
  patch_here fx (Option.to_list to_exit);
  patch_here fx ctx.break_fixups

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

and compile_expr fx (e : Ast.expr) =
  let const v = emit fx (Instr.Const v) in
  match e with
  | Ast.Int n -> const (Runtime.Value.of_int n)
  | Ast.Float f -> const (Runtime.Value.norm_num f)
  | Ast.Str s -> const (Runtime.Value.Str s)
  | Ast.Bool b -> const (Runtime.Value.Bool b)
  | Ast.Null -> const Runtime.Value.Null
  | Ast.Undefined -> const Runtime.Value.Undefined
  | Ast.Var name -> emit_get fx (resolve fx name)
  | Ast.Binop (op, a, b) -> compile_then fx [ a; b ] (Instr.Binop op)
  | Ast.Cmp (op, a, b) -> compile_then fx [ a; b ] (Instr.Cmp op)
  | Ast.Unop (op, a) -> compile_then fx [ a ] (Instr.Unop op)
  | Ast.And (a, b) -> compile_short_circuit fx a b (fun t -> Instr.Jump_if_false t)
  | Ast.Or (a, b) -> compile_short_circuit fx a b (fun t -> Instr.Jump_if_true t)
  | Ast.Cond (c, t, e2) ->
    compile_expr fx c;
    let to_else = emit_jump_placeholder fx (fun t -> Instr.Jump_if_false t) in
    compile_expr fx t;
    let to_end = emit_jump_placeholder fx (fun t -> Instr.Jump t) in
    patch fx to_else fx.pc;
    compile_expr fx e2;
    patch fx to_end fx.pc
  | Ast.Assign (lhs, rhs) -> compile_assign fx lhs rhs
  | Ast.Op_assign (op, lhs, rhs) -> compile_op_assign fx op lhs rhs
  | Ast.Update (op, prefix, lhs) -> compile_update fx op prefix lhs
  | Ast.Call (f, args) -> compile_then fx (f :: args) (Instr.Call (List.length args))
  | Ast.Method_call (o, m, args) ->
    compile_then fx (o :: args) (Instr.Method_call (m, List.length args))
  | Ast.Index (a, i) -> compile_then fx [ a; i ] Instr.Get_elem
  | Ast.Prop (o, p) -> compile_then fx [ o ] (Instr.Get_prop p)
  | Ast.Array_lit es -> compile_then fx es (Instr.New_array (List.length es))
  | Ast.Object_lit fields ->
    compile_then fx (List.map snd fields) (Instr.New_object (Array.of_list (List.map fst fields)))
  | Ast.Func f -> compile_closure fx ~name:f.Ast.name ~params:f.Ast.params ~body:f.Ast.body
  | Ast.New (ctor, args) ->
    if ctor <> "Array" && ctor <> "Object" then
      error "`new %s`: only Array and Object constructors are supported" ctor;
    compile_then fx args (Instr.New (ctor, List.length args))

(* Evaluate [es] left to right, then [instr] on their values. *)
and compile_then fx es instr =
  List.iter (compile_expr fx) es;
  emit fx instr

(* [a && b] / [a || b]: keep [a] if [jump] takes on it, else [b]. *)
and compile_short_circuit fx a b jump =
  compile_expr fx a;
  emit fx Instr.Dup;
  let to_end = emit_jump_placeholder fx jump in
  emit fx Instr.Pop;
  compile_expr fx b;
  patch fx to_end fx.pc

and compile_assign fx lhs rhs =
  match lhs with
  | Ast.L_var name ->
    compile_then fx [ rhs ] Instr.Dup;
    emit_set fx (resolve fx name)
  | Ast.L_index (a, i) -> compile_then fx [ a; i; rhs ] Instr.Set_elem
  | Ast.L_prop (o, p) -> compile_then fx [ o; rhs ] (Instr.Set_prop p)

and compile_op_assign fx op lhs rhs =
  match lhs with
  | Ast.L_var name ->
    let site = resolve fx name in
    emit_get fx site;
    compile_then fx [ rhs ] (Instr.Binop op);
    emit fx Instr.Dup;
    emit_set fx site
  | Ast.L_index (a, i) ->
    (* Evaluate the target once via hidden temporaries. *)
    let t_arr = fresh_local fx and t_idx = fresh_local fx in
    compile_then fx [ a ] (Instr.Set_local t_arr);
    compile_then fx [ i ] (Instr.Set_local t_idx);
    emits fx Instr.[ Get_local t_arr; Get_local t_idx; Get_local t_arr; Get_local t_idx; Get_elem ];
    compile_then fx [ rhs ] (Instr.Binop op);
    emit fx Instr.Set_elem
  | Ast.L_prop (o, p) ->
    compile_then fx [ o ] Instr.Dup;
    emit fx (Instr.Get_prop p);
    compile_then fx [ rhs ] (Instr.Binop op);
    emit fx (Instr.Set_prop p)

and compile_update fx arith prefix lhs =
  let delta = Instr.Const (Runtime.Value.Int 1) in
  let to_number = Instr.Unop Runtime.Ops.To_number in
  (* Stores of an element or property leave the new value; a postfix
     update replaces it with the old one. *)
  let postfix_result t_old = if not prefix then emits fx Instr.[ Pop; Get_local t_old ] in
  match lhs with
  | Ast.L_var name ->
    let site = resolve fx name in
    emit_get fx site;
    emit fx to_number;
    if prefix then emits fx Instr.[ delta; Binop arith; Dup ]
    else emits fx Instr.[ Dup; delta; Binop arith ];
    emit_set fx site
  | Ast.L_index (a, i) ->
    let t_arr = fresh_local fx and t_idx = fresh_local fx and t_old = fresh_local fx in
    compile_then fx [ a ] (Instr.Set_local t_arr);
    compile_then fx [ i ] (Instr.Set_local t_idx);
    emits fx
      Instr.
        [ Get_local t_arr; Get_local t_idx; Get_elem; to_number; Set_local t_old;
          Get_local t_arr; Get_local t_idx; Get_local t_old; delta; Binop arith; Set_elem ];
    postfix_result t_old
  | Ast.L_prop (o, p) ->
    let t_obj = fresh_local fx and t_old = fresh_local fx in
    compile_then fx [ o ] (Instr.Set_local t_obj);
    emits fx
      Instr.
        [ Get_local t_obj; Get_prop p; to_number; Set_local t_old; Get_local t_obj;
          Get_local t_old; delta; Binop arith; Set_prop p ];
    postfix_result t_old

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let program (ast : Ast.program) =
  let g =
    { funcs = []; next_fid = 0; global_table = Hashtbl.create 32; global_order = [] }
  in
  (* Pre-register builtin globals so their slots are stable. *)
  List.iter (fun (name, _) -> ignore (global_slot g name)) (Runtime.Builtins.globals ());
  let main_fid, _ =
    compile_function g ~parent:None ~name:(Some "<toplevel>") ~params:[] ~body:ast
      ~is_toplevel:true
  in
  let funcs = Array.of_list (List.rev g.funcs) in
  Array.sort (fun a b -> compare a.Program.fid b.Program.fid) funcs;
  { Program.funcs; global_names = Array.of_list (List.rev g.global_order); main = main_fid }

let program_of_source src = program (Parser.parse_program src)
