open Runtime

type activation = {
  act_args : Value.t array;
  act_env : Value.t ref array;
  act_cells : Value.t ref array;
  act_osr_args : Value.t array;
  act_osr_locals : Value.t array;
}

type bailout = {
  bo_pc : int;
  bo_native_pc : int;
  bo_args : Value.t array;
  bo_locals : Value.t array;
  bo_stack : Value.t array;
  bo_reason : string;
}

type outcome = Finished of Value.t | Bailed of bailout

type callbacks = {
  call : Value.t -> Value.t array -> Value.t;
  globals : Value.t array;
  cycles : int ref;
  on_charge : (Code.t -> int -> int -> unit) option;
  on_instr : (Code.t -> int -> unit) option;
  faults : Faults.plan;
}

let make_activation ?(env = [||]) ~(func : Bytecode.Program.func) ~args () =
  let padded =
    if Array.length args >= func.Bytecode.Program.arity then args
    else
      Array.init func.Bytecode.Program.arity (fun i ->
          if i < Array.length args then args.(i) else Value.Undefined)
  in
  let ncells = func.Bytecode.Program.ncells in
  {
    act_args = padded;
    act_env = env;
    act_cells = (if ncells = 0 then [||] else Array.init ncells (fun _ -> ref Value.Undefined));
    act_osr_args = [||];
    act_osr_locals = [||];
  }

exception Bail of int * string  (* snapshot id, reason *)

(* Dispatch-loop exit, same idiom as the interpreter: [Ret] raises instead
   of the loop comparing an option per executed instruction. Never escapes
   [run]. *)
exception Returned of Value.t

type prepared = { code : Code.t; costs : int array }

let prepare (code : Code.t) =
  let loc = function
    | Code.V _ -> invalid_arg "Exec.prepare: unallocated code"
    | Code.R r ->
      if r < 0 || r >= Regalloc.num_registers then invalid_arg "Exec.prepare: bad register"
    | Code.S s ->
      if s < 0 || s >= code.Code.nslots then invalid_arg "Exec.prepare: bad spill slot"
  in
  let src = function Code.L l -> loc l | Code.Imm _ -> () in
  Array.iter
    (function
      | Code.Op { dst; args; _ } ->
        Option.iter loc dst;
        Array.iter src args
      | Code.Branch (c, _, _) -> src c
      | Code.Ret s -> src s
      | Code.Jump _ -> ())
    code.Code.instrs;
  Array.iter
    (fun s ->
      Array.iter src s.Code.sn_args;
      Array.iter src s.Code.sn_locals;
      Array.iter src s.Code.sn_stack)
    code.Code.snapshots;
  { code; costs = Array.map Cost.instr code.Code.instrs }

(* The register file and the spill slots share one frame array: slot [s]
   lives at [Regalloc.num_registers + s]. [prepare] checked every location
   against that frame and rejected virtual registers, so accesses go
   unchecked and the [V] arms are unreachable. *)
let read m = function
  | Code.Imm v -> v
  | Code.L (Code.R r) -> Array.unsafe_get m r
  | Code.L (Code.S s) -> Array.unsafe_get m (Regalloc.num_registers + s)
  | Code.L (Code.V _) -> assert false

let arg m args i = read m args.(i)

let set m dst v =
  match dst with
  | Some (Code.R r) -> Array.unsafe_set m r v
  | Some (Code.S s) -> Array.unsafe_set m (Regalloc.num_registers + s) v
  | Some (Code.V _) -> assert false
  | None -> ()

(* [args.(first ..)] read into one fresh array. *)
let read_from m args first =
  let n = Array.length args - first in
  if n <= 0 then [||]
  else begin
    let a = Array.make n (arg m args first) in
    for i = 1 to n - 1 do
      a.(i) <- arg m args (first + i)
    done;
    a
  end

let bail snap reason =
  match snap with
  | Some id -> raise (Bail (id, reason))
  | None -> invalid_arg ("Exec.run: guard without snapshot: " ^ reason)

(* Chaos layer: a passing guard may be forced down its bailout path
   (snapshot and all). Only guards with a snapshot count as occurrences — a
   snapshot-less site has no bail path to take. *)
let inject cb snap = match snap with Some _ -> Faults.fire cb.faults Faults.Exec_guard | None -> false

(* Every cycle charge, with its attribution note. *)
let charge cb code pc n =
  cb.cycles := !(cb.cycles) + n;
  match cb.on_charge with Some hook -> hook code pc n | None -> ()

(* One [Code.Op]: compute its value and write [dst] ([Undefined] for a
   value-less op). Calls charge their overhead first. *)
let exec_op cb act m code pc dst op args snap =
  match op with
  | Code.Move -> set m dst (arg m args 0)
  | Code.Param i -> set m dst act.act_args.(i)
  | Code.Osr_arg i -> set m dst act.act_osr_args.(i)
  | Code.Osr_local i -> set m dst act.act_osr_locals.(i)
  | Code.Bin (bop, mode) -> (
    let r = Ops.binop bop (arg m args 0) (arg m args 1) in
    match mode with
    | Mir.Mode_int -> (
      (* Checked int32 arithmetic: bail when the JS result leaves the int32
         domain (overflow, NaN from x%0, >>> overflow). *)
      match r with
      | Value.Int _ -> if inject cb snap then bail snap "int32 overflow" else set m dst r
      | _ -> bail snap "int32 overflow")
    | Mir.Mode_int_nocheck | Mir.Mode_double | Mir.Mode_generic -> set m dst r)
  | Code.Cmp_op cop -> set m dst (Ops.cmp cop (arg m args 0) (arg m args 1))
  | Code.Un uop -> set m dst (Ops.unop uop (arg m args 0))
  | Code.To_bool_op -> set m dst (Value.Bool (Convert.to_boolean (arg m args 0)))
  | Code.Guard_type tag ->
    let v = arg m args 0 in
    if Value.tag_of v = tag then if inject cb snap then bail snap "type barrier" else set m dst v
    else bail snap "type barrier"
  | Code.Guard_array -> (
    match arg m args 0 with
    | Value.Arr _ as v -> if inject cb snap then bail snap "not an array" else set m dst v
    | _ -> bail snap "not an array")
  | Code.Guard_bounds -> (
    match (arg m args 0, arg m args 1) with
    | Value.Int i, Value.Arr a when i >= 0 && i < a.Value.length ->
      if inject cb snap then bail snap "bounds check" else set m dst Value.Undefined
    | _ -> bail snap "bounds check")
  | Code.Load_elem_op -> (
    match (arg m args 0, arg m args 1) with
    | Value.Arr a, Value.Int i -> set m dst (Value.arr_get a i)
    | _ -> invalid_arg "Exec.run: ldelem on non-array (missing guard)")
  | Code.Store_elem_op ->
    (match (arg m args 0, arg m args 1) with
    | Value.Arr a, Value.Int i -> Value.arr_set a i (arg m args 2)
    | _ -> invalid_arg "Exec.run: stelem on non-array (missing guard)");
    set m dst Value.Undefined
  | Code.Elem_gen_op -> set m dst (Objmodel.get_elem (arg m args 0) (arg m args 1))
  | Code.Store_elem_gen_op ->
    Objmodel.set_elem (arg m args 0) (arg m args 1) (arg m args 2);
    set m dst Value.Undefined
  | Code.Load_prop_op p -> set m dst (Objmodel.get_prop (arg m args 0) p)
  | Code.Store_prop_op p ->
    Objmodel.set_prop (arg m args 0) p (arg m args 1);
    set m dst Value.Undefined
  | Code.Arr_len -> (
    match arg m args 0 with
    | Value.Arr a -> set m dst (Value.Int a.Value.length)
    | _ -> invalid_arg "Exec.run: arrlen on non-array")
  | Code.Str_len -> (
    match arg m args 0 with
    | Value.Str s -> set m dst (Value.Int (String.length s))
    | _ -> invalid_arg "Exec.run: strlen on non-string")
  | Code.Call_dyn | Code.Call_known_op _ ->
    charge cb code pc Cost.call_overhead;
    set m dst (cb.call (arg m args 0) (read_from m args 1))
  | Code.Call_native_op name ->
    charge cb code pc Cost.native_call_overhead;
    set m dst (Builtins.call name (read_from m args 0))
  | Code.Method_call_op name ->
    charge cb code pc Cost.method_call_overhead;
    set m dst (Objmodel.dispatch_method ~call:cb.call (arg m args 0) name (read_from m args 1))
  | Code.New_array_op ->
    set m dst (Value.Arr (Value.arr_of_list (Array.to_list (read_from m args 0))))
  | Code.Construct_op ctor -> set m dst (Objmodel.construct ctor (read_from m args 0))
  | Code.New_object_op keys ->
    let obj = Value.new_obj () in
    for i = 0 to Array.length keys - 1 do
      Value.obj_set obj keys.(i) (arg m args i)
    done;
    set m dst (Value.Obj obj)
  | Code.Make_closure_op (fid, caps) ->
    let env =
      Array.map
        (function
          | Bytecode.Instr.Cap_cell i -> act.act_cells.(i)
          | Bytecode.Instr.Cap_upval i -> act.act_env.(i))
        caps
    in
    set m dst (Value.Closure { Value.fid; env; cid = Value.fresh_id () })
  | Code.Get_global_op i -> set m dst cb.globals.(i)
  | Code.Set_global_op i ->
    cb.globals.(i) <- arg m args 0;
    set m dst Value.Undefined
  | Code.Get_cell_op i -> set m dst !(act.act_cells.(i))
  | Code.Set_cell_op i ->
    act.act_cells.(i) := arg m args 0;
    set m dst Value.Undefined
  | Code.Get_upval_op i -> set m dst !(act.act_env.(i))
  | Code.Set_upval_op i ->
    act.act_env.(i) := arg m args 0;
    set m dst Value.Undefined
  | Code.Load_captured_op r -> set m dst !r
  | Code.Store_captured_op r ->
    r := arg m args 0;
    set m dst Value.Undefined

let run cb p act ~at_osr =
  let code = p.code and costs = p.costs in
  let instrs = code.Code.instrs in
  let m = Array.make (Regalloc.num_registers + code.Code.nslots) Value.Undefined in
  let pc =
    ref
      (if at_osr then
         match code.Code.osr_offset with
         | Some o -> o
         | None -> invalid_arg "Exec.run: code has no OSR entry"
       else 0)
  in
  try
    while true do
      let i = !pc in
      charge cb code i (Array.unsafe_get costs i);
      (match cb.on_instr with Some hook -> hook code i | None -> ());
      match Array.unsafe_get instrs i with
      | Code.Jump t -> pc := t
      | Code.Branch (c, t1, t2) -> pc := if Convert.to_boolean (read m c) then t1 else t2
      | Code.Ret s -> raise_notrace (Returned (read m s))
      | Code.Op { dst; op; args; snap } ->
        exec_op cb act m code i dst op args snap;
        pc := i + 1
    done;
    assert false
  with
  | Returned v -> Finished v
  | Bail (id, reason) ->
    (* The penalty is attributed to the guard that failed: [pc] still
       points at the raising instruction. *)
    charge cb code !pc Cost.bailout_penalty;
    let s = code.Code.snapshots.(id) in
    let values srcs = Array.map (read m) srcs in
    Bailed
      {
        bo_pc = s.Code.sn_pc;
        (* [pc] still points at the failing instruction: [Bail] is raised
           during dispatch, before the end-of-instruction increment. *)
        bo_native_pc = !pc;
        bo_args = values s.Code.sn_args;
        bo_locals = values s.Code.sn_locals;
        bo_stack = values s.Code.sn_stack;
        bo_reason = reason;
      }
