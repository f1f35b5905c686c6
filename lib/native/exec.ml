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
}

let make_activation ?(env = [||]) ?osr ~(func : Bytecode.Program.func) ~args () =
  let padded =
    if Array.length args >= func.Bytecode.Program.arity then args
    else
      Array.init func.Bytecode.Program.arity (fun i ->
          if i < Array.length args then args.(i) else Value.Undefined)
  in
  let osr_args, osr_locals = Option.value osr ~default:([||], [||]) in
  {
    act_args = padded;
    act_env = env;
    act_cells = Array.init (max func.Bytecode.Program.ncells 1) (fun _ -> ref Value.Undefined);
    act_osr_args = osr_args;
    act_osr_locals = osr_locals;
  }

exception Bail of int * string  (* snapshot id, reason *)

(* Dispatch-loop exit, same idiom as the interpreter: [Ret] raises instead
   of the loop comparing an option per executed instruction. Never escapes
   [run]. *)
exception Returned of Value.t

let run cb (code : Code.t) act ~at_osr =
  let regs = Array.make Regalloc.num_registers Value.Undefined in
  let slots = Array.make (max code.Code.nslots 1) Value.Undefined in
  let read_src = function
    | Code.Imm v -> v
    | Code.L (Code.R r) -> regs.(r)
    | Code.L (Code.S s) -> slots.(s)
    | Code.L (Code.V _) -> invalid_arg "Exec.run: unallocated code"
  in
  let write_loc l v =
    match l with
    | Code.R r -> regs.(r) <- v
    | Code.S s -> slots.(s) <- v
    | Code.V _ -> invalid_arg "Exec.run: unallocated code"
  in
  let pc =
    ref
      (if at_osr then
         match code.Code.osr_offset with
         | Some o -> o
         | None -> invalid_arg "Exec.run: code has no OSR entry"
       else 0)
  in
  let note pc n = match cb.on_charge with Some hook -> hook code pc n | None -> () in
  try
    while true do
      let instr = Array.unsafe_get code.Code.instrs !pc in
      cb.cycles := !(cb.cycles) + Cost.instr instr;
      note !pc (Cost.instr instr);
      (match cb.on_instr with Some hook -> hook code !pc | None -> ());
      (match instr with
       | Code.Jump t -> pc := t
       | Code.Branch (c, t1, t2) ->
         pc := (if Convert.to_boolean (read_src c) then t1 else t2)
       | Code.Ret s -> raise_notrace (Returned (read_src s))
       | Code.Op { dst; op; args; snap } ->
         let arg i = read_src args.(i) in
         let bail reason =
           match snap with
           | Some id -> raise (Bail (id, reason))
           | None -> invalid_arg ("Exec.run: guard without snapshot: " ^ reason)
         in
         (* Chaos layer: a passing guard may be forced down its bailout
            path (snapshot and all). Only guards with a snapshot count as
            occurrences — a snapshot-less site has no bail path to take. *)
         let inject () = snap <> None && Faults.fire Faults.Exec_guard in
         let value =
           match op with
           | Code.Move -> Some (arg 0)
           | Code.Param i -> Some act.act_args.(i)
           | Code.Osr_arg i -> Some act.act_osr_args.(i)
           | Code.Osr_local i -> Some act.act_osr_locals.(i)
           | Code.Bin (bop, mode) -> (
             let r = Ops.binop bop (arg 0) (arg 1) in
             match mode with
             | Mir.Mode_int -> (
               (* Checked int32 arithmetic: bail when the JS result leaves
                  the int32 domain (overflow, NaN from x%0, >>> overflow). *)
               match r with
               | Value.Int _ -> if inject () then bail "int32 overflow" else Some r
               | _ -> bail "int32 overflow")
             | Mir.Mode_int_nocheck | Mir.Mode_double | Mir.Mode_generic -> Some r)
           | Code.Cmp_op cop -> Some (Ops.cmp cop (arg 0) (arg 1))
           | Code.Un uop -> Some (Ops.unop uop (arg 0))
           | Code.To_bool_op -> Some (Value.Bool (Convert.to_boolean (arg 0)))
           | Code.Guard_type tag ->
             let v = arg 0 in
             if Value.tag_of v = tag then
               if inject () then bail "type barrier" else Some v
             else bail "type barrier"
           | Code.Guard_array -> (
             match arg 0 with
             | Value.Arr _ as v -> if inject () then bail "not an array" else Some v
             | _ -> bail "not an array")
           | Code.Guard_bounds -> (
             match (arg 0, arg 1) with
             | Value.Int i, Value.Arr a when i >= 0 && i < a.Value.length ->
               if inject () then bail "bounds check" else None
             | _ -> bail "bounds check")
           | Code.Load_elem_op -> (
             match (arg 0, arg 1) with
             | Value.Arr a, Value.Int i -> Some (Value.arr_get a i)
             | _ -> invalid_arg "Exec.run: ldelem on non-array (missing guard)")
           | Code.Store_elem_op ->
             (match (arg 0, arg 1) with
             | Value.Arr a, Value.Int i -> Value.arr_set a i (arg 2)
             | _ -> invalid_arg "Exec.run: stelem on non-array (missing guard)");
             None
           | Code.Elem_gen_op -> Some (Objmodel.get_elem (arg 0) (arg 1))
           | Code.Store_elem_gen_op ->
             Objmodel.set_elem (arg 0) (arg 1) (arg 2);
             None
           | Code.Load_prop_op p -> Some (Objmodel.get_prop (arg 0) p)
           | Code.Store_prop_op p ->
             Objmodel.set_prop (arg 0) p (arg 1);
             None
           | Code.Arr_len -> (
             match arg 0 with
             | Value.Arr a -> Some (Value.Int a.Value.length)
             | _ -> invalid_arg "Exec.run: arrlen on non-array")
           | Code.Str_len -> (
             match arg 0 with
             | Value.Str s -> Some (Value.Int (String.length s))
             | _ -> invalid_arg "Exec.run: strlen on non-string")
           | Code.Call_dyn | Code.Call_known_op _ ->
             cb.cycles := !(cb.cycles) + Cost.call_overhead;
             note !pc Cost.call_overhead;
             let callee = arg 0 in
             let actuals = Array.sub args 1 (Array.length args - 1) in
             Some (cb.call callee (Array.map read_src actuals))
           | Code.Call_native_op name ->
             cb.cycles := !(cb.cycles) + Cost.native_call_overhead;
             note !pc Cost.native_call_overhead;
             Some (Builtins.call name (Array.map read_src args))
           | Code.Method_call_op name ->
             cb.cycles := !(cb.cycles) + Cost.method_call_overhead;
             note !pc Cost.method_call_overhead;
             let recv = arg 0 in
             let actuals =
               Array.map read_src (Array.sub args 1 (Array.length args - 1))
             in
             Some (Objmodel.dispatch_method ~call:cb.call recv name actuals)
           | Code.New_array_op ->
             Some (Value.Arr (Value.arr_of_list (Array.to_list (Array.map read_src args))))
           | Code.Construct_op ctor ->
             Some (Objmodel.construct ctor (Array.map read_src args))
           | Code.New_object_op keys ->
             let obj = Value.new_obj () in
             Array.iteri (fun i key -> Value.obj_set obj key (arg i)) keys;
             Some (Value.Obj obj)
           | Code.Make_closure_op (fid, caps) ->
             let env =
               Array.map
                 (function
                   | Bytecode.Instr.Cap_cell i -> act.act_cells.(i)
                   | Bytecode.Instr.Cap_upval i -> act.act_env.(i))
                 caps
             in
             Some (Value.Closure { Value.fid; env; cid = Value.fresh_id () })
           | Code.Get_global_op i -> Some cb.globals.(i)
           | Code.Set_global_op i ->
             cb.globals.(i) <- arg 0;
             None
           | Code.Get_cell_op i -> Some !(act.act_cells.(i))
           | Code.Set_cell_op i ->
             act.act_cells.(i) := arg 0;
             None
           | Code.Get_upval_op i -> Some !(act.act_env.(i))
           | Code.Set_upval_op i ->
             act.act_env.(i) := arg 0;
             None
           | Code.Load_captured_op r -> Some !r
           | Code.Store_captured_op r ->
             r := arg 0;
             None
         in
         (match (dst, value) with
         | Some l, Some v -> write_loc l v
         | Some l, None -> write_loc l Value.Undefined
         | None, _ -> ());
         incr pc)
    done;
    assert false
  with
  | Returned v -> Finished v
  | Bail (id, reason) ->
    cb.cycles := !(cb.cycles) + Cost.bailout_penalty;
    (* The penalty is attributed to the guard that failed: [pc] still
       points at the raising instruction. *)
    note !pc Cost.bailout_penalty;
    let s = code.Code.snapshots.(id) in
    let values srcs = Array.map read_src srcs in
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
