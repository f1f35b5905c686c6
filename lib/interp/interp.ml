open Runtime

exception Runtime_error of string

let error fmt = Printf.ksprintf (fun s -> raise (Runtime_error s)) fmt

type frame = {
  func : Bytecode.Program.func;
  args : Value.t array;
  locals : Value.t array;
  cells : Value.t ref array;
  upvals : Value.t ref array;
  stack : Value.t array;
  mutable sp : int;
  mutable pc : int;
}

type state = {
  program : Bytecode.Program.t;
  globals : Value.t array;
  mutable icount : int;
  mutable depth : int;
  max_depth : int;
}

type hooks = {
  call : Value.t -> Value.t array -> Value.t;
  loop_head : frame -> Value.t option;
  step : (int -> int -> unit) option;
}

let default_max_depth = 10_000

let make_state ?(max_depth = default_max_depth) program =
  let globals = Array.make (Array.length program.Bytecode.Program.global_names) Value.Undefined in
  List.iter
    (fun (name, v) ->
      match Bytecode.Program.global_slot program name with
      | Some slot -> globals.(slot) <- v
      | None -> ())
    (Builtins.globals ());
  { program; globals; icount = 0; depth = 0; max_depth }

let make_frame (func : Bytecode.Program.func) ~args ~upvals =
  let padded =
    if Array.length args >= func.arity then args
    else
      Array.init func.arity (fun i ->
          if i < Array.length args then args.(i) else Value.Undefined)
  in
  {
    func;
    args = padded;
    locals = Array.make (max func.nlocals 1) Value.Undefined;
    cells = Array.init (max func.ncells 1) (fun _ -> ref Value.Undefined);
    upvals;
    stack = Array.make (max func.max_stack 1) Value.Undefined;
    sp = 0;
    pc = 0;
  }

let push frame v =
  frame.stack.(frame.sp) <- v;
  frame.sp <- frame.sp + 1

let pop frame =
  frame.sp <- frame.sp - 1;
  frame.stack.(frame.sp)

(* A fresh array per call on purpose: callee argument arrays escape into
   engine state (argument-profile snapshots, specialization burn-in, frame
   aliasing in [make_frame] when no padding is needed), so a reused scratch
   buffer here would alias live frames. Opcodes whose operands do *not*
   escape ([New_array], [New_object]) read the operand stack in place
   instead of going through this. *)
let pop_n frame n =
  let vs = Array.sub frame.stack (frame.sp - n) n in
  frame.sp <- frame.sp - n;
  vs

(* Object-model operations are shared with the native executor through
   Runtime.Objmodel; wrap its errors in the interpreter's exception. *)
let om f = try f () with Objmodel.Error msg -> raise (Runtime_error msg)

let get_prop_value recv name = om (fun () -> Objmodel.get_prop recv name)
let set_prop_value recv name v = om (fun () -> Objmodel.set_prop recv name v)
let get_elem_value recv idx = om (fun () -> Objmodel.get_elem recv idx)
let set_elem_value recv idx v = om (fun () -> Objmodel.set_elem recv idx v)
let construct ctor args = om (fun () -> Objmodel.construct ctor args)

(* Dispatch-loop exit. The seed looped on [while !result = None], paying a
   polymorphic compare against an option per executed instruction; raising
   a no-trace exception on the three exit opcodes makes the loop condition
   free. The exception never crosses a frame: each [run] has its own
   handler, and nested calls recurse through [hooks.call] into a fresh
   [run]. *)
exception Returned of Value.t

let rec run state hooks frame =
  let code = frame.func.Bytecode.Program.code in
  let fid = frame.func.Bytecode.Program.fid in
  try
    while true do
      (* Code arrays come out of the bytecode compiler, whose emitted jump
         targets are in bounds by construction (and re-checked by
         Bc_verify under the lint gate), so the fetch skips the bounds
         check. *)
      let instr = Array.unsafe_get code frame.pc in
      state.icount <- state.icount + 1;
      (match hooks.step with Some hook -> hook fid frame.pc | None -> ());
      let next = frame.pc + 1 in
      (match instr with
    | Bytecode.Instr.Const v ->
      push frame v;
      frame.pc <- next
    | Bytecode.Instr.Get_arg i ->
      push frame frame.args.(i);
      frame.pc <- next
    | Bytecode.Instr.Set_arg i ->
      frame.args.(i) <- pop frame;
      frame.pc <- next
    | Bytecode.Instr.Get_local i ->
      push frame frame.locals.(i);
      frame.pc <- next
    | Bytecode.Instr.Set_local i ->
      frame.locals.(i) <- pop frame;
      frame.pc <- next
    | Bytecode.Instr.Get_cell i ->
      push frame !(frame.cells.(i));
      frame.pc <- next
    | Bytecode.Instr.Set_cell i ->
      frame.cells.(i) := pop frame;
      frame.pc <- next
    | Bytecode.Instr.Get_upval i ->
      push frame !(frame.upvals.(i));
      frame.pc <- next
    | Bytecode.Instr.Set_upval i ->
      frame.upvals.(i) := pop frame;
      frame.pc <- next
    | Bytecode.Instr.Get_global i ->
      push frame state.globals.(i);
      frame.pc <- next
    | Bytecode.Instr.Set_global i ->
      state.globals.(i) <- pop frame;
      frame.pc <- next
    | Bytecode.Instr.Pop ->
      ignore (pop frame);
      frame.pc <- next
    | Bytecode.Instr.Dup ->
      let v = frame.stack.(frame.sp - 1) in
      push frame v;
      frame.pc <- next
    | Bytecode.Instr.Binop op ->
      let b = pop frame in
      let a = pop frame in
      push frame (Ops.binop op a b);
      frame.pc <- next
    | Bytecode.Instr.Cmp op ->
      let b = pop frame in
      let a = pop frame in
      push frame (Ops.cmp op a b);
      frame.pc <- next
    | Bytecode.Instr.Unop op ->
      let a = pop frame in
      push frame (Ops.unop op a);
      frame.pc <- next
    | Bytecode.Instr.Jump t -> frame.pc <- t
    | Bytecode.Instr.Jump_if_false t ->
      let v = pop frame in
      frame.pc <- (if Convert.to_boolean v then next else t)
    | Bytecode.Instr.Jump_if_true t ->
      let v = pop frame in
      frame.pc <- (if Convert.to_boolean v then t else next)
    | Bytecode.Instr.Loop_head _ -> (
      match hooks.loop_head frame with
      | Some v -> raise_notrace (Returned v)
      | None -> frame.pc <- next)
    | Bytecode.Instr.Call n ->
      let args = pop_n frame n in
      let callee = pop frame in
      push frame (hooks.call callee args);
      frame.pc <- next
    | Bytecode.Instr.Method_call (name, n) ->
      let args = pop_n frame n in
      let recv = pop frame in
      let value = om (fun () -> Objmodel.dispatch_method ~call:hooks.call recv name args) in
      push frame value;
      frame.pc <- next
    | Bytecode.Instr.Return -> raise_notrace (Returned (pop frame))
    | Bytecode.Instr.Return_undefined -> raise_notrace (Returned Value.Undefined)
    | Bytecode.Instr.New_array n ->
      (* Elements are consumed immediately: read them off the operand
         stack in place instead of allocating an intermediate array. *)
      let a = Value.new_arr n in
      let base = frame.sp - n in
      for i = 0 to n - 1 do
        a.Value.elems.(i) <- frame.stack.(base + i)
      done;
      frame.sp <- base;
      push frame (Value.Arr a);
      frame.pc <- next
    | Bytecode.Instr.New (ctor, n) ->
      let args = pop_n frame n in
      push frame (construct ctor args);
      frame.pc <- next
    | Bytecode.Instr.New_object fields ->
      let n = Array.length fields in
      let base = frame.sp - n in
      let obj = Value.new_obj () in
      Array.iteri (fun i key -> Value.obj_set obj key frame.stack.(base + i)) fields;
      frame.sp <- base;
      push frame (Value.Obj obj);
      frame.pc <- next
    | Bytecode.Instr.Get_elem ->
      let idx = pop frame in
      let recv = pop frame in
      push frame (get_elem_value recv idx);
      frame.pc <- next
    | Bytecode.Instr.Set_elem ->
      let v = pop frame in
      let idx = pop frame in
      let recv = pop frame in
      set_elem_value recv idx v;
      push frame v;
      frame.pc <- next
    | Bytecode.Instr.Keys ->
      let v = pop frame in
      push frame (Builtins.call "__keys" [| v |]);
      frame.pc <- next
    | Bytecode.Instr.Get_prop name ->
      let recv = pop frame in
      push frame (get_prop_value recv name);
      frame.pc <- next
    | Bytecode.Instr.Set_prop name ->
      let v = pop frame in
      let recv = pop frame in
      set_prop_value recv name v;
      push frame v;
      frame.pc <- next
    | Bytecode.Instr.Make_closure (fid, captures) ->
      let env =
        Array.map
          (function
            | Bytecode.Instr.Cap_cell i -> frame.cells.(i)
            | Bytecode.Instr.Cap_upval i -> frame.upvals.(i))
          captures
      in
      push frame (Value.Closure { Value.fid; env; cid = Value.fresh_id () });
      frame.pc <- next)
    done;
    assert false
  with Returned v -> v

and call_value state hooks callee args =
  match callee with
  | Value.Closure c ->
    if state.depth >= state.max_depth then raise (Runtime_error "stack overflow");
    let func = state.program.Bytecode.Program.funcs.(c.Value.fid) in
    let frame = make_frame func ~args ~upvals:c.Value.env in
    state.depth <- state.depth + 1;
    Fun.protect
      ~finally:(fun () -> state.depth <- state.depth - 1)
      (fun () -> run state hooks frame)
  | Value.Native_fun name -> (
    try Builtins.call name args with Builtins.Runtime_error msg -> raise (Runtime_error msg))
  | other -> error "value of type %s is not callable" (Value.typeof other)

let default_hooks state =
  let rec hooks =
    {
      call = (fun callee args -> call_value state hooks callee args);
      loop_head = (fun _ -> None);
      step = None;
    }
  in
  hooks

let run_program program =
  let state = make_state program in
  let hooks = default_hooks state in
  let main = program.Bytecode.Program.funcs.(program.Bytecode.Program.main) in
  let frame = make_frame main ~args:[||] ~upvals:[||] in
  let v = run state hooks frame in
  (state, v)
