(* Compiled program representation: a table of functions plus a global
   symbol table. Function 0 is always the toplevel script. *)

type func = {
  fid : int;
  name : string;  (* "<toplevel>" or the declared/inferred name *)
  arity : int;
  nlocals : int;  (* plain (non-captured) locals *)
  ncells : int;  (* captured locals, stored in shared cells *)
  nupvals : int;
  code : Instr.t array;
  max_stack : int;
  nloops : int;
  writes_args : bool;
      (* the body assigns a parameter ([Set_arg]): its interpreter frame
         must own its argument array, which the caller still holds *)
}

type t = { funcs : func array; global_names : string array; main : int }

let func t fid = t.funcs.(fid)
let nfuncs t = Array.length t.funcs

let global_slot t name =
  let n = Array.length t.global_names in
  let rec find i =
    if i >= n then None else if t.global_names.(i) = name then Some i else find (i + 1)
  in
  find 0

(* Global slots that provably hold one fixed function forever: assigned
   exactly once in the whole program, by the toplevel's hoisting prologue
   ([Make_closure fid; Set_global i] with no captures). A call through such
   a slot is monomorphic — the MIR builder may lower it as a known call to
   [fid] (the callee value is still loaded and invoked at run time, so
   this is a strength reduction, never a semantic bet). *)
let known_global_funcs t =
  let res = Array.make (Array.length t.global_names) None in
  let sets = Array.make (Array.length t.global_names) 0 in
  Array.iter
    (fun f ->
      Array.iteri
        (fun pc instr ->
          match instr with
          | Instr.Set_global i ->
            sets.(i) <- sets.(i) + 1;
            if f.fid = t.main && pc > 0 then
              (match f.code.(pc - 1) with
              | Instr.Make_closure (fid, [||]) -> res.(i) <- Some fid
              | _ -> ())
          | _ -> ())
        f.code)
    t.funcs;
  Array.iteri (fun i n -> if n <> 1 then res.(i) <- None) sets;
  res

(* Conservative max-stack: walk instructions propagating depth through
   jumps with a worklist; the compiler only emits reducible code, so depth
   at each pc is unique. *)
let compute_max_stack code =
  let n = Array.length code in
  if n = 0 then 0
  else begin
    let depth = Array.make n (-1) in
    let max_depth = ref 0 in
    let worklist = Queue.create () in
    let schedule pc d =
      if pc < n then
        if depth.(pc) = -1 then begin
          depth.(pc) <- d;
          Queue.add pc worklist
        end
        else assert (depth.(pc) = d)
    in
    schedule 0 0;
    while not (Queue.is_empty worklist) do
      let pc = Queue.pop worklist in
      let d = depth.(pc) in
      let instr = code.(pc) in
      let d_before_branch =
        (* For conditional jumps the condition is popped before branching. *)
        match instr with
        | Instr.Jump_if_false t | Instr.Jump_if_true t ->
          schedule t (d - 1);
          d - 1
        | Instr.Jump t ->
          schedule t d;
          d
        | _ -> d + Instr.stack_effect instr
      in
      let peak =
        (* Call-like instructions momentarily hold all operands. *)
        d + max 0 (Instr.stack_effect instr) + 0
      in
      if peak > !max_depth then max_depth := peak;
      if d_before_branch > !max_depth then max_depth := d_before_branch;
      (match instr with
      | Instr.Return | Instr.Return_undefined | Instr.Jump _ -> ()
      | Instr.Jump_if_false _ | Instr.Jump_if_true _ -> schedule (pc + 1) d_before_branch
      | _ -> schedule (pc + 1) d_before_branch)
    done;
    !max_depth + 1
  end

let disassemble_func f =
  let buf = Buffer.create 256 in
  Printf.bprintf buf "function %s (fid=%d, arity=%d, locals=%d, cells=%d, upvals=%d)\n"
    f.name f.fid f.arity f.nlocals f.ncells f.nupvals;
  Array.iteri
    (fun pc instr -> Printf.bprintf buf "%05d: %s\n" pc (Instr.to_string instr))
    f.code;
  Buffer.contents buf

let disassemble t =
  String.concat "\n" (Array.to_list (Array.map disassemble_func t.funcs))
