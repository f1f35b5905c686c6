(* The cycle-accounting profiler: attributes every simulated cycle to the
   origin that caused it.

   Attribution rides the provenance the IRs already carry: every MIR
   instruction records the bytecode (fid, pc) it derives from and the pass
   that created it ([Mir.origin]); lowering threads those tags into a
   [Code.t.origins] array index-aligned with the native instructions. An
   engine with a [Recorder] attached passes its hooks to the executors in
   the callback records it builds ([Exec.callbacks.on_charge],
   [Interp.hooks.step]) and reports its two compile-cycle charges through
   [Recorder.note_compile]; the recorder folds each charge into a (origin,
   tier, category) cell. None of this alters a single charge: with no
   recorder attached the hooks are [None] and the cycle stream is
   byte-identical to an unprofiled run (the [Faults] zero-cost contract).
   By construction the recorder's total equals the engine report's
   [total_cycles] exactly. *)

(* ------------------------------------------------------------------ *)
(* Tiers and categories                                                *)
(* ------------------------------------------------------------------ *)

(* Which execution tier a cycle was spent in. *)
type tier =
  | T_interp  (* bytecode interpretation *)
  | T_native_gen  (* generic (unspecialized) native code *)
  | T_native_spec  (* value-specialized native code *)
  | T_native_widened  (* tag-specialized (widened polyvariant) native code *)
  | T_compile  (* the JIT itself: pipeline + codegen *)

let tier_to_string = function
  | T_interp -> "interp"
  | T_native_gen -> "native-gen"
  | T_native_spec -> "native-spec"
  | T_native_widened -> "native-widened"
  | T_compile -> "compile"

(* What kind of work the cycle paid for — the guard/ALU/memory split the
   paper's argument is about (which checks does specialization remove?). *)
type category =
  | C_guard  (* type barriers, array checks, bounds checks *)
  | C_alu  (* arithmetic, compares, moves, coercions *)
  | C_mem  (* loads/stores: elements, properties, globals, cells *)
  | C_call  (* call dispatch and its overhead *)
  | C_alloc  (* arrays, objects, closures *)
  | C_control  (* jumps, branches, returns, loop heads *)
  | C_compile  (* compile-time work (tier [T_compile] only) *)

let category_to_string = function
  | C_guard -> "guard"
  | C_alu -> "alu"
  | C_mem -> "mem"
  | C_call -> "call"
  | C_alloc -> "alloc"
  | C_control -> "control"
  | C_compile -> "compile"

let category_of_op : Code.op -> category = function
  | Code.Guard_type _ | Code.Guard_array | Code.Guard_bounds -> C_guard
  | Code.Move | Code.Param _ | Code.Osr_arg _ | Code.Osr_local _ | Code.Bin _
  | Code.Cmp_op _ | Code.Un _ | Code.To_bool_op ->
    C_alu
  | Code.Load_elem_op | Code.Store_elem_op | Code.Elem_gen_op | Code.Store_elem_gen_op
  | Code.Load_prop_op _ | Code.Store_prop_op _ | Code.Arr_len | Code.Str_len
  | Code.Get_global_op _ | Code.Set_global_op _ | Code.Get_cell_op _
  | Code.Set_cell_op _ | Code.Get_upval_op _ | Code.Set_upval_op _
  | Code.Load_captured_op _ | Code.Store_captured_op _ ->
    C_mem
  | Code.Call_dyn | Code.Call_known_op _ | Code.Call_native_op _
  | Code.Method_call_op _ ->
    C_call
  | Code.New_array_op | Code.Construct_op _ | Code.New_object_op _
  | Code.Make_closure_op _ ->
    C_alloc

let category_of_ninstr : Code.ninstr -> category = function
  | Code.Op { op; _ } -> category_of_op op
  | Code.Jump _ | Code.Branch _ | Code.Ret _ -> C_control

let category_of_bytecode : Bytecode.Instr.t -> category = function
  | Bytecode.Instr.Const _ | Bytecode.Instr.Get_arg _ | Bytecode.Instr.Set_arg _
  | Bytecode.Instr.Get_local _ | Bytecode.Instr.Set_local _ | Bytecode.Instr.Pop
  | Bytecode.Instr.Dup | Bytecode.Instr.Binop _ | Bytecode.Instr.Cmp _
  | Bytecode.Instr.Unop _ ->
    C_alu
  | Bytecode.Instr.Get_cell _ | Bytecode.Instr.Set_cell _ | Bytecode.Instr.Get_upval _
  | Bytecode.Instr.Set_upval _ | Bytecode.Instr.Get_global _
  | Bytecode.Instr.Set_global _ | Bytecode.Instr.Get_elem | Bytecode.Instr.Set_elem
  | Bytecode.Instr.Keys | Bytecode.Instr.Get_prop _ | Bytecode.Instr.Set_prop _ ->
    C_mem
  | Bytecode.Instr.Jump _ | Bytecode.Instr.Jump_if_false _
  | Bytecode.Instr.Jump_if_true _ | Bytecode.Instr.Loop_head _ | Bytecode.Instr.Return
  | Bytecode.Instr.Return_undefined ->
    C_control
  | Bytecode.Instr.Call _ | Bytecode.Instr.Method_call _ -> C_call
  | Bytecode.Instr.New_array _ | Bytecode.Instr.New _ | Bytecode.Instr.New_object _
  | Bytecode.Instr.Make_closure _ ->
    C_alloc

(* ------------------------------------------------------------------ *)
(* The recorder                                                        *)
(* ------------------------------------------------------------------ *)

(* One attribution cell per distinct (function, bytecode pc, producing
   pass, tier, category). [pc = -1] marks charges with no bytecode site
   (compile-stage work). *)
type key = {
  k_fid : int;
  k_pc : int;
  k_pass : string;
  k_tier : tier;
  k_cat : category;
  k_ver : int;
      (* version-cache id of the charging binary (polyvariant policy);
         0 = unversioned, so paper-policy cells are unchanged *)
}

type cell = { mutable c_cycles : int; mutable c_count : int }

type row = { r_key : key; r_cycles : int; r_count : int }

module Recorder = struct
  type t = {
    program : Bytecode.Program.t;
    cells : (key, cell) Hashtbl.t;
    ops : (string, cell) Hashtbl.t;  (* native opcode -> executions, cycles *)
  }

  let create ~program = { program; cells = Hashtbl.create 256; ops = Hashtbl.create 64 }

  let add tbl key cycles =
    match Hashtbl.find_opt tbl key with
    | Some c ->
      c.c_cycles <- c.c_cycles + cycles;
      c.c_count <- c.c_count + 1
    | None -> Hashtbl.replace tbl key { c_cycles = cycles; c_count = 1 }

  (* The executor-side hook: recover provenance from the code's origin
     array, classify by opcode, bucket by the binary's tier. *)
  let exec_hook r (code : Code.t) pc cycles =
    let org = code.Code.origins.(pc) in
    let tier =
      if code.Code.widened then T_native_widened
      else if code.Code.specialized then T_native_spec
      else T_native_gen
    in
    add r.cells
      {
        k_fid = org.Mir.o_fid;
        k_pc = org.Mir.o_pc;
        k_pass = org.Mir.o_pass;
        k_tier = tier;
        k_cat = category_of_ninstr code.Code.instrs.(pc);
        k_ver = code.Code.version;
      }
      cycles

  (* The executor's per-instruction hook: one execution of the opcode, with
     its [Cost.instr] cycles (call overheads and bailout penalties are
     charge-site costs, not opcode costs) — the native-op table's input. *)
  let instr_hook r (code : Code.t) pc =
    let n = code.Code.instrs.(pc) in
    let op =
      match n with
      | Code.Op { op; _ } -> Code.op_to_string op
      | Code.Jump _ -> "jmp"
      | Code.Branch _ -> "brt"
      | Code.Ret _ -> "ret"
    in
    add r.ops op (Cost.instr n)

  (* The interpreter-side hook: one charge of [Cost.interp_per_instr] per
     interpreted instruction, classified from the bytecode itself. Summing
     these reproduces [icount * interp_per_instr] exactly. *)
  let interp_hook r fid pc =
    let func = r.program.Bytecode.Program.funcs.(fid) in
    add r.cells
      {
        k_fid = fid;
        k_pc = pc;
        k_pass = "bytecode";
        k_tier = T_interp;
        k_cat = category_of_bytecode func.Bytecode.Program.code.(pc);
        k_ver = 0;
      }
      Cost.interp_per_instr

  (* Compile-stage charges, reported by the engine right next to each of
     its two [compile_cycles] bumps ("mir" for the pipeline portion,
     "codegen" for lowering + regalloc) — including on compiles that abort
     after charging, so attribution stays exact under faults. *)
  let note_compile r ~fid ~stage cycles =
    add r.cells
      {
        k_fid = fid;
        k_pc = -1;
        k_pass = stage;
        k_tier = T_compile;
        k_cat = C_compile;
        k_ver = 0;
      }
      cycles

  let fname r fid = r.program.Bytecode.Program.funcs.(fid).Bytecode.Program.name

  (* ---------------- queries ---------------- *)

  let total_cycles r = Hashtbl.fold (fun _ c acc -> acc + c.c_cycles) r.cells 0

  (* All cells as rows in a deterministic order (key-sorted), independent
     of hash iteration order — what the folded output and the tests use. *)
  let rows r =
    let all =
      Hashtbl.fold
        (fun k c acc -> { r_key = k; r_cycles = c.c_cycles; r_count = c.c_count } :: acc)
        r.cells []
    in
    List.sort (fun a b -> compare a.r_key b.r_key) all

  let tier_cycles r tier =
    Hashtbl.fold
      (fun k c acc -> if k.k_tier = tier then acc + c.c_cycles else acc)
      r.cells 0

  (* Per-function summary: (fid, total, per-tier, per-category) — category
     totals cover the native tiers only (the guard/ALU/memory split of
     compiled code, which is what specialization changes). *)
  type func_summary = {
    fs_fid : int;
    fs_name : string;
    fs_total : int;
    fs_interp : int;
    fs_native_gen : int;
    fs_native_spec : int;
    fs_native_widened : int;
    fs_compile : int;
    fs_guard : int;
    fs_alu : int;
    fs_mem : int;
    fs_call : int;
    fs_alloc : int;
    fs_control : int;
  }

  let by_function r =
    let tbl = Hashtbl.create 16 in
    Hashtbl.iter
      (fun k c ->
        let s =
          match Hashtbl.find_opt tbl k.k_fid with
          | Some s -> s
          | None ->
            let s =
              ref
                {
                  fs_fid = k.k_fid;
                  fs_name = fname r k.k_fid;
                  fs_total = 0;
                  fs_interp = 0;
                  fs_native_gen = 0;
                  fs_native_spec = 0;
                  fs_native_widened = 0;
                  fs_compile = 0;
                  fs_guard = 0;
                  fs_alu = 0;
                  fs_mem = 0;
                  fs_call = 0;
                  fs_alloc = 0;
                  fs_control = 0;
                }
            in
            Hashtbl.replace tbl k.k_fid s;
            s
        in
        let v = !s in
        let v = { v with fs_total = v.fs_total + c.c_cycles } in
        let v =
          match k.k_tier with
          | T_interp -> { v with fs_interp = v.fs_interp + c.c_cycles }
          | T_native_gen -> { v with fs_native_gen = v.fs_native_gen + c.c_cycles }
          | T_native_spec -> { v with fs_native_spec = v.fs_native_spec + c.c_cycles }
          | T_native_widened ->
            { v with fs_native_widened = v.fs_native_widened + c.c_cycles }
          | T_compile -> { v with fs_compile = v.fs_compile + c.c_cycles }
        in
        let native =
          match k.k_tier with
          | T_native_gen | T_native_spec | T_native_widened -> true
          | T_interp | T_compile -> false
        in
        let v =
          if not native then v
          else
            match k.k_cat with
            | C_guard -> { v with fs_guard = v.fs_guard + c.c_cycles }
            | C_alu -> { v with fs_alu = v.fs_alu + c.c_cycles }
            | C_mem -> { v with fs_mem = v.fs_mem + c.c_cycles }
            | C_call -> { v with fs_call = v.fs_call + c.c_cycles }
            | C_alloc -> { v with fs_alloc = v.fs_alloc + c.c_cycles }
            | C_control -> { v with fs_control = v.fs_control + c.c_cycles }
            | C_compile -> v
        in
        s := v)
      r.cells;
    let all = Hashtbl.fold (fun _ s acc -> !s :: acc) tbl [] in
    List.sort
      (fun a b ->
        match compare b.fs_total a.fs_total with
        | 0 -> compare a.fs_fid b.fs_fid
        | c -> c)
      all

  (* Native-tier cycles per category across all functions — the attribution
     figure's input. *)
  let native_category_cycles r =
    List.map
      (fun cat ->
        let n =
          Hashtbl.fold
            (fun k c acc ->
              let native =
                match k.k_tier with
                | T_native_gen | T_native_spec | T_native_widened -> true
                | T_interp | T_compile -> false
              in
              if native && k.k_cat = cat then acc + c.c_cycles else acc)
            r.cells 0
        in
        (cat, n))
      [ C_guard; C_alu; C_mem; C_call; C_alloc; C_control ]

  (* ---------------- renderings ---------------- *)

  (* Folded-stack flamegraph text: one "frame1;frame2;... value" line per
     aggregate, deterministic order. Collapse with any flamegraph tool. *)
  let folded r =
    let tbl = Hashtbl.create 64 in
    Hashtbl.iter
      (fun k c ->
        (* The version suffix appears only on versioned cells (polyvariant
           policy), so paper-policy folded output is byte-identical. *)
        let tier_frame =
          if k.k_ver > 0 then Printf.sprintf "%s#v%d" (tier_to_string k.k_tier) k.k_ver
          else tier_to_string k.k_tier
        in
        let stack =
          Printf.sprintf "%s;%s;%s;%s" (fname r k.k_fid) tier_frame k.k_pass
            (category_to_string k.k_cat)
        in
        let prev = Option.value (Hashtbl.find_opt tbl stack) ~default:0 in
        Hashtbl.replace tbl stack (prev + c.c_cycles))
      r.cells;
    let lines = Hashtbl.fold (fun s n acc -> (s, n) :: acc) tbl [] in
    let lines = List.sort compare lines in
    String.concat "" (List.map (fun (s, n) -> Printf.sprintf "%s %d\n" s n) lines)

  (* The --profile top-N table. *)
  let table ?(top = 10) r =
    let buf = Buffer.create 1024 in
    let summaries = by_function r in
    let total = total_cycles r in
    Buffer.add_string buf
      (Printf.sprintf "cycle attribution (total %d model cycles)\n" total);
    Buffer.add_string buf
      (Printf.sprintf "%-20s %12s %10s %11s %12s %9s | %5s %5s %5s\n" "function" "total"
         "interp" "native-gen" "native-spec" "compile" "grd%" "alu%" "mem%");
    let shown = ref 0 in
    List.iter
      (fun s ->
        if !shown < top then begin
          incr shown;
          let native = s.fs_native_gen + s.fs_native_spec + s.fs_native_widened in
          let pct n = if native = 0 then 0. else 100. *. float_of_int n /. float_of_int native in
          Buffer.add_string buf
            (Printf.sprintf "%-20s %12d %10d %11d %12d %9d | %5.1f %5.1f %5.1f\n"
               s.fs_name s.fs_total s.fs_interp s.fs_native_gen
               (s.fs_native_spec + s.fs_native_widened)
               s.fs_compile (pct s.fs_guard) (pct s.fs_alu) (pct s.fs_mem))
        end)
      summaries;
    let rest = List.length summaries - !shown in
    if rest > 0 then Buffer.add_string buf (Printf.sprintf "(+%d more functions)\n" rest);
    Buffer.contents buf

  (* The native-op table: executions and cycles per opcode, most cycles
     first. *)
  let op_table r =
    let rows =
      Hashtbl.fold
        (fun op c acc ->
          (c.c_cycles, [ op; string_of_int c.c_count; string_of_int c.c_cycles ]) :: acc)
        r.ops []
      |> List.sort (fun (a, _) (b, _) -> compare b a)
      |> List.map snd
    in
    Support.Table.render ~header:[ "native op"; "executed"; "cycles" ] ~rows ()
end
