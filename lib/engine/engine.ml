open Runtime

exception Runtime_error of string

(* A cooperative deadline expired mid-dispatch. Carries where it tripped
   and the budget arithmetic; the service layer converts it into a clean
   request failure. Never raised when [config.deadline] is 0. *)
exception
  Deadline_exceeded of { dl_fid : int; dl_pc : int; dl_spent : int; dl_limit : int }

type config = {
  opt : Pipeline.config;
  jit : bool;
  hot_calls : int;
  hot_loop_edges : int;
  max_bailouts : int;
  cache_size : int;
  policy : Policy.kind;
  selective : bool;
  code_cache_bytes : int;
  max_depth : int;
  deadline : int;
  bg_compile : bool;
  bg_queue_depth : int;
  check : bool;
}

let default_config ?(opt = Pipeline.baseline) ?(policy = Policy.Paper) ?(cache_size = 1)
    ?(selective = false) ?(code_cache_bytes = 0) ?(max_depth = Interp.default_max_depth)
    ?(deadline = 0) ?(bg_compile = false) ?(bg_queue_depth = 8) ?(check = false) () =
  {
    opt;
    jit = true;
    hot_calls = 10;
    hot_loop_edges = 40;
    max_bailouts = 3;
    cache_size;
    selective;
    code_cache_bytes;
    max_depth;
    policy;
    deadline;
    bg_compile;
    bg_queue_depth;
    check;
  }

let interp_only = { (default_config ()) with jit = false }

(* Compile failures (aborted compilations, cache-admission failures, deopt
   storms) a function may accumulate before it is pinned to the
   interpreter tier for good; each earlier one quarantines it with
   exponential backoff ([quarantine]). *)
let compile_retries = 3

(* Binary discards (entry-guard bails and strike limits) before the
   deopt-storm detector trips and quarantines the function
   ([note_discard]). *)
let storm_threshold = 8

(* Called with every optimized MIR graph right before lowering (jsvm
   --dump-mir; tests inspect pass output in situ). Domain-local, unlike
   the rest of an engine's settings, because the benchmark harness wraps
   runs of engines it has already made in [with_mir_hook]. *)
let mir_hook : (Mir.func -> unit) option Support.Tls.t = Support.Tls.make (fun () -> None)

let with_mir_hook h f = Support.Tls.with_value mir_hook (Some h) f

type compiled = {
  code : Code.t;
  (* [code] decoded for the executor, once, here at install. *)
  exec : Exec.prepared;
  (* What calls this version may serve: the burned-in argument tuple (plus
     the selective mask), a widened tag signature, or anything (generic).
     The probe ([Spec_key.matches]) is the soundness contract every
     specialized binary relies on. *)
  key : Spec_key.t;
  (* In-body guard failures charged against this binary. Strikes are
     per-binary — a multi-entry cache must not let one binary's failures
     condemn its neighbours — and a binary is discarded at its
     [max_bailouts]-th strike. *)
  mutable strikes : int;
  (* Global-LRU clock value of the entry's last installation or cache hit;
     the code-cache budget evicts the smallest across all functions. Only
     installs and hits refresh it: a probe that walks past (or misses) an
     entry must leave it cold, or the byte budget could never reclaim it. *)
  mutable last_use : int;
}

type func_state = {
  fid : int;
  mutable loop_edges : int;
  mutable compiled : compiled list;  (* most recently used first; length <= cache_size *)
  mutable no_specialize : bool;
  mutable overflow_bailed : bool;  (* compile future binaries without checked int32 *)
  mutable observed_tags : Value.tag list array;  (* per-arg tag history *)
  (* Per-arg value stability: [Some v] while every call so far passed the
     same value, [None] once it varied (sticky). Empty before any call. *)
  mutable stable_args : Value.t option array option;
  mutable last_args : Value.t array option;  (* for §2 argument statistics *)
  mutable sizes : (bool * int) list;
  (* Failure-domain state. Compilation failures (aborted compiles, cache
     admission failures, deopt storms) quarantine the function: no compile
     attempt until the call counter reaches [quarantine_until], with the
     backoff doubling per failure, and a permanent interpreter-tier pin
     once [q_failures] exceeds the retry cap. *)
  mutable quarantine_until : int;
  mutable q_failures : int;
  mutable pinned : bool;
  mutable discards : int;  (* binary discards since the last storm check *)
  mutable next_version : int;
  (* Monotone version-cache id (polyvariant policy): stamped into
     [Code.version] at compile time so telemetry and the profiler can
     attribute work per version even after the entry is replaced. *)
  mutable anticipated : Value.t array list;
  (* Interprocedural facts (polyvariant policy): constant argument
     signatures this function receives at monomorphic call sites inside
     already-compiled callers — a specialized caller's burned-in values
     constant-fold into its call sites, so the callee can expect exactly
     these tuples and value-specialize against them. Deduplicated, oldest
     first, capped. *)
}

(* ------------------------------------------------------------------ *)
(* Compile requests and their artifacts                                *)
(* ------------------------------------------------------------------ *)

(* One compile request, whether it compiles now or waits in the queue: the
   cache key the binary will serve — which also says what the builder
   burns in (argument values, under an optional selective mask, or a tag
   signature) — plus the loop-head snapshot of an OSR compile. *)
type request = { r_key : Spec_key.t; r_osr : Builder.osr_request option }

(* What one build produced, with its charge split the way the model bills
   it: the optimizer's per-MIR-instruction work, then lowering and
   allocation. *)
type artifact = {
  a_code : Code.t;
  a_mir : Mir.func;
  a_stats : Pipeline.run_stats;
  a_mir_charge : int;
  a_backend_charge : int;
}

(* A widen-ladder step's victim: the version at [w_index] of a cache that
   held [w_entries] versions when the step was decided. *)
type widen = { w_victim : compiled; w_index : int; w_entries : int }

(* A queued request. Everything its harvest needs — fault draws included —
   is decided at enqueue, so the payload is immutable and the physical
   compile can run on any domain at any wall-clock moment. *)
type bg_job = {
  j_task : (artifact * Diag.t list, Diag.t * int) result Bgcompile.Task.t;
      (* the build, with its spec-check warnings (delivered at harvest) *)
  j_req : request;
  j_widen : widen option;  (* the ladder victim, retired when this lands *)
  j_flow : int;
      (* Perfetto flow id stitching this request's enqueue to its install;
         0 when no span sink was attached at enqueue *)
  j_trace : Telemetry.trace_ctx option;
      (* the service request that triggered the enqueue — installs (which
         run under whatever request harvests them) re-assert it so the
         compile is attributed back to the requesting tenant *)
}

type t = {
  cfg : config;
  program : Bytecode.Program.t;
  istate : Interp.state;
  fstates : func_state array;
  native_cycles : int ref;
  compile_cycles : int ref;
  tel : Telemetry.t;
  cache_bytes : int ref;  (* code-cache bytes in use across all functions *)
  lru_tick : int ref;  (* global LRU clock (bumped per install / cache hit) *)
  depth : int ref;  (* live MiniJS call nesting *)
  known_globals : int option array;
      (* write-once function globals (polyvariant only; [||] under the
         paper policy, which keeps its call lowering byte-identical) *)
  degrade : bool ref;
      (* overload degrade mode (service layer): while set, new compiles
         shed specialization — quick generic baseline binaries only.
         Installed binaries keep serving; false in every standalone run. *)
  bg : bg_job Bgcompile.t option;  (* Some iff [cfg.bg_compile] *)
  bg_cycles : int ref;
      (* compile cycles done by the background compiler — off the model
         clock ([now] never reads it), reported as [bg_compile_cycles] *)
  flow_seq : int ref;
      (* per-engine flow-id allocator (tracing only; see [new_flow_id]) *)
  profile : Profile.Recorder.t option ref;  (* see [attach_profile] *)
  deadline_trip : (int -> int -> unit) option ref;
      (* the running [with_deadline]'s budget check, fired with (fid, pc) *)
  diag : Diag.t -> unit;
      (* the lint layer's sink: spec-check warnings (with [cfg.check]) and
         every diagnostic that aborts a compile *)
  faults : Faults.plan ref;  (* drawn at every injection point; see [set_faults] *)
}

type func_report = {
  fr_fid : int;
  fr_name : string;
  fr_calls : int;
  fr_compiles : int;
  fr_was_specialized : bool;
  fr_deoptimized : bool;
  fr_bailouts : int;
  fr_sizes : (bool * int) list;
  fr_arg_set_changes : int;
  fr_last_arg_tags : Value.tag list;
}

type report = {
  result : Value.t;
  interp_cycles : int;
  native_cycles : int;
  compile_cycles : int;
  bg_compile_cycles : int;  (* off-clock background compile work *)
  total_cycles : int;
  bytecode_instrs : int;
  functions : func_report list;
  compilations : int;
  recompilations : int;
  specialized_funcs : int;
  successful_funcs : int;
  deoptimized_funcs : int;
}

let make ?(diag = ignore) ?(faults = Faults.none) engine_config program =
  (* Admission check: the interpreter and the MIR builder both trust the
     compiler's output, so reject malformed bytecode before running any of
     it. Raises [Diag.Failed]. *)
  Bc_verify.check_program program;
  let tel = Telemetry.create ~nfuncs:(Bytecode.Program.nfuncs program) () in
  {
    cfg = engine_config;
    program;
    istate = Interp.make_state ~max_depth:engine_config.max_depth program;
    fstates =
      Array.init (Bytecode.Program.nfuncs program) (fun fid ->
          {
            fid;
            loop_edges = 0;
            compiled = [];
            no_specialize = false;
            overflow_bailed = false;
            observed_tags =
              Array.make program.Bytecode.Program.funcs.(fid).Bytecode.Program.arity [];
            stable_args = None;
            last_args = None;
            sizes = [];
            quarantine_until = 0;
            q_failures = 0;
            pinned = false;
            discards = 0;
            next_version = 0;
            anticipated = [];
          });
    native_cycles = ref 0;
    compile_cycles = ref 0;
    tel;
    cache_bytes = ref 0;
    lru_tick = ref 0;
    depth = ref 0;
    known_globals =
      (if engine_config.policy = Policy.Polyvariant then
         Bytecode.Program.known_global_funcs program
       else [||]);
    degrade = ref false;
    bg =
      (if engine_config.bg_compile then
         Some (Bgcompile.create ~depth:engine_config.bg_queue_depth)
       else None);
    bg_cycles = ref 0;
    flow_seq = ref 0;
    profile = ref None;
    deadline_trip = ref None;
    diag;
    faults = ref faults;
  }

let telemetry t = t.tel
let set_faults t plan = t.faults := plan
let fire t point = Faults.fire !(t.faults) point
let attach_profile t r = t.profile := Some r

(* ------------------------------------------------------------------ *)
(* Telemetry plumbing                                                  *)
(* ------------------------------------------------------------------ *)

let counters t = Telemetry.counters t.tel
let fname t fid = t.program.Bytecode.Program.funcs.(fid).Bytecode.Program.name

(* ------------------------------------------------------------------ *)
(* Lifecycle spans                                                     *)
(* ------------------------------------------------------------------ *)

(* Span timestamps use the model-cycle clock — the sum the report calls
   [total_cycles], read at the moment of the event — so traces are
   byte-reproducible and durations line up exactly with the cycle
   accounting. Wall time never appears. *)
let now t =
  (t.istate.Interp.icount * Cost.interp_per_instr)
  + !(t.native_cycles) + !(t.compile_cycles)

(* The model-cycle clock and its tier split, exposed for the service
   layer: per-request latency and warm/cold tail attribution are clock
   deltas around each request run on a long-lived engine. *)
let clock = now

let cycle_split t =
  (t.istate.Interp.icount * Cost.interp_per_instr, !(t.native_cycles), !(t.compile_cycles))

(* A fresh flow id, allocated only when spans are traced (0 means "no
   flow" everywhere). Namespaced by the requesting trace id so ids are
   unique across every engine of a traced service run: trace ids are
   unique per request, and one request enqueues well under a million
   compiles. *)
let new_flow_id t =
  if not (Telemetry.spans_active t.tel) then 0
  else begin
    incr t.flow_seq;
    match Telemetry.trace t.tel with
    | Some c -> ((c.Telemetry.tc_trace + 1) * 1_000_000) + !(t.flow_seq)
    | None -> !(t.flow_seq)
  end

(* Close the open span even when [f] escapes by exception (a runtime error
   unwinding through nested frames must not corrupt span nesting). *)
let in_span t ~name ~cat fid f =
  if not (Telemetry.spans_active t.tel) then f ()
  else begin
    Telemetry.span_begin t.tel ~name ~cat ~fid ~fname:(fname t fid) ~now:(now t);
    match f () with
    | v ->
      Telemetry.span_end t.tel ~now:(now t);
      v
    | exception e ->
      Telemetry.span_end ~args:[ ("unwound", "true") ] t.tel ~now:(now t);
      raise e
  end

(* Event payloads are only constructed when a sink is listening; counters
   are always maintained (they are the report's source of truth). Neither
   charges model cycles, so telemetry cannot perturb the measurements. *)
let emit t mk = if Telemetry.active t.tel then Telemetry.emit t.tel (mk ())

let bump ?n t fs key = Telemetry.Counters.bump ?n (counters t) ~fid:fs.fid key

let count t fs key = Telemetry.Counters.get (counters t) ~fid:fs.fid key

let display_args args =
  String.concat ", " (Array.to_list (Array.map Value.to_display_string args))

(* §4 blacklist: never specialize this function again. *)
let blacklist t fs =
  if not fs.no_specialize then begin
    fs.no_specialize <- true;
    bump t fs Telemetry.Key.blacklists;
    emit t (fun () -> Telemetry.Blacklist { fid = fs.fid; fname = fname t fs.fid })
  end

(* A §4 deoptimization event: a specialized binary was invalidated (cache
   miss or failed entry guard) — distinct from strike-limit discards, which
   only refresh the binary. *)
let deopt t fs reason =
  bump t fs Telemetry.Key.deopts;
  emit t (fun () -> Telemetry.Deopt { fid = fs.fid; fname = fname t fs.fid; reason })

(* ------------------------------------------------------------------ *)
(* Profiling                                                           *)
(* ------------------------------------------------------------------ *)

let observe_args t fs args =
  Array.iteri
    (fun i v ->
      if i < Array.length fs.observed_tags then begin
        let tag = Value.tag_of v in
        if not (List.mem tag fs.observed_tags.(i)) then
          fs.observed_tags.(i) <- tag :: fs.observed_tags.(i)
      end)
    args;
  (match fs.stable_args with
  | None -> fs.stable_args <- Some (Array.map (fun v -> Some v) args)
  | Some st ->
    Array.iteri
      (fun i v ->
        if i < Array.length st then
          match st.(i) with
          | Some prev when not (Value.same_value prev v) -> st.(i) <- None
          | _ -> ())
      args);
  (match fs.last_args with
  | Some prev when Value.same_args prev args -> ()
  | Some _ -> bump t fs Telemetry.Key.arg_set_changes
  | None -> ());
  fs.last_args <- Some args

let stable_tags fs =
  Array.map
    (fun history -> match history with [ tag ] -> Some tag | _ -> None)
    fs.observed_tags

(* Interprocedural fact harvesting (polyvariant policy): after the pipeline
   has run, a call site whose arguments all folded to constants — because
   the caller's burned-in values propagated into them, or because they were
   literals to begin with — announces the exact tuple the callee will
   receive there. The callee's policy view can then value-specialize
   against that signature even when its own call history looks varied.
   Deterministic: the scan follows [block_order] and the per-callee list is
   deduplicated and capped, so pool fan-out cannot reorder it. *)
let max_anticipated = 4

let record_anticipated t (mir : Mir.func) =
  List.iter
    (fun bid ->
      let b = Mir.block mir bid in
      List.iter
        (fun (i : Mir.instr) ->
          match i.Mir.kind with
          | Mir.Call_known (cfid, _, argdefs)
            when cfid >= 0 && cfid < Array.length t.fstates
                 && Array.length argdefs > 0 ->
            let consts =
              Array.map
                (fun d ->
                  match Mir.find_instr mir d with
                  | Some { Mir.kind = Mir.Constant v; _ } -> Some v
                  | _ -> None)
                argdefs
            in
            if Array.for_all Option.is_some consts then begin
              let signature = Array.map Option.get consts in
              let callee = t.fstates.(cfid) in
              if
                List.length callee.anticipated < max_anticipated
                && not
                     (List.exists
                        (fun s -> Value.same_args s signature)
                        callee.anticipated)
              then begin
                callee.anticipated <- callee.anticipated @ [ signature ];
                bump t callee Telemetry.Key.interpro_facts
              end
            end
          | _ -> ())
        b.Mir.body)
    mir.Mir.block_order

(* The argument tuple as the callee's entry sees it: missing arguments
   padded with [Undefined], surplus arguments dropped (exactly the frame
   adaptation the interpreter and the native activation both perform). Tag
   signatures are always built from this view, never from the raw call. *)
let as_entry t fs args =
  let arity = t.program.Bytecode.Program.funcs.(fs.fid).Bytecode.Program.arity in
  if Array.length args = arity then args
  else
    Array.init arity (fun i -> if i < Array.length args then args.(i) else Value.Undefined)

(* The policy's read-only projection of this function's JIT state. Under
   overload degrade mode specialization is shed outright: the view says
   "don't specialize", so [choose_hot]/[promote]/OSR all pick generic
   keys, without touching the sticky per-function blacklist bit. *)
let want_specialize t fs =
  t.cfg.opt.Pipeline.param_spec && (not fs.no_specialize) && not !(t.degrade)

let policy_view t fs =
  {
    Policy.pv_cache_size = t.cfg.cache_size;
    pv_selective = t.cfg.selective;
    pv_want_specialize = want_specialize t fs;
    pv_calls = count t fs Telemetry.Key.calls;
    pv_arg_set_changes = count t fs Telemetry.Key.arg_set_changes;
    pv_keys = List.map (fun e -> e.key) fs.compiled;
    pv_anticipated = fs.anticipated;
  }

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)
(* ------------------------------------------------------------------ *)

(* What a request burns in, read off its key: argument values (the
   selective extension masks some out) or a tag signature. *)
let specialized req = match req.r_key with Spec_key.Key_values _ -> true | _ -> false
let selective req = match req.r_key with Spec_key.Key_values (_, Some _) -> true | _ -> false
let widened req = match req.r_key with Spec_key.Key_tags _ -> true | _ -> false

let req_kind req =
  match req.r_key with
  | Spec_key.Key_values (_, None) -> "values"
  | Spec_key.Key_values (_, Some _) -> "selective"
  | Spec_key.Key_tags _ -> "tags"
  | Spec_key.Key_generic -> "generic"

(* Where one build's side effects go. A synchronous compile runs on the
   requesting isolate and delivers each effect as it happens; a background
   build may run on any pool domain, so its hooks only collect (warnings)
   or replay decisions drawn at enqueue (faults). *)
type build_hooks = {
  warn : Diag.t -> unit;  (* a spec-check warning (errors abort) *)
  fire : Faults.point -> bool;  (* the [Compile_diag] and [Code_verify] draws *)
  optimized : Pipeline.run_stats -> int -> unit;  (* the optimizer ran; its charge *)
  to_lower : Mir.func -> unit;  (* the checked graph about to be lowered *)
  lowered : Code.t -> int -> unit;  (* the binary exists; the backend charge *)
}

(* The factory for executable [Code.t]: build → spec-check → optimize →
   lower → allocate → verify. Every compile — hot-call (generic or
   specialized), cache fill, selective narrowing, generic recompilation
   after deopt, widening, promotion, OSR, synchronous or queued — runs
   through here, so the verification below covers all code the executor
   can ever run. Keep it that way: a path that lowered MIR elsewhere would
   bypass the lint layer. Every input is an explicit argument, so a
   background build can run on any domain. Raises nothing but
   [Out_of_memory]: a diagnostic (a real one or an injected fault) comes
   back with the cycles charged before it, which an abort still pays —
   compile failures are costly, not free retries — and any other exception
   comes back as an [internal] diagnostic, so a compiler bug quarantines
   its function instead of ending the run. *)
let build_code ~program ~(func : Bytecode.Program.func) ~arg_tags ~no_checked_int
    ~known_globals ~opt ~check hooks req =
  let name = func.Bytecode.Program.name in
  let fid = func.Bytecode.Program.fid in
  let charged = ref 0 in
  try
    let mir =
      Builder.build ~program ~func ~key:req.r_key ~arg_tags ?osr:req.r_osr ~no_checked_int
        ~known_globals ()
    in
    (* Baked constants are audited against the cached tuple on the fresh
       graph, where the builder's argument-materialization layout still
       holds; the guard/resume-point audit runs on the optimized graph the
       lowerer will consume. *)
    let spec_check stage =
      if check then
        List.iter
          (fun d -> if Diag.is_error d then raise (Diag.Failed d) else hooks.warn d)
          (Spec_check.check ~stage mir)
    in
    spec_check `Built;
    let stats = Pipeline.apply ~check ~program opt mir in
    let mir_charge = Cost.compile_per_mir_instr * stats.Pipeline.mir_instrs_processed in
    charged := mir_charge;
    hooks.optimized stats mir_charge;
    if hooks.fire Faults.Compile_diag then
      Diag.error ~layer:"fault" ~func:name ~fid "injected compile_diag fault";
    spec_check `Optimized;
    hooks.to_lower mir;
    let code, intervals = Regalloc.run (Lower.run mir) in
    let backend_charge =
      (Cost.compile_per_native_instr * Code.size code) + (Cost.compile_per_interval * intervals)
    in
    charged := mir_charge + backend_charge;
    hooks.lowered code backend_charge;
    (* Internal assert on the backend's output (no model cycles charged):
       catches allocation and snapshot bugs at their source instead of as
       a downstream miscomputation. *)
    Code_verify.run code;
    if hooks.fire Faults.Code_verify then
      Diag.error ~layer:"fault" ~func:name ~fid "injected code_verify fault";
    Ok
      {
        a_code = code;
        a_mir = mir;
        a_stats = stats;
        a_mir_charge = mir_charge;
        a_backend_charge = backend_charge;
      }
  with
  | Diag.Failed d -> Error (d, !charged)
  | Out_of_memory -> raise Out_of_memory
  | e -> Error (Diag.make ~layer:"internal" ~func:name ~fid (Printexc.to_string e), !charged)

(* The pipeline a compile runs. Tiered pipelines: the polyvariant policy
   compiles generic versions with the quick baseline schedule (the paper
   policy always returns [cfg.opt] unchanged). Overload tier: while the
   service layer has the engine degraded, every new compile takes the
   quick baseline schedule regardless of policy — specialization is shed
   before requests are. *)
let compile_opt t (func : Bytecode.Program.func) req =
  let opt =
    Policy.compile_opt t.cfg.policy t.cfg.opt
      ~specialized:(specialized req || widened req)
      ~size:(Array.length func.Bytecode.Program.code)
  in
  if !(t.degrade) then Policy.overload_opt opt else opt

(* [build_code] on the requesting isolate, announced ([Specialize],
   [Compile_start]) and with the model clock running: each stage's charge
   lands as it happens, along with its profile note and its spans, and
   faults are drawn live. Compilation charges no interpreter or native
   cycles, so a stage's spans start where the clock stands before its
   charge. *)
let compile t fs req =
  let func = t.program.Bytecode.Program.funcs.(fs.fid) in
  let name = func.Bytecode.Program.name in
  (match req.r_key with
  | Spec_key.Key_values (args, mask) ->
    emit t (fun () ->
        Telemetry.Specialize { fid = fs.fid; fname = name; args = display_args args; mask })
  | Spec_key.Key_tags _ as key ->
    (* Only the polyvariant policy keys on tags, so the paper policy's
       event stream is untouched. *)
    emit t (fun () ->
        Telemetry.Specialize
          { fid = fs.fid; fname = name; args = Spec_key.to_string key; mask = None })
  | Spec_key.Key_generic -> ());
  emit t (fun () ->
      Telemetry.Compile_start
        {
          fid = fs.fid;
          fname = name;
          specialized = specialized req;
          selective = selective req;
          osr = req.r_osr <> None;
        });
  let charge stage c =
    t.compile_cycles := !(t.compile_cycles) + c;
    match !(t.profile) with
    | Some r -> Profile.Recorder.note_compile r ~fid:fs.fid ~stage c
    | None -> ()
  in
  let hooks =
    {
      warn = t.diag;
      fire = fire t;
      optimized =
        (fun stats c ->
          let start = now t in
          charge "mir" c;
          (* Per-pass child spans, sequential from the compile's start.
             The pipeline bills each pass [compile_per_mir_instr] per
             instruction it entered with ([pd_before]) and bills nothing
             else, so the children sum exactly to the charge and tile the
             parent compile span. *)
          if Telemetry.spans_active t.tel then
            ignore
              (List.fold_left
                 (fun at pd ->
                   let dur = Cost.compile_per_mir_instr * pd.Telemetry.pd_before in
                   Telemetry.span_complete t.tel ~name:("pass:" ^ pd.Telemetry.pd_pass)
                     ~cat:"pass" ~fid:fs.fid ~fname:(fname t fs.fid) ~start:at ~dur
                     ~args:
                       [ ("before", string_of_int pd.Telemetry.pd_before);
                         ("after", string_of_int pd.Telemetry.pd_after) ];
                   at + dur)
                 start stats.Pipeline.passes));
      to_lower = (fun mir -> match Support.Tls.get mir_hook with Some h -> h mir | None -> ());
      lowered =
        (fun code c ->
          let start = now t in
          charge "codegen" c;
          Telemetry.span_complete t.tel ~name:"codegen" ~cat:"codegen" ~fid:fs.fid
            ~fname:(fname t fs.fid) ~start ~dur:c
            ~args:[ ("size", string_of_int (Code.size code)) ]);
    }
  in
  build_code ~program:t.program ~func ~arg_tags:(stable_tags fs)
    ~no_checked_int:fs.overflow_bailed ~known_globals:t.known_globals
    ~opt:(compile_opt t func req) ~check:t.cfg.check hooks req

(* ------------------------------------------------------------------ *)
(* Failure containment: quarantine, code-cache budget, the barrier      *)
(* ------------------------------------------------------------------ *)

(* Quarantine with exponential backoff: after the [n]-th compile failure
   the function may not attempt compilation again until [2^n] hot-call
   thresholds' worth of further calls have accumulated; past the retry cap
   it is pinned to the interpreter tier for good. Loop-edge credit is
   dropped too, so OSR does not sneak a quarantined function back into the
   compiler early (its threshold scales by the same power of two). *)
let quarantine t fs reason =
  fs.q_failures <- fs.q_failures + 1;
  if fs.q_failures > compile_retries then begin
    if not fs.pinned then begin
      fs.pinned <- true;
      bump t fs Telemetry.Key.pins;
      emit t (fun () ->
          Telemetry.Quarantine
            { fid = fs.fid; fname = fname t fs.fid; reason; backoff_calls = 0;
              permanent = true })
    end
  end
  else begin
    let backoff = t.cfg.hot_calls * (1 lsl min fs.q_failures 16) in
    fs.quarantine_until <- count t fs Telemetry.Key.calls + backoff;
    fs.loop_edges <- 0;
    bump t fs Telemetry.Key.quarantines;
    emit t (fun () ->
        Telemetry.Quarantine
          { fid = fs.fid; fname = fname t fs.fid; reason; backoff_calls = backoff;
            permanent = false })
  end

let can_compile t fs =
  (not fs.pinned) && count t fs Telemetry.Key.calls >= fs.quarantine_until

(* Deopt-storm detector: a function oscillating compile→bailout→discard
   burns compile cycles without settling. [storm_threshold] binary
   discards (entry bails and strike limits — not §4 argument-mismatch
   deopts, which blacklist and settle by themselves) trip a quarantine. *)
let note_discard t fs =
  fs.discards <- fs.discards + 1;
  if fs.discards >= storm_threshold then begin
    fs.discards <- 0;
    bump t fs Telemetry.Key.storms;
    quarantine t fs Telemetry.Deopt_storm
  end

(* Code-cache byte accounting. Every install/detach goes through these
   helpers so [cache_bytes] is exact; none of this charges model cycles. *)
let entry_bytes entry = Code.size entry.code * Cost.bytes_per_native_instr

let touch t entry =
  t.lru_tick := !(t.lru_tick) + 1;
  entry.last_use <- !(t.lru_tick)

let install_entry t fs entry =
  fs.compiled <- entry :: fs.compiled;
  t.cache_bytes := !(t.cache_bytes) + entry_bytes entry

let detach t fs entry =
  if List.memq entry fs.compiled then begin
    fs.compiled <- List.filter (fun e -> e != entry) fs.compiled;
    t.cache_bytes := !(t.cache_bytes) - entry_bytes entry
  end

let clear_compiled t fs =
  List.iter (fun e -> t.cache_bytes := !(t.cache_bytes) - entry_bytes e) fs.compiled;
  fs.compiled <- []

(* Cross-function LRU eviction: free room for [need] bytes by discarding
   the least recently touched binaries anywhere in the engine. Eviction is
   a capacity decision, not a policy one — no deopt, no blacklist, no
   strike or storm accounting; a later hot call simply recompiles. *)
let evict_for t need =
  let victim () =
    let best = ref None in
    Array.iter
      (fun fs ->
        List.iter
          (fun e ->
            match !best with
            | Some (_, b) when b.last_use <= e.last_use -> ()
            | _ -> best := Some (fs, e))
          fs.compiled)
      t.fstates;
    !best
  in
  let rec go () =
    if !(t.cache_bytes) + need > t.cfg.code_cache_bytes then
      match victim () with
      | None -> ()
      | Some (owner, e) ->
        let bytes = entry_bytes e in
        detach t owner e;
        bump t owner Telemetry.Key.cache_evictions;
        emit t (fun () ->
            Telemetry.Cache_evict
              { fid = owner.fid; fname = fname t owner.fid; bytes;
                in_use = !(t.cache_bytes) });
        go ()
  in
  go ()

(* Admission: a freshly compiled binary may enter the code cache if the
   byte budget (0 = unbounded) can accommodate it after LRU eviction —
   a single binary larger than the whole budget is refused outright. *)
let admit t entry =
  if fire t Faults.Cache_oom then false
  else if t.cfg.code_cache_bytes <= 0 then true
  else begin
    let need = entry_bytes entry in
    evict_for t need;
    !(t.cache_bytes) + need <= t.cfg.code_cache_bytes
  end

(* Install one finished artifact, whichever timing built it: stamp its
   version, count it, announce what the pipeline did, and admit it to the
   code cache — a refused admission quarantines the function ([Cache_oom]).
   Returns the admitted entry for the caller to link in. Only a synchronous
   compile announces [Compile_end] here; a queued one is announced by its
   harvest ([Compile_ready]). *)
let install t fs req a ~sync =
  let name = fname t fs.fid in
  let code = a.a_code in
  (* Interprocedural facts and version ids exist only under the
     polyvariant policy; the paper policy's counters and code records stay
     byte-identical to the pre-policy engine. *)
  if t.cfg.policy = Policy.Polyvariant then begin
    record_anticipated t a.a_mir;
    fs.next_version <- fs.next_version + 1;
    code.Code.version <- fs.next_version
  end;
  bump t fs Telemetry.Key.compiles;
  if !(t.degrade) then bump t fs Telemetry.Key.compiles_degraded;
  if specialized req then bump t fs Telemetry.Key.compiles_specialized;
  if widened req then bump t fs Telemetry.Key.compiles_widened;
  if req.r_osr <> None then bump t fs Telemetry.Key.compiles_osr;
  let stats = a.a_stats in
  if stats.Pipeline.inlined > 0 then begin
    bump ~n:stats.Pipeline.inlined t fs Telemetry.Key.inlined;
    emit t (fun () ->
        Telemetry.Inline_decision { fid = fs.fid; fname = name; inlined = stats.Pipeline.inlined })
  end;
  if stats.Pipeline.guards_elided > 0 then begin
    bump ~n:stats.Pipeline.guards_elided t fs Telemetry.Key.guards_elided;
    List.iter
      (fun (e : Mir.elision) ->
        emit t (fun () ->
            Telemetry.Guard_elided
              {
                fid = fs.fid;
                fname = name;
                guard = e.Mir.el_kind;
                origin_fid = e.Mir.el_ofid;
                pc = e.Mir.el_pc;
              }))
      stats.Pipeline.elisions
  end;
  if sync then
    emit t (fun () ->
        Telemetry.Compile_end
          {
            fid = fs.fid;
            fname = name;
            specialized = specialized req;
            selective = selective req;
            osr = req.r_osr <> None;
            size = Code.size code;
            cycles = a.a_mir_charge + a.a_backend_charge;
            passes = stats.Pipeline.passes;
          });
  fs.sizes <- (specialized req, Code.size code) :: fs.sizes;
  let entry = { code; exec = Exec.prepare code; key = req.r_key; strikes = 0; last_use = 0 } in
  if admit t entry then begin
    touch t entry;
    Some entry
  end
  else begin
    quarantine t fs Telemetry.Cache_oom;
    None
  end

(* The abort arm, whichever timing built the artifact: a compilation that
   failed — a verifier/lint diagnostic or an injected fault — is reported
   ([Compile_abort] with the cycles it wasted, the diagnostic sink) and
   answered with a quarantine; the caller falls back to the interpreter. *)
let abort t fs req (d : Diag.t) ~cycles =
  bump t fs Telemetry.Key.compiles_aborted;
  t.diag d;
  emit t (fun () ->
      Telemetry.Compile_abort
        {
          fid = fs.fid;
          fname = fname t fs.fid;
          specialized = specialized req;
          osr = req.r_osr <> None;
          reason = d.Diag.message;
          cycles;
        });
  quarantine t fs Telemetry.Compile_fault

(* The containment barrier around a synchronous compile: the boundary that
   keeps [Diag.Failed] from escaping [run]. *)
let try_compile t fs req =
  (* The span covers successful and aborted compiles alike — wasted cycles
     are charged, so they must be visible in the trace too. *)
  Telemetry.span_begin t.tel
    ~name:(if count t fs Telemetry.Key.compiles > 0 then "recompile" else "compile")
    ~cat:"compile" ~fid:fs.fid ~fname:(fname t fs.fid) ~now:(now t);
  match compile t fs req with
  | Ok a ->
    Telemetry.span_end t.tel ~now:(now t)
      ~args:
        [ ("specialized", string_of_bool (specialized req));
          ("osr", string_of_bool (req.r_osr <> None)) ];
    install t fs req a ~sync:true
  | Error (d, cycles) ->
    Telemetry.span_end ~args:[ ("aborted", "true") ] t.tel ~now:(now t);
    abort t fs req d ~cycles;
    None

(* The widen ladder's cache side: retire [w]'s victim for a version keyed
   [wider]. A synchronous step runs this before compiling the replacement;
   a queued one when the replacement lands. *)
let retire t fs w wider =
  bump t fs Telemetry.Key.versions_widened;
  emit t (fun () ->
      Telemetry.Version_widen
        {
          fid = fs.fid;
          fname = fname t fs.fid;
          index = w.w_index;
          from_key = Spec_key.to_string w.w_victim.key;
          to_key = Spec_key.to_string wider;
          entries = w.w_entries;
        });
  detach t fs w.w_victim

(* Which arguments have been value-stable across every observed call. *)
let stability_mask fs =
  match fs.stable_args with
  | None -> [||]
  | Some st -> Array.map Option.is_some st

(* ------------------------------------------------------------------ *)
(* Background compilation: enqueue, harvest, install, supersede         *)
(* ------------------------------------------------------------------ *)

(* The queue is live only while the engine is healthy: degrade mode
   drains it (below) and suppresses new requests, falling back to the
   PR-8 synchronous semantics. *)
let bg_active t = t.bg <> None && not !(t.degrade)

(* Values the compile thunk may not read from another domain at an
   arbitrary wall-clock moment: anything mutable. Requests that bake such
   values run inline at harvest instead ([Task.spawn ~inline]), so both
   [--jobs] settings read them at the same model-clock point. *)
let bg_mutable_value = function
  | Value.Obj _ | Value.Arr _ | Value.Closure _ -> true
  | Value.Undefined | Value.Null | Value.Bool _ | Value.Int _ | Value.Double _
  | Value.Str _ | Value.Native_fun _ -> false

let bg_cancel t fs ~reason key =
  bump t fs key;
  emit t (fun () -> Telemetry.Compile_cancel { fid = fs.fid; fname = fname t fs.fid; reason })

(* A queued request for [fs] is in flight: at most one per function is, so
   a further request is dropped (re-triggering is free). *)
let in_flight t fs =
  bg_active t
  && match t.bg with Some q -> Bgcompile.pending_for q ~fid:fs.fid <> None | None -> false

(* Hand one request to the background queue. The whole request — builder
   inputs, pipeline config, fault decisions, the cache key and the ladder
   victim — is decided here, at the model-clock instant of the enqueue;
   the physical compile is free to run on any pool domain later. *)
let enqueue t fs ?widen req =
  match t.bg with
  | None -> ()
  | Some q ->
    if Bgcompile.pending_for q ~fid:fs.fid <> None then ()
    else if Bgcompile.length q >= Bgcompile.depth q then
      (* Queue full: drop the request outright — the function stays in
         the interpreter tier and a later hot call retries. No fault
         draws happen for refused requests. *)
      bg_cancel t fs ~reason:"overflow" Telemetry.Key.bg_overflow
    else if fire t Faults.Bg_enqueue then
      bg_cancel t fs ~reason:"enqueue-fault" Telemetry.Key.bg_cancelled
    else begin
      let func = t.program.Bytecode.Program.funcs.(fs.fid) in
      let opt = compile_opt t func req in
      let cost =
        Cost.bg_compile_cost
          ~size:(Array.length func.Bytecode.Program.code)
          ~specialized:(specialized req || widened req)
          ~passes:(Pipeline.npasses opt)
      in
      (* Fault decisions are occurrence-counted at enqueue (the compile's
         logical start); the thunk itself draws nothing. A fired diag
         fault aborts before the verifier barrier, so the verify draw
         only happens when the compile would reach it — mirroring the
         synchronous factory's conditional draw order. *)
      let fire_diag = fire t Faults.Compile_diag in
      let fire_verify = (not fire_diag) && fire t Faults.Code_verify in
      let build =
        build_code ~program:t.program ~func ~arg_tags:(stable_tags fs)
          ~no_checked_int:fs.overflow_bailed ~known_globals:t.known_globals ~opt
          ~check:t.cfg.check
      in
      let thunk () =
        let warnings = ref [] in
        let hooks =
          {
            warn = (fun d -> warnings := d :: !warnings);
            fire =
              (function
              | Faults.Compile_diag -> fire_diag
              | Faults.Code_verify -> fire_verify
              | _ -> false);
            optimized = (fun _ _ -> ());
            to_lower = ignore;
            lowered = (fun _ _ -> ());
          }
        in
        Result.map (fun a -> (a, List.rev !warnings)) (build hooks req)
      in
      let inline =
        (match req.r_key with
        | Spec_key.Key_values (args, _) -> Array.exists bg_mutable_value args
        | _ -> false)
        ||
        match req.r_osr with
        | Some o ->
          Array.exists bg_mutable_value o.Builder.osr_args
          || Array.exists bg_mutable_value o.Builder.osr_locals
        | None -> false
      in
      let task = Bgcompile.Task.spawn ~inline thunk in
      let kind = req_kind req in
      let flow_id = new_flow_id t in
      let job =
        {
          j_task = task;
          j_req = req;
          j_widen = widen;
          j_flow = flow_id;
          j_trace = Telemetry.trace t.tel;
        }
      in
      match Bgcompile.enqueue q ~fid:fs.fid ~now:(now t) ~cost job with
      | Error `Overflow ->
        (* Unreachable (depth checked above), but keep the queue honest. *)
        Bgcompile.Task.cancel task;
        bg_cancel t fs ~reason:"overflow" Telemetry.Key.bg_overflow
      | Ok e ->
        bump t fs Telemetry.Key.bg_queued;
        emit t (fun () ->
            Telemetry.Compile_enqueue
              {
                fid = fs.fid;
                fname = fname t fs.fid;
                kind;
                osr = req.r_osr <> None;
                ready = e.Bgcompile.e_ready;
                depth = Bgcompile.length q;
              });
        (* The flow starts on the requesting lane at the enqueue instant;
           exactly one matching finish is emitted wherever the job leaves
           the system (install, abort, cancel, drain or teardown). *)
        if flow_id <> 0 then
          Telemetry.span_flow t.tel ~phase:`Start ~id:flow_id ~name:("bg-" ^ kind)
            ~cat:"bg" ~fid:fs.fid ~fname:(fname t fs.fid) ~now:(now t)
    end

(* Close a queued job's flow stitch, under its requesting trace. Every
   started flow gets exactly one finish, wherever the job leaves the system
   (install, abort, cancel, drain or teardown) — but none on a fault
   re-enqueue, where the job stays in flight. *)
let finish_flow t (e : bg_job Bgcompile.entry) why =
  let j = e.Bgcompile.e_payload in
  if j.j_flow <> 0 then
    Telemetry.span_flow ?trace:j.j_trace t.tel ~phase:`Finish ~id:j.j_flow
      ~name:("bg-" ^ why) ~cat:"bg" ~fid:e.Bgcompile.e_fid
      ~fname:(fname t e.Bgcompile.e_fid) ~now:(now t)

(* Harvest one queued artifact at the model-clock instant of the
   harvesting call or loop edge. Its charge goes to the off-clock
   [bg_cycles] accumulator, never to the model clock; the warnings and
   the MIR hook are delivered here, and then it takes the same abort or
   install arm as a synchronous compile. What only a harvest does:
   retiring the widen ladder's victim, linking the entry in, and
   announcing it ([Compile_ready]). Returns the installed entry (for the
   OSR poll to enter). *)
let bg_install_under t fs (e : bg_job Bgcompile.entry) =
  let j = e.Bgcompile.e_payload in
  let finish_flow = finish_flow t e in
  match Bgcompile.Task.force j.j_task with
  | Error (d, wasted) ->
    t.bg_cycles := !(t.bg_cycles) + wasted;
    abort t fs j.j_req d ~cycles:wasted;
    finish_flow "abort";
    None
  | Ok (a, warnings) ->
    let charge = a.a_mir_charge + a.a_backend_charge in
    t.bg_cycles := !(t.bg_cycles) + charge;
    List.iter t.diag warnings;
    if fire t Faults.Bg_install then begin
      (* Dropped artifact: the finished binary is discarded and the
         request re-enqueued with doubled modeled cost (backoff) — the
         redo is charged again at its own install — until the retry cap
         quarantines the function. *)
      bg_cancel t fs ~reason:"install-fault" Telemetry.Key.bg_cancelled;
      if e.Bgcompile.e_attempts > compile_retries then begin
        quarantine t fs Telemetry.Compile_fault;
        finish_flow "cancel"
      end
      else begin
        match t.bg with
        | None -> finish_flow "cancel"
        | Some q -> (
          match
            Bgcompile.enqueue q ~fid:fs.fid ~now:(now t) ~cost:(e.Bgcompile.e_cost * 2)
              ~attempts:(e.Bgcompile.e_attempts + 1) j
          with
          (* Re-enqueued: the job (and its flow) stays in flight. *)
          | Ok _ -> bump t fs Telemetry.Key.bg_queued
          | Error `Overflow ->
            bg_cancel t fs ~reason:"overflow" Telemetry.Key.bg_overflow;
            quarantine t fs Telemetry.Compile_fault;
            finish_flow "cancel")
      end;
      None
    end
    else begin
      (match Support.Tls.get mir_hook with Some hook -> hook a.a_mir | None -> ());
      match install t fs j.j_req a ~sync:false with
      | None ->
        finish_flow "cache-oom";
        None
      | Some entry ->
        (* Supersede: the widen ladder's victim goes only once its
           replacement has actually landed — until here the old version
           kept serving, which is the whole point of recompiling in the
           background. The victim may have been evicted or discarded in
           flight; it is left alone then. *)
        (match j.j_widen with
        | Some w when List.memq w.w_victim fs.compiled ->
          retire t fs w j.j_req.r_key;
          bump t fs Telemetry.Key.bg_superseded
        | _ -> ());
        install_entry t fs entry;
        bump t fs Telemetry.Key.bg_installed;
        let size = Code.size a.a_code in
        emit t (fun () ->
            Telemetry.Compile_ready
              {
                fid = fs.fid;
                fname = fname t fs.fid;
                size;
                cycles = charge;
                wait = now t - e.Bgcompile.e_enqueue;
              });
        (* Zero-length trace marker at the harvest instant (a full span
           would overlap the enclosing interpret span arbitrarily). *)
        Telemetry.span_complete t.tel ~name:"bg-ready" ~cat:"bg" ~fid:fs.fid
          ~fname:(fname t fs.fid) ~start:(now t) ~dur:0
          ~args:[ ("size", string_of_int size) ];
        finish_flow "install";
        Some entry
    end

(* Installs run at the harvesting call's model-clock instant but belong to
   the request that enqueued them: the hub takes that request's trace
   context for the install, so its spans, events and flight-recorder
   entries are attributed back to the requesting tenant. *)
let bg_install t fs (e : bg_job Bgcompile.entry) =
  match e.Bgcompile.e_payload.j_trace with
  | None -> bg_install_under t fs e
  | Some _ as trace ->
    let harvester = Telemetry.trace t.tel in
    Telemetry.set_trace t.tel trace;
    Fun.protect
      ~finally:(fun () -> Telemetry.set_trace t.tel harvester)
      (fun () -> bg_install_under t fs e)

(* Harvest every ready artifact for [fs], at a call boundary or a loop
   edge. OSR-flavored artifacts install too (their entry guards make them
   valid from a normal call); only the loop-edge poll below enters one
   mid-activation. Returns the installed jobs with their entries. *)
let bg_harvest t fs =
  match t.bg with
  | None -> []
  | Some q ->
    List.filter_map
      (fun (e : bg_job Bgcompile.entry) ->
        Option.map (fun entry -> (e.Bgcompile.e_payload, entry)) (bg_install t fs e))
      (Bgcompile.take_ready q ~fid:fs.fid ~now:(now t))

(* Soundness gate for entering an OSR-flavored background artifact. The
   binary was compiled against the loop-head snapshot taken at enqueue;
   by the time it lands, the loop has kept running and the frame may have
   moved. Specialized compiles bake the snapshot's *argument* values as
   constants through the body, so entry demands the live args still hold
   exactly those values; unspecialized args — and the locals, which a
   queued request never bakes ([osr_bake_locals] is false, so the OSR
   block loads them live, statically typed to the snapshot tags) — only
   need tag-for-tag agreement. The loop counter advancing is exactly the
   expected case, not staleness. A refused entry is not a failure: the
   binary still installed and serves later calls through its guarded
   normal entry. *)
let bg_osr_frame_matches req (o : Builder.osr_request) (frame : Interp.frame) =
  let same_values snap live =
    Array.length snap = Array.length live
    && Array.for_all2 (fun a b -> Value.same_value a b) snap live
  in
  let same_tags snap live =
    Array.length snap = Array.length live
    && Array.for_all2 (fun a b -> Value.tag_of a = Value.tag_of b) snap live
  in
  let args_agree = if specialized req then same_values else same_tags in
  let locals_agree =
    if specialized req && o.Builder.osr_bake_locals then same_values else same_tags
  in
  args_agree o.Builder.osr_args frame.Interp.args
  && locals_agree o.Builder.osr_locals frame.Interp.locals

(* Take every job out of the queue, cancelling its task and closing its
   flow. Artifacts never leak: pending pool jobs are cancelled or
   abandoned, and nothing installs without passing through [bg_install]. *)
let drain_jobs t ~why =
  match t.bg with
  | None -> []
  | Some q ->
    List.map
      (fun (e : bg_job Bgcompile.entry) ->
        Bgcompile.Task.cancel e.Bgcompile.e_payload.j_task;
        finish_flow t e why;
        e)
      (Bgcompile.drain q)

(* Cancel everything in flight (degrade transition, isolate recycle). *)
let bg_drain t ~reason =
  let entries = drain_jobs t ~why:reason in
  List.iter
    (fun (e : bg_job Bgcompile.entry) ->
      bg_cancel t t.fstates.(e.Bgcompile.e_fid) ~reason Telemetry.Key.bg_cancelled)
    entries;
  List.length entries

let drain_bg t = bg_drain t ~reason:"recycle"
let bg_in_flight t = match t.bg with None -> 0 | Some q -> Bgcompile.length q

(* Trace-only teardown: close the flow of every still-queued job without
   counters or events. A traced service run ends with engines holding
   in-flight compiles that will never be harvested; their flows must still
   balance (the trace_check gate requires one finish per start), but
   counting them as cancels would make a traced run's summary differ from
   an untraced one — teardown is an artifact of observation, not a policy
   decision. No-op while no span sink is attached. *)
let flush_flows t =
  if Telemetry.spans_active t.tel then ignore (drain_jobs t ~why:"teardown")

(* Degrade mode suppresses the queue entirely ([bg_active]) and drains it
   on the way in: under overload the last thing the isolate needs is
   speculative compiles landing. Clearing degrade re-arms the queue. *)
let set_degrade t on =
  if on && not !(t.degrade) then ignore (bg_drain t ~reason:"degrade");
  t.degrade := on

(* ------------------------------------------------------------------ *)
(* The dispatcher: one request, compiled now or queued                 *)
(* ------------------------------------------------------------------ *)

(* Every compile the engine decides on goes through here, at one of two
   timings. With the queue live ([bg_active]) the request is enqueued and
   the caller keeps interpreting ([None]); otherwise it compiles now behind
   the barrier and the caller gets the admitted entry ([None] after an
   abort). A ladder step's victim ([widen]) is retired before a synchronous
   compile, and at the install of a queued one — until then it keeps
   serving. *)
let submit t fs ?widen req =
  if bg_active t then begin
    enqueue t fs ?widen req;
    None
  end
  else begin
    Option.iter (fun w -> retire t fs w req.r_key) widen;
    try_compile t fs req
  end

(* Execute one policy keying decision. The [Spec_values] cases covered by
   an interprocedural constant signature are counted — they are the
   decisions the caller-side facts influenced — unless the request is
   about to be dropped because one is already in flight. Only the
   polyvariant policy records such signatures ([install]), so the paper
   policy never counts one. A selective
   decision burns in only the argument positions still observed stable;
   if none is, it falls back to a generic compile and stops trying. *)
let compile_choice t fs args choice =
  let key =
    match choice with
    | Policy.Spec_generic -> Spec_key.Key_generic
    | Policy.Spec_values ->
      if Policy.anticipated_match (policy_view t fs) args && not (in_flight t fs) then
        bump t fs Telemetry.Key.interpro_seeded;
      Spec_key.Key_values (args, None)
    | Policy.Spec_tags -> Spec_key.Key_tags (Array.map Value.tag_of (as_entry t fs args))
    | Policy.Spec_selective ->
      let mask = stability_mask fs in
      (* Zero-arity functions are vacuously stable (specialization then
         only affects OSR locals baking). *)
      if Array.length mask = 0 || Array.exists Fun.id mask then
        Spec_key.Key_values (args, Some mask)
      else begin
        blacklist t fs;
        Spec_key.Key_generic
      end
  in
  submit t fs { r_key = key; r_osr = None }

(* The polyvariant ladder step: replace the version at [index] with its
   one-step-wider twin (values → tags of [args], tags → generic). No
   deopt, blacklist or storm accounting — the ladder terminates
   structurally (a generic version matches everything, so a function can
   widen at most [2 * cache_size] times ever). A function whose queued
   request is still in flight waits for it to land. *)
let widen_version t fs index args =
  if in_flight t fs then None
  else
    match List.nth_opt fs.compiled index with
    | None -> None
    | Some victim -> (
      (* Widen to the tuple as the callee sees it (arity-adjusted), so a tag
         key always has exactly one entry barrier per parameter — a call
         with surplus or missing arguments must not size the key. *)
      match Policy.widen victim.key (as_entry t fs args) with
      | None -> None (* generic already; unreachable: generic keys never miss *)
      | Some wider ->
        (* Chaos layer: an injected widening failure quarantines the
           function with the cache left untouched — no retirement, no
           [Version_widen] event — so the call interprets and the next
           miss after the backoff retries the ladder step. Fired before
           any mutation, exactly like an aborted compile. *)
        if fire t Faults.Version_widen then begin
          quarantine t fs Telemetry.Compile_fault;
          None
        end
        else
          submit t fs
            ~widen:{ w_victim = victim; w_index = index; w_entries = List.length fs.compiled }
            { r_key = wider; r_osr = None })

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

(* Two optional execution observers fused into one that fires [f] then
   [g]. *)
let both f g =
  match (f, g) with
  | None, h | h, None -> h
  | Some f, Some g ->
    Some
      (fun x y ->
        f x y;
        g x y)

(* The engine's three mutually recursive activities: dispatching calls,
   running native code (with bailout resume), and interpreting. *)
let rec call_value t (callee : Value.t) args =
  match callee with
  | Value.Closure c -> call_closure t c args
  | Value.Native_fun name -> (
    try Builtins.call name args
    with Builtins.Runtime_error msg -> raise (Runtime_error msg))
  | other -> raise (Runtime_error (Printf.sprintf "%s is not callable" (Value.typeof other)))

(* Cache lookup: a generic binary serves any arguments; a specialized one
   only its cached tuple. Hits move to the front (LRU), refresh the
   global-LRU clock, and report the probed index.

   The probe takes the most-specific match: under the polyvariant policy
   the generic catch-all coexists with specialized versions and must not
   shadow them when a recent generic hit moved it to the front of the LRU
   order. Ties keep the most recently used entry (lowest index). Paper
   caches never mix specificities (generic code only exists after
   [clear_compiled]), so there every match ties and the probe picks the
   first match in LRU order, as the paper's engine does. *)
and cache_find t fs args =
  let found = ref None in
  List.iteri
    (fun i entry ->
      if Spec_key.matches entry.key args then
        match !found with
        | Some (_, b) when Policy.key_rank b.key <= Policy.key_rank entry.key -> ()
        | _ -> found := Some (i, entry))
    fs.compiled;
  match !found with
  | None -> None
  | Some (i, entry) ->
    fs.compiled <- entry :: List.filter (fun e -> e != entry) fs.compiled;
    touch t entry;
    Some (i, entry)

and call_closure t (c : Value.closure) args =
  if !(t.depth) >= t.cfg.max_depth then raise (Runtime_error "stack overflow");
  t.depth := !(t.depth) + 1;
  Fun.protect
    ~finally:(fun () -> t.depth := !(t.depth) - 1)
    (fun () -> call_closure_at_depth t c args)

and call_closure_at_depth t (c : Value.closure) args =
  let fs = t.fstates.(c.Value.fid) in
  let func = t.program.Bytecode.Program.funcs.(c.Value.fid) in
  bump t fs Telemetry.Key.calls;
  observe_args t fs args;
  (* Harvest first: an artifact whose modeled ready cycle has passed must
     be installed before the cache probe, so the very call that finds the
     queue done is the first call the binary serves. *)
  if bg_active t then ignore (bg_harvest t fs);
  (* Any compile attempt below may abort (returning [None]): the call then
     falls back to plain interpretation and the quarantine clock decides
     when compilation is tried again. *)
  let run_or_interp = function
    | Some entry ->
      install_entry t fs entry;
      run_native_entry t fs func c args entry
    | None -> interpret t func ~upvals:c.Value.env ~args
  in
  match cache_find t fs args with
  | Some (index, entry) ->
    bump t fs Telemetry.Key.cache_hits;
    emit t (fun () ->
        Telemetry.Cache_hit
          { fid = fs.fid; fname = fname t fs.fid; index;
            entries = List.length fs.compiled });
    (* Tier-2 promotion: a generic tier-1 binary serving a function that
       stayed hot gets a specialized sibling (polyvariant only — the
       paper policy's [promote] is always [None]). The specialized
       version serves this very call; the catch-all stays behind it for
       every signature the new key does not cover. A function whose
       queued request is still in flight waits for it, uncounted. *)
    let promoted =
      match entry.key with
      | Spec_key.Key_generic when t.cfg.jit && can_compile t fs && not (in_flight t fs) -> (
        match
          Policy.promote t.cfg.policy (policy_view t fs) ~args
            ~hot_calls:t.cfg.hot_calls
        with
        | None -> None
        | Some choice ->
          bump t fs Telemetry.Key.versions_promoted;
          (* Queued, the generic binary serves this call too and the
             specialized sibling takes over at its harvest. *)
          compile_choice t fs args choice)
      | _ -> None
    in
    (match promoted with
    | Some better ->
      install_entry t fs better;
      run_native_entry t fs func c args better
    | None -> run_native_entry t fs func c args entry)
  | None ->
    if fs.compiled <> [] then begin
      bump t fs Telemetry.Key.cache_misses;
      emit t (fun () ->
          Telemetry.Cache_miss
            { fid = fs.fid; fname = fname t fs.fid; entries = List.length fs.compiled });
      (* Hot, compiled, but no binary fits these arguments. With the
         paper's one-entry cache this is the deoptimization event: discard,
         recompile generic, never specialize again (§4). The §6 extension
         (cache_size > 1) first fills the cache with further specialized
         versions; the selective extension instead narrows the burned-in
         argument set to the positions still observed stable (sticky, so
         the narrowing terminates in at most [arity] recompiles). A
         quarantined function keeps its binaries but does not recompile:
         the miss just interprets. A degraded engine does the same — a
         miss under overload must not deopt, blacklist or widen state
         that was healthy before the overload, so the warm cache comes
         back intact when the queue drains. *)
      if (not (can_compile t fs)) || !(t.degrade) then
        interpret t func ~upvals:c.Value.env ~args
      else
        (* With the queue live only the compile itself moves there: the
           state transitions (deopt, blacklist, cache clearing) happen now,
           and this call — and every call until the artifact lands —
           interprets instead of stalling. *)
        match Policy.on_miss t.cfg.policy (policy_view t fs) ~args with
        | Policy.Miss_respecialize ->
          clear_compiled t fs;
          deopt t fs Telemetry.Arg_mismatch;
          run_or_interp (compile_choice t fs args Policy.Spec_selective)
        | Policy.Miss_fill choice -> run_or_interp (compile_choice t fs args choice)
        | Policy.Miss_widen index -> run_or_interp (widen_version t fs index args)
        | Policy.Miss_deopt_generic ->
          clear_compiled t fs;
          deopt t fs Telemetry.Arg_mismatch;
          blacklist t fs;
          run_or_interp (submit t fs { r_key = Spec_key.Key_generic; r_osr = None })
    end
    else if
      t.cfg.jit && can_compile t fs
      && count t fs Telemetry.Key.calls >= t.cfg.hot_calls
    then begin
      (* Zero-length marker: the hot-detection instant that triggered this
         compile attempt (the compile span itself follows). *)
      Telemetry.span_complete t.tel ~name:"hot" ~cat:"interp" ~fid:fs.fid
        ~fname:(fname t fs.fid) ~start:(now t) ~dur:0
        ~args:[ ("calls", string_of_int (count t fs Telemetry.Key.calls)) ];
      (* The headline path: with the queue live the hot-call site hands
         the compile to the queue and interprets this call — no
         synchronous compile cycles are ever charged to the requester. The
         artifact lands at a later call's harvest (or a loop edge's OSR
         poll). *)
      run_or_interp
        (compile_choice t fs args (Policy.choose_hot t.cfg.policy (policy_view t fs) ~args))
    end
    else interpret t func ~upvals:c.Value.env ~args

and run_native_entry t fs func c args entry =
  let act = Exec.make_activation ~env:c.Value.env ~func ~args () in
  run_native t fs func act entry ~at_osr:false

and run_native t fs func act entry ~at_osr =
  (* Per native instruction: charge, attribution note, deadline check,
     opcode count. *)
  let callbacks =
    { Exec.call = (fun v a -> call_value t v a);
      globals = t.istate.Interp.globals;
      cycles = t.native_cycles;
      on_charge = Option.map Profile.Recorder.exec_hook !(t.profile);
      on_instr =
        both
          (Option.map (fun trip (code : Code.t) pc -> trip code.Code.fid pc) !(t.deadline_trip))
          (Option.map Profile.Recorder.instr_hook !(t.profile));
      faults = !(t.faults) }
  in
  let outcome =
    in_span t ~name:"native" ~cat:"native" fs.fid (fun () ->
        let o =
          try Exec.run callbacks entry.exec act ~at_osr
          with Objmodel.Error msg -> raise (Runtime_error msg)
        in
        (match o with
        | Exec.Finished _ -> ()
        | Exec.Bailed b ->
          (* The bailout penalty was charged inside [Exec.run] just before
             it returned, so the frame-reconstruction interval is the
             [bailout_penalty] cycles ending now — emitted retroactively,
             nested in the still-open native span. *)
          Telemetry.span_complete t.tel ~name:"bailout" ~cat:"bailout" ~fid:fs.fid
            ~fname:(fname t fs.fid)
            ~start:(now t - Cost.bailout_penalty) ~dur:Cost.bailout_penalty
            ~args:
              [ ("reason", "\"" ^ Telemetry.json_escape b.Exec.bo_reason ^ "\"");
                ("pc", string_of_int b.Exec.bo_pc) ]);
        o)
  in
  match outcome with
  | Exec.Finished v -> v
  | Exec.Bailed b ->
    bump t fs Telemetry.Key.bailouts;
    let entry_bail = b.Exec.bo_pc = 0 in
    if entry_bail then bump t fs Telemetry.Key.bailouts_entry
    else entry.strikes <- entry.strikes + 1;
    emit t (fun () ->
        Telemetry.Bailout
          {
            fid = fs.fid;
            fname = fname t fs.fid;
            pc = b.Exec.bo_pc;
            native_pc = b.Exec.bo_native_pc;
            reason = b.Exec.bo_reason;
            osr_entry = at_osr;
            strikes = entry.strikes;
          });
    (* Overflow feedback: the int32 fast path was wrong for this function's
       actual values; future compiles use double arithmetic instead of
       re-speculating (and bailing) forever. *)
    if b.Exec.bo_reason = "int32 overflow" then fs.overflow_bailed <- true;
    if entry_bail then begin
      (* An entry bail means the argument types changed: the binary can
         never run again, discard it at once. On a specialized binary this
         is a §4 deoptimization — the cache probe admitted a tuple the
         entry guards then rejected — so it must count as one and consult
         the blacklist policy; otherwise the next call re-specializes on
         the very tuple that just failed. Selective mode narrows instead
         of blacklisting (stability is sticky, so narrowing terminates). *)
      detach t fs entry;
      (* A specialized or widened binary carries entry guards; a generic
         one bails at entry only through OSR-argument plumbing. The key
         kind decides — never compare keys structurally, cached values can
         be cyclic. *)
      (match entry.key with
      | Spec_key.Key_generic -> ()
      | Spec_key.Key_values _ | Spec_key.Key_tags _ ->
        deopt t fs Telemetry.Entry_guard;
        if not t.cfg.selective then blacklist t fs);
      note_discard t fs
    end
    else if entry.strikes >= t.cfg.max_bailouts then begin
      (* In-body guards get [max_bailouts] strikes — per binary, counted
         against this binary alone — before it is declared too speculative
         and discarded for recompilation with refreshed type feedback. *)
      detach t fs entry;
      bump t fs Telemetry.Key.strike_discards;
      emit t (fun () ->
          Telemetry.Deopt
            { fid = fs.fid; fname = fname t fs.fid; reason = Telemetry.Strike_limit });
      note_discard t fs
    end;
    resume_interp t func act b

and resume_interp t func (act : Exec.activation) (b : Exec.bailout) =
  let frame = Interp.make_frame func ~args:b.Exec.bo_args ~upvals:act.Exec.act_env in
  Array.blit b.Exec.bo_locals 0 frame.Interp.locals 0 (Array.length b.Exec.bo_locals);
  Array.iteri (fun i cell -> frame.Interp.cells.(i) <- cell) act.Exec.act_cells;
  Array.blit b.Exec.bo_stack 0 frame.Interp.stack 0 (Array.length b.Exec.bo_stack);
  frame.Interp.sp <- Array.length b.Exec.bo_stack;
  frame.Interp.pc <- b.Exec.bo_pc;
  run_frame t frame

and interpret t func ~upvals ~args =
  let frame = Interp.make_frame func ~args ~upvals in
  run_frame t frame

and run_frame t frame =
  let hooks =
    {
      Interp.call = (fun callee args -> call_value t callee args);
      loop_head = (fun fr -> maybe_osr t fr);
      (* Per interpreted instruction: attribution, then the deadline check. *)
      step = both (Option.map Profile.Recorder.interp_hook !(t.profile)) !(t.deadline_trip);
    }
  in
  in_span t ~name:"interpret" ~cat:"interp" frame.Interp.func.Bytecode.Program.fid
    (fun () ->
      try Interp.run t.istate hooks frame
      with Interp.Runtime_error msg -> raise (Runtime_error msg))

and maybe_osr t (frame : Interp.frame) =
  if not t.cfg.jit then None
  else begin
    let fs = t.fstates.(frame.Interp.func.Bytecode.Program.fid) in
    fs.loop_edges <- fs.loop_edges + 1;
    (* Background mode: poll for finished artifacts at every loop head —
       an in-flight hot loop transfers into a finished binary the moment
       its modeled ready cycle has passed. *)
    match (if bg_active t then bg_osr_poll t fs frame else None) with
    | Some _ as entered -> entered
    | None ->
    (* Only OSR when no binary is installed: an installed binary either
       already serves this activation or is about to be replaced through
       the call path. The OSR path of a binary is single-use (its entry
       state is burned in), so it is never re-entered. A quarantined
       function's loop-edge threshold scales by the same power of two as
       its call backoff; a pinned one never OSRs again. With the queue
       active, a function whose request is already in flight keeps
       interpreting — its loop edges accumulate until the poll above
       finds the artifact. *)
    if
      (not fs.pinned)
      && fs.loop_edges >= t.cfg.hot_loop_edges * (1 lsl min fs.q_failures 16)
      && fs.compiled = []
      && not (in_flight t fs)
    then begin
      let edges = fs.loop_edges in
      fs.loop_edges <- 0;
      let func = frame.Interp.func in
      let args_now = Array.copy frame.Interp.args in
      let locals_now = Array.copy frame.Interp.locals in
      bump t fs Telemetry.Key.osr_entries;
      emit t (fun () ->
          Telemetry.Osr_enter
            { fid = fs.fid; fname = fname t fs.fid; pc = frame.Interp.pc;
              loop_edges = edges });
      Telemetry.span_complete t.tel ~name:"osr-trigger" ~cat:"interp" ~fid:fs.fid
        ~fname:(fname t fs.fid) ~start:(now t) ~dur:0
        ~args:[ ("pc", string_of_int frame.Interp.pc);
                ("loop_edges", string_of_int edges) ];
      let key =
        if not (want_specialize t fs) then Spec_key.Key_generic
        else if not t.cfg.selective then Spec_key.Key_values (args_now, None)
        else begin
          let mask = stability_mask fs in
          (* All-varying arguments: give up on specializing this function,
             as the call path would. *)
          if Array.length mask > 0 && not (Array.exists Fun.id mask) then begin
            blacklist t fs;
            Spec_key.Key_generic
          end
          else Spec_key.Key_values (args_now, Some mask)
        end
      in
      let osr =
        {
          Builder.osr_pc = frame.Interp.pc;
          osr_args = args_now;
          osr_locals = locals_now;
          (* Synchronous OSR enters right now with exactly this frame, so
             baked locals are exact; a queued compile is entered later,
             after the loop advanced, so its locals must stay live. *)
          osr_bake_locals = not (bg_active t);
        }
      in
      (* Queued, this activation keeps interpreting: the poll above enters
         the artifact once its ready cycle passes — or it serves later
         calls from its normal entry if the loop finishes first. *)
      match submit t fs { r_key = key; r_osr = Some osr } with
      | None -> None  (* queued or aborted: keep interpreting this activation *)
      | Some compiled ->
        install_entry t fs compiled;
        let act =
          {
            Exec.act_args = args_now;
            act_env = frame.Interp.upvals;
            act_cells = frame.Interp.cells;
            act_osr_args = args_now;
            act_osr_locals = locals_now;
          }
        in
        Some (run_native t fs func act compiled ~at_osr:true)
    end
    else None
  end

(* The loop-edge harvest: install every artifact whose ready cycle has
   passed, then — if one of them carries an OSR entry burned for this
   very loop head and its snapshot still matches the live frame
   ([bg_osr_frame_matches]) — transfer the running activation into the
   finished binary mid-loop. A stale snapshot counts [bg.osr_stale] and
   keeps interpreting; the binary serves later calls regardless. *)
and bg_osr_poll t fs (frame : Interp.frame) =
  match
    List.find_map
      (fun ((j : bg_job), entry) ->
        match j.j_req.r_osr with
        | Some o when o.Builder.osr_pc = frame.Interp.pc -> Some (j.j_req, o, entry)
        | _ -> None)
      (bg_harvest t fs)
  with
  | None -> None
  | Some (req, o, entry) ->
    if bg_osr_frame_matches req o frame then begin
      bump t fs Telemetry.Key.bg_osr_entries;
      emit t (fun () ->
          Telemetry.Osr_entry { fid = fs.fid; fname = fname t fs.fid; pc = frame.Interp.pc });
      let act =
        {
          Exec.act_args = Array.copy frame.Interp.args;
          act_env = frame.Interp.upvals;
          act_cells = frame.Interp.cells;
          act_osr_args = Array.copy frame.Interp.args;
          act_osr_locals = Array.copy frame.Interp.locals;
        }
      in
      Some (run_native t fs frame.Interp.func act entry ~at_osr:true)
    end
    else begin
      bump t fs Telemetry.Key.bg_osr_stale;
      None
    end

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

(* The report is derived from the telemetry counter registry: the numbers
   the paper's tables print are the numbers the event stream counts, by
   construction. *)
let report_of t result =
  let c = counters t in
  let functions =
    Array.to_list
      (Array.map
         (fun fs ->
           let get key = Telemetry.Counters.get c ~fid:fs.fid key in
           {
             fr_fid = fs.fid;
             fr_name = t.program.Bytecode.Program.funcs.(fs.fid).Bytecode.Program.name;
             fr_calls = get Telemetry.Key.calls;
             fr_compiles = get Telemetry.Key.compiles;
             fr_was_specialized = get Telemetry.Key.compiles_specialized > 0;
             fr_deoptimized = get Telemetry.Key.deopts > 0;
             fr_bailouts = get Telemetry.Key.bailouts;
             fr_sizes = List.rev fs.sizes;
             fr_arg_set_changes = get Telemetry.Key.arg_set_changes;
             fr_last_arg_tags =
               (match fs.last_args with
               | None -> []
               | Some args -> Array.to_list (Array.map Value.tag_of args));
           })
         t.fstates)
  in
  let compilations = Telemetry.Counters.total c Telemetry.Key.compiles in
  let recompilations =
    List.fold_left (fun acc f -> acc + max 0 (f.fr_compiles - 1)) 0 functions
  in
  let specialized_funcs =
    List.length (List.filter (fun f -> f.fr_was_specialized) functions)
  in
  let deoptimized_funcs = List.length (List.filter (fun f -> f.fr_deoptimized) functions) in
  let interp_cycles = t.istate.Interp.icount * Cost.interp_per_instr in
  {
    result;
    interp_cycles;
    native_cycles = !(t.native_cycles);
    compile_cycles = !(t.compile_cycles);
    bg_compile_cycles = !(t.bg_cycles);
    (* [total_cycles] is the model clock: background compile work is
       deliberately absent — that absence is the fig9cd stall removed. *)
    total_cycles = interp_cycles + !(t.native_cycles) + !(t.compile_cycles);
    bytecode_instrs = t.istate.Interp.icount;
    functions;
    compilations;
    recompilations;
    specialized_funcs;
    successful_funcs = specialized_funcs - deoptimized_funcs;
    deoptimized_funcs;
  }

(* Cooperative deadline for one [run]: the budget is relative to the
   clock at entry, so a warm engine serving many requests gets a fresh
   budget per request. [run_frame]/[run_native] hand the trip to the
   [Interp]/[Exec] dispatch loops; it emits [Deadline_hit] and bumps the
   counter exactly once (the raise immediately follows the emit, and the
   trip is cleared on the way out), then [Deadline_exceeded] unwinds
   through every open frame — spans close with [unwound], the depth
   counter restores via [Fun.protect] — and escapes [run] for the caller
   to classify. Compilation is deliberately not checked: a compile
   returns to dispatch within one bounded pipeline run, and the very next
   dispatched instruction observes the (compile-charged) clock. *)
let with_deadline t f =
  if t.cfg.deadline <= 0 then f ()
  else begin
    let start = now t in
    let budget = t.cfg.deadline in
    let trip fid pc =
      let spent = now t - start in
      if spent > budget then begin
        let fs = t.fstates.(fid) in
        bump t fs Telemetry.Key.deadlines;
        emit t (fun () ->
            Telemetry.Deadline_hit
              { fid; fname = fname t fid; spent; limit = budget });
        raise (Deadline_exceeded { dl_fid = fid; dl_pc = pc; dl_spent = spent; dl_limit = budget })
      end
    in
    let outer = !(t.deadline_trip) in
    t.deadline_trip := Some trip;
    Fun.protect ~finally:(fun () -> t.deadline_trip := outer) f
  end

(* Every run starts [Math.random] from the one seed, so what a program
   draws never depends on what ran on the domain before it. *)
let run t =
  let main = t.program.Bytecode.Program.funcs.(t.program.Bytecode.Program.main) in
  Builtins.reset_random 20130223;  (* CGO'13 *)
  let result =
    (* Backstop for the depth limit: should MiniJS recursion exhaust the
       OCaml stack before [max_depth] trips (a misconfigured limit), it
       still surfaces as the same MiniJS-level error, not a crash. *)
    try with_deadline t (fun () -> interpret t main ~upvals:[||] ~args:[||])
    with Stack_overflow -> raise (Runtime_error "stack overflow")
  in
  report_of t result

let run_program cfg program = run (make cfg program)

let run_source ?diag ?faults cfg src =
  run (make ?diag ?faults cfg (Bytecode.Compile.program_of_source src))
