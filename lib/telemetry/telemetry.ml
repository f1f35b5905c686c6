(* Structured JIT telemetry: every policy decision the engine makes —
   compile, cache probe, specialize, bail out, deoptimize, blacklist, OSR —
   is an [event] delivered to pluggable [sink]s, its lifecycle phases are
   [span]s, and every countable transition also bumps a named counter in a
   [Counters.t] registry, all on one hub per engine. The
   engine's report is derived from the registry, so the numbers the paper's
   tables print and the numbers an operator sees on a live trace can never
   disagree.

   Events carry only primitive payloads (ints, strings, bool arrays): this
   module sits below the IRs and the runtime, like [Diag], so any layer can
   emit through it without a dependency cycle. *)

(* ------------------------------------------------------------------ *)
(* Events                                                              *)
(* ------------------------------------------------------------------ *)

type pass_delta = {
  pd_pass : string;
  pd_before : int;  (* MIR instructions entering the pass *)
  pd_after : int;  (* MIR instructions after it ran *)
}

type deopt_reason =
  | Arg_mismatch  (* call missed the specialization cache (§4 deopt) *)
  | Entry_guard  (* specialized binary's entry type barrier failed *)
  | Strike_limit  (* in-body guard failures reached [max_bailouts] *)

type quarantine_reason =
  | Compile_fault  (* a compilation aborted (verifier/diag/injected fault) *)
  | Deopt_storm  (* compile→bailout→recompile oscillation past threshold *)
  | Cache_oom  (* code-cache admission failed *)

type event =
  | Compile_start of {
      fid : int;
      fname : string;
      specialized : bool;
      selective : bool;
      osr : bool;
    }
  | Compile_end of {
      fid : int;
      fname : string;
      specialized : bool;
      selective : bool;
      osr : bool;
      size : int;  (* native instructions produced *)
      cycles : int;  (* model compile cycles charged *)
      passes : pass_delta list;  (* pipeline passes, in execution order *)
    }
  | Cache_hit of {
      fid : int;
      fname : string;
      index : int;  (* position probed in the MRU-first cache list *)
      entries : int;  (* cache entries at probe time *)
    }
  | Cache_miss of { fid : int; fname : string; entries : int }
  | Specialize of {
      fid : int;
      fname : string;
      args : string;  (* display form of the burned-in tuple *)
      mask : bool array option;  (* selective: which positions burn in *)
    }
  | Deopt of { fid : int; fname : string; reason : deopt_reason }
  | Bailout of {
      fid : int;
      fname : string;
      pc : int;  (* bytecode pc interpretation resumes at *)
      native_pc : int;  (* native instruction that failed *)
      reason : string;
      osr_entry : bool;
      strikes : int;  (* in-body strikes against the binary, after this one *)
    }
  | Blacklist of { fid : int; fname : string }
  | Osr_enter of { fid : int; fname : string; pc : int; loop_edges : int }
  | Inline_decision of { fid : int; fname : string; inlined : int }
  | Guard_elided of {
      fid : int;
      fname : string;
      guard : string;  (* "type" | "array" | "bounds" *)
      origin_fid : int;  (* function the guard came from (inlining) *)
      pc : int;  (* bytecode pc of the guarded operation *)
    }
  | Compile_abort of {
      fid : int;
      fname : string;
      specialized : bool;
      osr : bool;
      reason : string;  (* the diagnostic's message (or the injected fault) *)
      cycles : int;  (* wasted compile cycles, still charged *)
    }
  | Quarantine of {
      fid : int;
      fname : string;
      reason : quarantine_reason;
      backoff_calls : int;  (* calls until the next compile attempt; 0 if permanent *)
      permanent : bool;  (* pinned to the interpreter tier *)
    }
  | Cache_evict of {
      fid : int;
      fname : string;  (* owner of the evicted binary *)
      bytes : int;  (* bytes reclaimed *)
      in_use : int;  (* cache bytes in use after the eviction *)
    }
  | Version_widen of {
      fid : int;
      fname : string;
      index : int;  (* the widened version's position (MRU-first) *)
      from_key : string;  (* display form of the key it had *)
      to_key : string;  (* display form of the replacement key *)
      entries : int;  (* cache entries before the widening *)
    }
  | Deadline_hit of {
      fid : int;  (* function whose dispatch observed the expiry *)
      fname : string;
      spent : int;  (* model cycles spent in the run when it tripped *)
      limit : int;  (* the run's cycle budget *)
    }
  | Compile_enqueue of {
      fid : int;
      fname : string;
      kind : string;  (* queued signature flavor: "values" | "selective" | "tags" | "generic" *)
      osr : bool;  (* carries an OSR entry snapshot *)
      ready : int;  (* modeled completion cycle *)
      depth : int;  (* queue occupancy after the enqueue *)
    }
  | Compile_ready of {
      fid : int;
      fname : string;
      size : int;  (* native instructions installed *)
      cycles : int;  (* off-clock compile cycles the artifact cost *)
      wait : int;  (* model cycles from enqueue to harvest *)
    }
  | Compile_cancel of {
      fid : int;
      fname : string;
      reason : string;  (* "overflow" | "degrade" | "recycle" | "install-fault" | "enqueue-fault" *)
    }
  | Osr_entry of {
      fid : int;
      fname : string;
      pc : int;  (* loop head transferred into the finished binary *)
    }

let event_fid = function
  | Compile_start { fid; _ }
  | Compile_end { fid; _ }
  | Cache_hit { fid; _ }
  | Cache_miss { fid; _ }
  | Specialize { fid; _ }
  | Deopt { fid; _ }
  | Bailout { fid; _ }
  | Blacklist { fid; _ }
  | Osr_enter { fid; _ }
  | Inline_decision { fid; _ }
  | Guard_elided { fid; _ }
  | Compile_abort { fid; _ }
  | Quarantine { fid; _ }
  | Cache_evict { fid; _ }
  | Version_widen { fid; _ }
  | Deadline_hit { fid; _ }
  | Compile_enqueue { fid; _ }
  | Compile_ready { fid; _ }
  | Compile_cancel { fid; _ }
  | Osr_entry { fid; _ } -> fid

let event_fname = function
  | Compile_start { fname; _ }
  | Compile_end { fname; _ }
  | Cache_hit { fname; _ }
  | Cache_miss { fname; _ }
  | Specialize { fname; _ }
  | Deopt { fname; _ }
  | Bailout { fname; _ }
  | Blacklist { fname; _ }
  | Osr_enter { fname; _ }
  | Inline_decision { fname; _ }
  | Guard_elided { fname; _ }
  | Compile_abort { fname; _ }
  | Quarantine { fname; _ }
  | Cache_evict { fname; _ }
  | Version_widen { fname; _ }
  | Deadline_hit { fname; _ }
  | Compile_enqueue { fname; _ }
  | Compile_ready { fname; _ }
  | Compile_cancel { fname; _ }
  | Osr_entry { fname; _ } -> fname

let event_kind = function
  | Compile_start _ -> "compile_start"
  | Compile_end _ -> "compile_end"
  | Cache_hit _ -> "cache_hit"
  | Cache_miss _ -> "cache_miss"
  | Specialize _ -> "specialize"
  | Deopt _ -> "deopt"
  | Bailout _ -> "bailout"
  | Blacklist _ -> "blacklist"
  | Osr_enter _ -> "osr_enter"
  | Inline_decision _ -> "inline_decision"
  | Guard_elided _ -> "guard_elided"
  | Compile_abort _ -> "compile_abort"
  | Quarantine _ -> "quarantine"
  | Cache_evict _ -> "cache_evict"
  | Version_widen _ -> "version_widen"
  | Deadline_hit _ -> "deadline_hit"
  | Compile_enqueue _ -> "compile_enqueue"
  | Compile_ready _ -> "compile_ready"
  | Compile_cancel _ -> "compile_cancel"
  | Osr_entry _ -> "osr_entry"

let deopt_reason_to_string = function
  | Arg_mismatch -> "arg_mismatch"
  | Entry_guard -> "entry_guard"
  | Strike_limit -> "strike_limit"

let quarantine_reason_to_string = function
  | Compile_fault -> "compile_fault"
  | Deopt_storm -> "deopt_storm"
  | Cache_oom -> "cache_oom"

let mask_to_string mask =
  String.concat "" (Array.to_list (Array.map (fun b -> if b then "1" else "0") mask))

let flavor ~specialized ~selective ~osr =
  (if specialized then "specialized" else "generic")
  ^ (if selective then " selective" else "")
  ^ if osr then " +OSR" else ""

(* One human-readable line per event, the replacement for the engine's old
   [verbose] printf diagnostics (jsvm --trace). *)
let to_string ev =
  let site = Printf.sprintf "f%d %s" (event_fid ev) (event_fname ev) in
  match ev with
  | Compile_start { specialized; selective; osr; _ } ->
    Printf.sprintf "compile-start %s %s" site (flavor ~specialized ~selective ~osr)
  | Compile_end { specialized; selective; osr; size; cycles; passes; _ } ->
    Printf.sprintf "compile-end   %s %s size=%d cycles=%d passes=[%s]" site
      (flavor ~specialized ~selective ~osr)
      size cycles
      (String.concat " "
         (List.map
            (fun p -> Printf.sprintf "%s:%d->%d" p.pd_pass p.pd_before p.pd_after)
            passes))
  | Cache_hit { index; entries; _ } ->
    Printf.sprintf "cache-hit     %s entry %d of %d" site index entries
  | Cache_miss { entries; _ } ->
    Printf.sprintf "cache-miss    %s (%d cached)" site entries
  | Specialize { args; mask; _ } ->
    Printf.sprintf "specialize    %s args=(%s)%s" site args
      (match mask with
      | Some m -> Printf.sprintf " mask=%s" (mask_to_string m)
      | None -> "")
  | Deopt { reason; _ } ->
    Printf.sprintf "deopt         %s (%s)" site (deopt_reason_to_string reason)
  | Bailout { pc; native_pc; reason; osr_entry; strikes; _ } ->
    Printf.sprintf "bailout       %s at pc %d (native %d): %s%s strikes=%d" site pc
      native_pc reason
      (if osr_entry then " [osr entry]" else "")
      strikes
  | Blacklist _ -> Printf.sprintf "blacklist     %s" site
  | Osr_enter { pc; loop_edges; _ } ->
    Printf.sprintf "osr-enter     %s at pc %d after %d loop edges" site pc loop_edges
  | Inline_decision { inlined; _ } ->
    Printf.sprintf "inline        %s %d call site(s)" site inlined
  | Guard_elided { guard; origin_fid; pc; _ } ->
    Printf.sprintf "guard-elided  %s %s guard from f%d@%d" site guard origin_fid pc
  | Compile_abort { specialized; osr; reason; cycles; _ } ->
    Printf.sprintf "compile-abort %s %s: %s (%d cycles wasted)" site
      (flavor ~specialized ~selective:false ~osr)
      reason cycles
  | Quarantine { reason; backoff_calls; permanent; _ } ->
    if permanent then
      Printf.sprintf "quarantine    %s (%s) pinned to interpreter" site
        (quarantine_reason_to_string reason)
    else
      Printf.sprintf "quarantine    %s (%s) retry after %d calls" site
        (quarantine_reason_to_string reason)
        backoff_calls
  | Cache_evict { bytes; in_use; _ } ->
    Printf.sprintf "cache-evict   %s %d bytes freed (%d in use)" site bytes in_use
  | Version_widen { index; from_key; to_key; entries; _ } ->
    Printf.sprintf "version-widen %s entry %d of %d: %s -> %s" site index entries
      from_key to_key
  | Deadline_hit { spent; limit; _ } ->
    Printf.sprintf "deadline-hit  %s spent %d of %d cycles" site spent limit
  | Compile_enqueue { kind; osr; ready; depth; _ } ->
    Printf.sprintf "bg-enqueue    %s %s%s ready at %d (%d queued)" site kind
      (if osr then " +OSR" else "")
      ready depth
  | Compile_ready { size; cycles; wait; _ } ->
    Printf.sprintf "bg-ready      %s size=%d cycles=%d after %d cycles in flight" site
      size cycles wait
  | Compile_cancel { reason; _ } -> Printf.sprintf "bg-cancel     %s (%s)" site reason
  | Osr_entry { pc; _ } -> Printf.sprintf "bg-osr-entry  %s at pc %d" site pc

(* ------------------------------------------------------------------ *)
(* JSON rendering (hand-rolled; no json dependency in the image)       *)
(* ------------------------------------------------------------------ *)

(* RFC 8259 string escaping: the two mandatory escapes, the five short
   forms (\b \t \n \f \r), and \u00XX for every remaining control char
   (which covers the whole <0x10 range). Everything >= 0x20 passes through
   byte-for-byte. *)
let json_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\012' -> Buffer.add_string buf "\\f"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Inverse of [json_escape], for the round-trip test and the trace-JSON
   validator: decodes the escapes [json_escape] emits (including \uXXXX
   for XXXX < 0x100) back to raw bytes. Unknown escapes raise. *)
let json_unescape s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let hex c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> invalid_arg "Telemetry.json_unescape: bad hex digit"
  in
  let rec go i =
    if i < n then
      match s.[i] with
      | '\\' ->
        if i + 1 >= n then invalid_arg "Telemetry.json_unescape: trailing backslash";
        (match s.[i + 1] with
        | '"' -> Buffer.add_char buf '"'; go (i + 2)
        | '\\' -> Buffer.add_char buf '\\'; go (i + 2)
        | '/' -> Buffer.add_char buf '/'; go (i + 2)
        | 'b' -> Buffer.add_char buf '\b'; go (i + 2)
        | 't' -> Buffer.add_char buf '\t'; go (i + 2)
        | 'n' -> Buffer.add_char buf '\n'; go (i + 2)
        | 'f' -> Buffer.add_char buf '\012'; go (i + 2)
        | 'r' -> Buffer.add_char buf '\r'; go (i + 2)
        | 'u' ->
          if i + 5 >= n then invalid_arg "Telemetry.json_unescape: short \\u escape";
          let code =
            (hex s.[i + 2] lsl 12) lor (hex s.[i + 3] lsl 8) lor (hex s.[i + 4] lsl 4)
            lor hex s.[i + 5]
          in
          if code > 0xff then invalid_arg "Telemetry.json_unescape: non-byte \\u escape";
          Buffer.add_char buf (Char.chr code);
          go (i + 6)
        | c -> invalid_arg (Printf.sprintf "Telemetry.json_unescape: bad escape \\%c" c))
      | c -> Buffer.add_char buf c; go (i + 1)
  in
  go 0;
  Buffer.contents buf

let json_obj fields =
  "{"
  ^ String.concat ","
      (List.map (fun (k, v) -> Printf.sprintf "\"%s\":%s" k v) fields)
  ^ "}"

let jstr s = "\"" ^ json_escape s ^ "\""
let jbool b = if b then "true" else "false"

(* One JSON object per event (a JSONL stream when written line by line).
   Every object carries "ev", "fid" and "fn"; the rest is per-kind. *)
let to_json ev =
  let base = [ ("ev", jstr (event_kind ev)); ("fid", string_of_int (event_fid ev));
               ("fn", jstr (event_fname ev)) ]
  in
  let extra =
    match ev with
    | Compile_start { specialized; selective; osr; _ } ->
      [ ("specialized", jbool specialized); ("selective", jbool selective);
        ("osr", jbool osr) ]
    | Compile_end { specialized; selective; osr; size; cycles; passes; _ } ->
      [ ("specialized", jbool specialized); ("selective", jbool selective);
        ("osr", jbool osr); ("size", string_of_int size);
        ("cycles", string_of_int cycles);
        ( "passes",
          "["
          ^ String.concat ","
              (List.map
                 (fun p ->
                   json_obj
                     [ ("pass", jstr p.pd_pass);
                       ("before", string_of_int p.pd_before);
                       ("after", string_of_int p.pd_after) ])
                 passes)
          ^ "]" ) ]
    | Cache_hit { index; entries; _ } ->
      [ ("index", string_of_int index); ("entries", string_of_int entries) ]
    | Cache_miss { entries; _ } -> [ ("entries", string_of_int entries) ]
    | Specialize { args; mask; _ } ->
      ("args", jstr args)
      :: (match mask with Some m -> [ ("mask", jstr (mask_to_string m)) ] | None -> [])
    | Deopt { reason; _ } -> [ ("reason", jstr (deopt_reason_to_string reason)) ]
    | Bailout { pc; native_pc; reason; osr_entry; strikes; _ } ->
      [ ("pc", string_of_int pc); ("native_pc", string_of_int native_pc);
        ("reason", jstr reason); ("osr_entry", jbool osr_entry);
        ("strikes", string_of_int strikes) ]
    | Blacklist _ -> []
    | Osr_enter { pc; loop_edges; _ } ->
      [ ("pc", string_of_int pc); ("loop_edges", string_of_int loop_edges) ]
    | Inline_decision { inlined; _ } -> [ ("inlined", string_of_int inlined) ]
    | Guard_elided { guard; origin_fid; pc; _ } ->
      [ ("guard", jstr guard); ("origin_fid", string_of_int origin_fid);
        ("pc", string_of_int pc) ]
    | Compile_abort { specialized; osr; reason; cycles; _ } ->
      [ ("specialized", jbool specialized); ("osr", jbool osr);
        ("reason", jstr reason); ("cycles", string_of_int cycles) ]
    | Quarantine { reason; backoff_calls; permanent; _ } ->
      [ ("reason", jstr (quarantine_reason_to_string reason));
        ("backoff_calls", string_of_int backoff_calls);
        ("permanent", jbool permanent) ]
    | Cache_evict { bytes; in_use; _ } ->
      [ ("bytes", string_of_int bytes); ("in_use", string_of_int in_use) ]
    | Version_widen { index; from_key; to_key; entries; _ } ->
      [ ("index", string_of_int index); ("from", jstr from_key);
        ("to", jstr to_key); ("entries", string_of_int entries) ]
    | Deadline_hit { spent; limit; _ } ->
      [ ("spent", string_of_int spent); ("limit", string_of_int limit) ]
    | Compile_enqueue { kind; osr; ready; depth; _ } ->
      [ ("kind", jstr kind); ("osr", jbool osr); ("ready", string_of_int ready);
        ("depth", string_of_int depth) ]
    | Compile_ready { size; cycles; wait; _ } ->
      [ ("size", string_of_int size); ("cycles", string_of_int cycles);
        ("wait", string_of_int wait) ]
    | Compile_cancel { reason; _ } -> [ ("reason", jstr reason) ]
    | Osr_entry { pc; _ } -> [ ("pc", string_of_int pc) ]
  in
  json_obj (base @ extra)

(* ------------------------------------------------------------------ *)
(* Sinks                                                               *)
(* ------------------------------------------------------------------ *)

type sink = event -> unit

let text_sink ?(prefix = "[jit] ") oc ev =
  output_string oc (prefix ^ to_string ev ^ "\n");
  flush oc

let jsonl_sink oc ev =
  output_string oc (to_json ev ^ "\n")

(* ------------------------------------------------------------------ *)
(* Request trace context                                               *)
(* ------------------------------------------------------------------ *)

(* The request-scoped identity the service layer threads through queue
   wait, engine runs and background-compile lifecycles. It lives on a hub
   ([set_trace]): the service sets one per request on the isolate's hub
   and on the engine serving it, and every span or flight-recorder entry
   that hub emits stamps itself with it. Nothing reads the context unless
   an observer is attached, so setting it costs one field write and
   cannot perturb the model. *)
type trace_ctx = {
  tc_trace : int;  (* trace id: unique per request across the whole run *)
  tc_request : int;  (* the request id (rq_id) *)
  tc_tenant : int;
  tc_isolate : int;
}

(* ------------------------------------------------------------------ *)
(* Lifecycle spans                                                     *)
(* ------------------------------------------------------------------ *)

(* Chrome trace-event phase. Complete spans are the PR-5 lifecycle
   intervals; flow start/finish pairs stitch one request's work across
   lanes — the enqueue of a background compile (on the requesting lane)
   flows to its install (on whatever request harvests it). *)
type span_ph = Ph_complete | Ph_flow_start | Ph_flow_finish

(* A completed interval on the VM's deterministic model-cycle clock
   (interp cycles + native cycles + compile cycles at emission time — never
   wall time, so traces are reproducible). Spans describe engine lifecycle
   phases: interpreting a frame, each pipeline pass, codegen, a native run,
   a bailout's frame reconstruction, a recompilation. *)
type span = {
  sp_name : string;  (* e.g. "interpret", "pass:gvn", "native", "bailout" *)
  sp_cat : string;  (* taxonomy bucket: interp|compile|pass|codegen|native|bailout *)
  sp_fid : int;
  sp_fname : string;
  sp_start : int;  (* model-cycle timestamp at which the phase began *)
  sp_dur : int;  (* model cycles spent in the phase *)
  sp_depth : int;  (* nesting depth when the span was opened (0 = root) *)
  sp_args : (string * string) list;
      (* extra Chrome-trace args: (key, already-rendered JSON value) *)
  sp_ph : span_ph;  (* Ph_complete outside flow stitching *)
  sp_flow : int;  (* flow id tying a start to its finish; 0 = none *)
  sp_trace : int;  (* requesting trace id, rendered as the Perfetto tid
                      (the request lane); 0 = no request context *)
  sp_pid : int;  (* Perfetto pid (the isolate); 0 renders as 1 *)
}

type span_sink = span -> unit

(* The one place a [span] record is built. [ctx] is the request identity
   the span is stamped with: the trace id is the Perfetto lane (tid) and
   the isolate the process group (pid), so one request's interpret /
   compile / OSR / deadline spans land in a single lane no matter which
   engine emitted them. Standalone runs have no context and keep the
   0 -> 1 rendering. *)
let make_span ~ctx ~ph ~flow ~depth ~args ~name ~cat ~fid ~fname ~start ~dur =
  let trace, pid =
    match ctx with Some c -> (c.tc_trace, c.tc_isolate + 1) | None -> (0, 0)
  in
  {
    sp_name = name;
    sp_cat = cat;
    sp_fid = fid;
    sp_fname = fname;
    sp_start = start;
    sp_dur = dur;
    sp_depth = depth;
    sp_args = args;
    sp_ph = ph;
    sp_flow = flow;
    sp_trace = trace;
    sp_pid = pid;
  }

(* One Chrome trace-event object, loadable in Perfetto / chrome://tracing
   when wrapped as {"traceEvents":[...]}. Complete spans are "ph":"X";
   flow stitches are "ph":"s"/"f" pairs sharing an "id". The model-cycle
   clock maps onto the format's microsecond timestamps. A zero trace id
   or pid renders as 1 so standalone (`jsvm`) traces are byte-identical to the
   pre-flow format. *)
let span_to_chrome_json s =
  let tid = if s.sp_trace = 0 then 1 else s.sp_trace in
  let pid = if s.sp_pid = 0 then 1 else s.sp_pid in
  let trace_arg = if s.sp_trace = 0 then [] else [ ("trace_id", string_of_int s.sp_trace) ] in
  match s.sp_ph with
  | Ph_complete ->
    json_obj
      [
        ("name", jstr s.sp_name);
        ("cat", jstr s.sp_cat);
        ("ph", jstr "X");
        ("ts", string_of_int s.sp_start);
        ("dur", string_of_int s.sp_dur);
        (* one track per request lane: Perfetto nests same-track "X" events
           by timestamp containment, which our begin/end discipline
           guarantees *)
        ("pid", string_of_int pid);
        ("tid", string_of_int tid);
        ( "args",
          json_obj
            (("fid", string_of_int s.sp_fid) :: ("fn", jstr s.sp_fname)
            :: (trace_arg @ s.sp_args)) );
      ]
  | Ph_flow_start | Ph_flow_finish ->
    json_obj
      ([
         ("name", jstr s.sp_name);
         ("cat", jstr s.sp_cat);
         ("ph", jstr (if s.sp_ph = Ph_flow_start then "s" else "f"));
         ("id", string_of_int s.sp_flow);
         ("ts", string_of_int s.sp_start);
         ("pid", string_of_int pid);
         ("tid", string_of_int tid);
       ]
      @ (if s.sp_ph = Ph_flow_finish then [ ("bp", jstr "e") ] else [])
      @ [
          ( "args",
            json_obj
              (("fid", string_of_int s.sp_fid) :: ("fn", jstr s.sp_fname)
              :: (trace_arg @ s.sp_args)) );
        ])

(* ------------------------------------------------------------------ *)
(* Counter registry                                                    *)
(* ------------------------------------------------------------------ *)

(* Canonical counter names. The engine bumps these; the report and
   [jsvm --stats] read them back. Keeping the names here (rather than as
   string literals at each engine call site) makes the registry greppable
   and typo-proof. *)
module Key = struct
  let calls = "calls"
  let compiles = "compiles"
  let compiles_specialized = "compiles.specialized"
  let compiles_osr = "compiles.osr"
  let cache_hits = "cache.hits"
  let cache_misses = "cache.misses"
  let bailouts = "bailouts"
  let bailouts_entry = "bailouts.entry"
  let deopts = "deopts"
  let strike_discards = "discards.strikes"
  let blacklists = "blacklists"
  let osr_entries = "osr.entries"
  let arg_set_changes = "args.set_changes"
  let inlined = "inlined.sites"
  let guards_elided = "guards.elided"
  let compiles_aborted = "compiles.aborted"
  let quarantines = "quarantines"
  let pins = "quarantines.pinned"
  let storms = "deopt.storms"
  let cache_evictions = "cache.evictions"
  let versions_widened = "versions.widened"
  let versions_promoted = "versions.promoted"
  let compiles_widened = "compiles.widened"
  let interpro_facts = "interpro.facts"
  let interpro_seeded = "interpro.seeded"
  let deadlines = "deadlines"
  let compiles_degraded = "compiles.degraded"
  let bg_queued = "bg.queued"
  let bg_installed = "bg.installed"
  let bg_cancelled = "bg.cancelled"
  let bg_superseded = "bg.superseded"
  let bg_overflow = "bg.overflow"
  let bg_osr_entries = "bg.osr_entries"
  let bg_osr_stale = "bg.osr_stale"

  (* Per-point fired-fault counters ("faults.fired.exec_guard", ...). The
     argument is a [Faults.point_to_string] name; telemetry sits below the
     faults library, so the name crosses as a string. *)
  let faults_fired point = "faults.fired." ^ point
end

module Counters = struct
  type t = {
    nfuncs : int;
    totals : (string, int ref) Hashtbl.t;
    per_fid : (string, int array) Hashtbl.t;
  }

  let create ~nfuncs () =
    { nfuncs; totals = Hashtbl.create 16; per_fid = Hashtbl.create 16 }

  let total_ref t name =
    match Hashtbl.find_opt t.totals name with
    | Some r -> r
    | None ->
      let r = ref 0 in
      Hashtbl.replace t.totals name r;
      r

  let fid_array t name =
    match Hashtbl.find_opt t.per_fid name with
    | Some a -> a
    | None ->
      let a = Array.make (max t.nfuncs 1) 0 in
      Hashtbl.replace t.per_fid name a;
      a

  (* A per-function bump also maintains the global total, so
     [total c Key.compiles] is always the sum over functions. *)
  let bump ?(n = 1) t ~fid name =
    (fid_array t name).(fid) <- (fid_array t name).(fid) + n;
    let r = total_ref t name in
    r := !r + n

  let bump_global ?(n = 1) t name =
    let r = total_ref t name in
    r := !r + n

  let get t ~fid name =
    match Hashtbl.find_opt t.per_fid name with Some a -> a.(fid) | None -> 0

  let total t name =
    match Hashtbl.find_opt t.totals name with Some r -> !r | None -> 0

  let names t =
    List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.totals [])

  (* (name, total) rows, name-sorted — the --stats global table. *)
  let rows t = List.map (fun name -> (name, total t name)) (names t)

  (* Non-zero counters of one function, name-sorted. *)
  let fid_rows t fid =
    List.filter_map
      (fun name ->
        let v = get t ~fid name in
        if v = 0 then None else Some (name, v))
      (names t)
end

(* ------------------------------------------------------------------ *)
(* The hub: one per engine instance                                    *)
(* ------------------------------------------------------------------ *)

(* A span opened by [span_begin] and not yet closed: the request context
   is captured when it opens, its depth is its position in the stack. *)
type open_span = {
  os_name : string;
  os_cat : string;
  os_fid : int;
  os_fname : string;
  os_start : int;
  os_ctx : trace_ctx option;
}

(* Everything observing one engine (or one service isolate): its counter
   registry, the sinks attached to it, the stack of open lifecycle spans
   and the request trace context its spans stamp themselves with. A hub
   starts with no sinks and no context; observers attach to the hub of
   the engine they watch, at any time before or during its run. *)
type t = {
  counters : Counters.t;
  mutable sinks : sink list;
  mutable span_sinks : span_sink list;
  mutable open_spans : open_span list;
  mutable trace : trace_ctx option;
}

let create ~nfuncs () =
  {
    counters = Counters.create ~nfuncs ();
    sinks = [];
    span_sinks = [];
    open_spans = [];
    trace = None;
  }

let trace t = t.trace
let set_trace t ctx = t.trace <- ctx

let attach t sink = t.sinks <- t.sinks @ [ sink ]
let attach_span t sink = t.span_sinks <- t.span_sinks @ [ sink ]
let counters t = t.counters

(* Emission is allocation-free when nobody listens: callers guard event
   construction behind [active]. *)
let active t = t.sinks <> []
let emit t ev = List.iter (fun sink -> sink ev) t.sinks

(* Same contract for spans: every span function below is a no-op until a
   span sink is attached, so tracing off costs nothing. *)
let spans_active t = t.span_sinks <> []
let emit_span t sp = List.iter (fun sink -> sink sp) t.span_sinks

(* Begin/end bookkeeping over the model-cycle clock: an engine opens a
   span when it enters a lifecycle phase and closes it when the phase
   ends; closing emits a completed span (a Chrome-trace "X" event). *)
let span_begin t ~name ~cat ~fid ~fname ~now =
  if spans_active t then
    t.open_spans <-
      {
        os_name = name;
        os_cat = cat;
        os_fid = fid;
        os_fname = fname;
        os_start = now;
        os_ctx = t.trace;
      }
      :: t.open_spans

(* Ends the innermost open span. Unbalanced ends are a bug in the
   instrumentation, not in the workload: fail loudly. *)
let span_end ?(args = []) t ~now =
  if spans_active t then
    match t.open_spans with
    | [] -> invalid_arg "Telemetry.span_end: no open span"
    | os :: rest ->
      t.open_spans <- rest;
      emit_span t
        (make_span ~ctx:os.os_ctx ~ph:Ph_complete ~flow:0 ~depth:(List.length rest) ~args
           ~name:os.os_name ~cat:os.os_cat ~fid:os.os_fid ~fname:os.os_fname
           ~start:os.os_start ~dur:(now - os.os_start))

(* A retroactive span that leaves the stack alone (e.g. the bailout
   penalty, which is only known after it was charged). *)
let span_complete ?(args = []) t ~name ~cat ~fid ~fname ~start ~dur =
  if spans_active t then
    emit_span t
      (make_span ~ctx:t.trace ~ph:Ph_complete ~flow:0
         ~depth:(List.length t.open_spans) ~args ~name ~cat ~fid ~fname ~start ~dur)

(* One flow stitch: a Ph_flow_start on the requesting lane at enqueue, a
   Ph_flow_finish (same id) wherever the artifact lands. [trace] lets the
   finish side re-assert the *requesting* context (the harvest runs under
   some other request's lane). *)
let span_flow ?(args = []) ?trace t ~phase ~id ~name ~cat ~fid ~fname ~now =
  if spans_active t then
    emit_span t
      (make_span
         ~ctx:(match trace with Some _ -> trace | None -> t.trace)
         ~ph:(match phase with `Start -> Ph_flow_start | `Finish -> Ph_flow_finish)
         ~flow:id ~depth:(List.length t.open_spans) ~args ~name ~cat ~fid ~fname
         ~start:now ~dur:0)
