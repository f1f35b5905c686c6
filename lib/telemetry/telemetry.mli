(** Structured JIT telemetry.

    The paper's whole argument is about {e when} the engine compiles,
    specializes, bails out, deoptimizes and blacklists (§4, §6). This module
    makes those decisions first-class: the engine emits an {!event} at every
    policy transition, pluggable {!sink}s consume them ({!text_sink} for
    humans, {!jsonl_sink} for tools, any [event -> unit] for tests),
    lifecycle {!span}s record where the model cycles went, and a
    {!Counters} registry of named per-function/global counters is the
    single source of truth the engine report is derived from. All three
    live on one hub ({!t}) per engine: observers attach to it explicitly.

    The module carries only primitive payloads and sits below the IRs (like
    [Diag]), so any layer can emit through it without dependency cycles.
    Emission is free when no sink is attached — callers guard event
    construction behind {!active} — and counters never charge model cycles,
    so telemetry cannot perturb the paper's measurements. *)

type pass_delta = {
  pd_pass : string;  (** pipeline pass name *)
  pd_before : int;  (** MIR instructions entering the pass *)
  pd_after : int;  (** MIR instructions after it ran *)
}
(** Per-pass size attribution for one compilation. The model bills each
    pass the graph size it enters, so [pd_before] is the pass's cost
    weight and the compile charge is their sum. *)

type deopt_reason =
  | Arg_mismatch
      (** a call missed the specialization cache: discard, recompile
          generic, blacklist (the paper's §4 deoptimization) *)
  | Entry_guard
      (** a specialized binary's entry type barrier failed at pc 0 *)
  | Strike_limit
      (** in-body guard failures reached [max_bailouts] for one binary *)

type quarantine_reason =
  | Compile_fault
      (** a compilation aborted mid-pipeline: a verifier or lint diagnostic,
          or an injected [Faults] failure *)
  | Deopt_storm
      (** the function oscillated compile→bailout→recompile past the
          engine's storm threshold (8 binary discards) *)
  | Cache_oom  (** code-cache admission failed for the function's binary *)

(** The request-scoped identity the service layer threads from admission
    through queue wait, engine runs and background-compile lifecycles. It
    rides a hub ({!set_trace}): the service sets one per request on the
    isolate's hub and on the engine serving the request; events and spans
    that hub emits stamp themselves with it. Nothing reads the context
    unless an observer is attached, so setting it cannot perturb the
    model. *)
type trace_ctx = {
  tc_trace : int;  (** trace id — unique per request across the run *)
  tc_request : int;  (** the request id ([rq_id]) *)
  tc_tenant : int;
  tc_isolate : int;
}

(** What happened; the function, cycle and request are the {!event}
    header. *)
type what =
  | Compile_start of { specialized : bool; selective : bool; osr : bool }
  | Compile_end of {
      specialized : bool;
      selective : bool;
      osr : bool;
      size : int;  (** native instructions produced *)
      cycles : int;  (** model compile cycles charged *)
      passes : pass_delta list;  (** pipeline passes, in execution order *)
    }
  | Cache_hit of {
      index : int;  (** position found in the MRU-first cache list *)
      entries : int;  (** entries at probe time *)
    }
  | Cache_miss of { entries : int }
  | Specialize of {
      args : string;  (** display form of the burned-in tuple *)
      mask : bool array option;  (** selective: which positions burn in *)
    }
  | Deopt of { reason : deopt_reason }
  | Bailout of {
      pc : int;  (** bytecode pc interpretation resumes at *)
      native_pc : int;  (** native instruction that failed *)
      reason : string;
      osr_entry : bool;
      strikes : int;  (** strikes against the binary, after this one *)
    }
  | Blacklist
  | Osr_enter of { pc : int; loop_edges : int }
  | Inline_decision of { inlined : int }
  | Guard_elided of {
      guard : string;  (** "type" | "array" | "bounds" *)
      origin_fid : int;  (** function the guard originated in (inlining) *)
      pc : int;  (** bytecode pc of the guarded operation *)
    }
  | Compile_abort of {
      specialized : bool;
      osr : bool;
      reason : string;  (** the diagnostic (or injected fault) message *)
      cycles : int;  (** wasted compile cycles — still charged to the run *)
    }
  | Quarantine of {
      reason : quarantine_reason;
      backoff_calls : int;
          (** calls until compilation may be retried; 0 when permanent *)
      permanent : bool;  (** the function is pinned to the interpreter tier *)
    }
  | Cache_evict of {
      bytes : int;  (** bytes reclaimed; the header names the binary's owner *)
      in_use : int;  (** cache bytes in use after the eviction *)
    }
  | Version_widen of {
      index : int;  (** the widened version's position (MRU-first) *)
      from_key : string;  (** display form of the key it had *)
      to_key : string;  (** display form of the replacement key *)
      entries : int;  (** cache entries before the widening *)
    }
      (** polyvariant policy: a version was replaced by a one-step-wider
          one (values → tags, tags → generic) instead of being discarded *)
  | Deadline_hit of {
      spent : int;  (** model cycles spent in the run when it tripped *)
      limit : int;  (** the run's cycle budget *)
    }
      (** a cooperative deadline expired mid-dispatch (the header names the
          function whose dispatch observed it); the engine raises
          [Engine.Deadline_exceeded] immediately after emitting, so the
          event appears exactly once per tripped run *)
  | Compile_enqueue of {
      kind : string;
          (** queued signature flavor: ["values"], ["selective"],
              ["tags"] or ["generic"] *)
      osr : bool;  (** the request carries an OSR entry snapshot *)
      ready : int;  (** modeled completion cycle *)
      depth : int;  (** queue occupancy after the enqueue *)
    }
      (** a hot-call site handed a compile request to the background
          queue and kept interpreting *)
  | Compile_ready of {
      size : int;  (** native instructions installed *)
      cycles : int;  (** off-clock compile cycles the artifact cost *)
      wait : int;  (** model cycles from enqueue to harvest *)
    }
      (** a finished background artifact was installed into the version
          cache (emitted at the harvesting call/loop edge) *)
  | Compile_cancel of {
      reason : string;
          (** ["overflow"], ["degrade"], ["recycle"], ["install-fault"]
              or ["enqueue-fault"] *)
    }
      (** a queued request was dropped before installing *)
  | Osr_entry of { pc : int }
      (** a hot interpreter loop transferred into a finished background
          binary at its loop head (distinct from [Osr_enter], which marks
          the synchronous OSR {e trigger}) *)

type event = {
  fid : int;  (** the function the decision is about *)
  fname : string;
  at : int;  (** the emitting engine's model-cycle clock at emission *)
  ctx : trace_ctx option;  (** the hub's {!trace} at emission (shared) *)
  what : what;
}
(** One policy decision with its header, stamped once by {!emit}. *)

val event_kind : what -> string
(** Stable snake_case tag, e.g. ["cache_hit"] (the JSON ["ev"] field). *)

val to_string : event -> string
(** One human-readable line (the [--trace] format). The header's [at] and
    [ctx] are not printed. *)

val to_json : event -> string
(** One JSON object, no trailing newline (the JSONL format); like
    {!to_string}, without [at] and [ctx]. *)

val json_escape : string -> string
(** RFC 8259 string-body escaping: double quote and backslash always, the
    short forms [\b \t \n \f \r], and [\u00XX] for every remaining control
    character (everything below [0x20], including the whole [<0x10]
    range). A string with nothing to escape is returned itself, with no
    allocation. *)

val json_unescape : string -> string
(** Inverse of {!json_escape} (accepts any escape {!json_escape} emits,
    plus [\/]; [\uXXXX] must encode a single byte).
    @raise Invalid_argument on a malformed escape. *)

(** {1 Lifecycle spans} *)

(** Chrome trace-event phase: complete lifecycle intervals, or the flow
    start/finish stitches that tie one request's background compile from
    its enqueue (on the requesting lane) to its install (on whatever
    request harvests it). *)
type span_ph = Ph_complete | Ph_flow_start | Ph_flow_finish

type span_site = {
  site_name : string;  (** e.g. ["interpret"], ["pass:gvn"], ["native"] *)
  site_cat : string;
      (** taxonomy bucket: [interp], [compile], [pass], [codegen],
          [native], [bailout] *)
  site_fid : int;
  site_fname : string;
}
(** Where a span happened: one lifecycle phase of one function. A hub
    interns one site per (function, phase) while spans are active, and
    every span of that phase points to it. *)

type span_note = {
  note_ctx : trace_ctx option;
      (** the request context the hub held (shared, not copied); [None]
          renders as lane 1 of process 1 *)
  note_ph : span_ph;
  note_flow : int;  (** flow id tying a start to its finish; 0 = none *)
  note_args : (string * string) list;
      (** extra Chrome-trace args: (key, already-rendered JSON value) *)
}
(** What a span says beyond where and when. Every complete args-free span
    a hub emits under one request context shares one note. *)

type span = {
  sp_site : span_site;
  sp_start : int;  (** model-cycle timestamp at which the phase began *)
  sp_dur : int;  (** model cycles spent in the phase *)
  sp_depth : int;  (** nesting depth when the span was opened (0 = root) *)
  sp_note : span_note;
}
(** A completed engine-lifecycle interval on the deterministic model-cycle
    clock (never wall time: traces are byte-reproducible): its site,
    three ints and its note. *)

type span_sink = span -> unit

val span_trace : span -> int
(** Requesting trace id, rendered as the Perfetto tid (the request lane);
    0 = no request context. *)

val add_span_chrome_json : Buffer.t -> span -> unit
(** Append one Chrome trace-event object (["ph":"X"] for complete spans,
    ["s"]/["f"] with a shared ["id"] for flow stitches); a file of these
    wrapped as [{"traceEvents":[...]}] loads in Perfetto. *)

val output_chrome_trace : out_channel -> span list -> unit
(** Write the spans as a Chrome trace-event file: the wrapper and one
    event per line, each rendered as it is written. *)

(** {1 Sinks} *)

type sink = event -> unit

val text_sink : ?prefix:string -> out_channel -> sink
(** Writes [prefix ^ to_string ev] per event and flushes (default prefix
    ["[jit] "]). *)

val jsonl_sink : out_channel -> sink
(** Writes [to_json ev] per event, newline-terminated, unflushed. *)

(** {1 Counters} *)

(** Canonical counter names bumped by the engine. *)
module Key : sig
  val calls : string
  val compiles : string
  val compiles_specialized : string
  val compiles_osr : string
  val cache_hits : string
  val cache_misses : string
  val bailouts : string
  val bailouts_entry : string

  val deopts : string
  (** §4 deoptimizations: [Arg_mismatch] + [Entry_guard] (not strike
      discards, which recompile with the same rights) *)

  val strike_discards : string
  val blacklists : string
  val osr_entries : string
  val arg_set_changes : string
  val inlined : string
  val guards_elided : string

  val compiles_aborted : string
  (** compilations that aborted mid-pipeline (contained, cycles charged) *)

  val quarantines : string
  (** quarantine entries (with backoff); includes the final pinning one *)

  val pins : string
  (** functions pinned to the interpreter tier permanently *)

  val storms : string
  (** deopt-storm detector trips *)

  val cache_evictions : string
  (** binaries evicted by the code-cache byte budget *)

  val versions_widened : string
  (** polyvariant ladder steps: versions replaced by a wider key *)

  val versions_promoted : string
  (** tier-2 promotions: specialized versions compiled alongside a
      still-hot function's generic catch-all *)

  val compiles_widened : string
  (** compilations of tag-keyed (widened) versions *)

  val interpro_facts : string
  (** constant argument signatures recorded at monomorphic call sites of
      compiled callers (attributed to the callee) *)

  val interpro_seeded : string
  (** value-specialization decisions covered by an interprocedural
      constant signature *)

  val deadlines : string
  (** cooperative deadline expiries ([Deadline_hit] events) *)

  val compiles_degraded : string
  (** compilations forced to the baseline pipeline by overload degrade
      mode (the service layer shedding specialization before requests) *)

  val bg_queued : string
  (** background compile requests admitted to the queue *)

  val bg_installed : string
  (** background artifacts harvested and installed into the cache *)

  val bg_cancelled : string
  (** queued requests dropped before installing (degrade drain, isolate
      recycle, injected faults) *)

  val bg_superseded : string
  (** installed versions detached because a queued recompile at a wider
      signature landed (the re-specialization drift loop) *)

  val bg_overflow : string
  (** enqueues refused because the queue was at [--compile-queue-depth] *)

  val bg_osr_entries : string
  (** loop-edge transfers into finished background binaries *)

  val bg_osr_stale : string
  (** OSR-flavored artifacts whose entry was refused because the live
      frame no longer matched the enqueue snapshot (the binary still
      installs for normal calls) *)

  val faults_fired : string -> string
  (** [faults_fired point_name] is the per-point injected-fault counter
      name, e.g. ["faults.fired.exec_guard"]. The argument is a
      [Faults.point_to_string] name (telemetry sits below the faults
      library, so the point crosses as a string). *)
end

(** Named monotonic counters, per-function and global. A per-function
    {!Counters.bump} also maintains the global total, so totals are always
    the sum over functions. Reads of a name never bumped return 0. *)
module Counters : sig
  type t

  val bump : ?n:int -> t -> fid:int -> string -> unit
  val bump_global : ?n:int -> t -> string -> unit
  val get : t -> fid:int -> string -> int
  val total : t -> string -> int

  val rows : t -> (string * int) list
  (** (name, global total), name-sorted. *)

  val fid_rows : t -> int -> (string * int) list
  (** One function's non-zero counters, name-sorted. *)

end

(** {1 The hub}

    One [t] per engine instance (and one per service isolate): its counter
    registry, the sinks observing it, its stack of open lifecycle spans
    and its request trace context. A hub starts with no sinks. Observers
    attach to the hub of the engine they watch — [Engine.telemetry] after
    [Engine.make] — at any point before or during a run. *)

type t

val create : nfuncs:int -> unit -> t
(** A fresh hub with an empty registry, no sinks and no trace context. *)

val trace : t -> trace_ctx option
(** The request this hub's events and spans are attributed to. *)

val set_trace : t -> trace_ctx option -> unit
(** Attribute what the hub emits from now on to [ctx] ([None]: to no
    request). *)

val attach : t -> sink -> unit
(** Add an event sink; it receives every event emitted from now on. *)

val attach_span : t -> span_sink -> unit
(** Add a span sink; spans begun from now on are delivered to it. *)

val counters : t -> Counters.t

val active : t -> bool
(** [true] when at least one sink is attached. Emitters guard event
    construction behind this so disabled telemetry allocates nothing. *)

val emit : t -> fid:int -> fname:string -> at:int -> what -> unit
(** Deliver [what] to every sink, stamped with the function, the model
    cycle [at] and the hub's {!trace}. *)

val spans_active : t -> bool
(** [true] when at least one span sink is attached. Every span function
    below is a no-op otherwise, so tracing off charges nothing and
    allocates nothing. *)

val emit_span : t -> span -> unit
(** Deliver an already-built span to the attached span sinks (how a
    service isolate forwards its engines' spans into its own stream). *)

(** {2 Spans}

    Begin/end bookkeeping over the model-cycle clock ([now], [start]: the
    caller's clock reading). Every span is stamped with the hub's
    {!trace} — for a begun span, the one set when it opened. *)

val span_begin : t -> name:string -> cat:string -> fid:int -> fname:string -> now:int -> unit
(** Open a span entering a lifecycle phase. *)

val span_end : ?args:(string * string) list -> t -> now:int -> unit
(** Close the innermost open span, emitting it with [dur = now - start]
    and its depth in the stack (0 = root).
    @raise Invalid_argument when spans are active and no span is open. *)

val span_complete :
  ?args:(string * string) list ->
  t ->
  name:string ->
  cat:string ->
  fid:int ->
  fname:string ->
  start:int ->
  dur:int ->
  unit
(** Emit a retroactive span without touching the stack (e.g. the bailout
    penalty, known only after it was charged); its depth is the current
    stack depth. *)

val span_flow :
  ?args:(string * string) list ->
  ?trace:trace_ctx ->
  t ->
  phase:[ `Start | `Finish ] ->
  id:int ->
  name:string ->
  cat:string ->
  fid:int ->
  fname:string ->
  now:int ->
  unit
(** Emit one side of a Perfetto flow stitch ([ph:"s"]/[ph:"f"] sharing
    [id]). [trace] overrides the hub's context on the finish side, so a
    background compile's install is attributed back to the request that
    enqueued it, whichever request harvests it. *)
