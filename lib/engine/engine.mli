(** The just-in-time engine: the SpiderMonkey/IonMonkey interplay of the
    paper's Figure 5 plus the specialization policy of its Section 4.

    Functions start in the interpreter. A function that crosses the hot-call
    threshold is compiled on its next invocation; a loop that crosses the
    back-edge threshold triggers compilation with an on-stack-replacement
    entry and execution resumes natively mid-function. With specialization
    enabled, the compiler bakes the current arguments into the code and the
    engine caches that argument tuple: a later call with the same arguments
    (compared by {!Runtime.Value.same_value}) reuses the binary; a call
    with different arguments discards it, recompiles generic code
    immediately, and blacklists the function from further specialization.
    Failing guards bail out to the interpreter through resume-point
    snapshots; a binary's [max_bailouts]-th in-body guard failure discards
    it for recompilation with refreshed type feedback (strikes are counted
    per binary, so one cache entry's failures never condemn another's).

    Time is measured in deterministic model cycles (see {!Cost}): the
    report splits interpretation, native execution and compilation, which
    is exactly the decomposition Figure 9 needs.

    Every policy transition — compilation, cache probe, specialization,
    bailout, deoptimization, blacklisting, OSR entry — is published through
    {!Telemetry}: counters always (the report is derived from them), events
    when a sink is attached ([jsvm --trace], the ring buffer in tests). *)

type config = {
  opt : Pipeline.config;
  jit : bool;  (** false: pure interpretation (for differential testing) *)
  hot_calls : int;  (** invocations before a function is deemed hot *)
  hot_loop_edges : int;  (** loop-head visits before OSR kicks in *)
  max_bailouts : int;
      (** in-body guard failures a binary survives: it is discarded at its
          [max_bailouts]-th strike *)
  cache_size : int;
      (** specialized binaries cached per function. 1 is the paper's policy
          ("we cache only one binary per function", §6); larger values
          implement the future-work experiment: the cache first fills with
          further specialized versions before a miss deoptimizes. *)
  policy : Policy.kind;
      (** which specialization policy decides keying, cache misses and
          blacklisting. {!Policy.Paper} reproduces the pre-policy engine
          byte for byte; {!Policy.Polyvariant} widens versions along the
          [values → tags → generic] ladder instead of discarding them (see
          {!Policy}). *)
  selective : bool;
      (** selective specialization (extension): burn in only the arguments
          observed value-stable across every call so far. A cache miss then
          narrows the burned-in set to the still-stable positions and
          respecializes instead of blacklisting; since stability is sticky,
          a function respecializes at most [arity] times before settling on
          its stable core (or generic code). *)
  code_cache_bytes : int;
      (** global code-cache byte budget across all functions, with
          cross-function LRU eviction on admission; 0 = unbounded. A binary
          occupies [Cost.bytes_per_native_instr] bytes per native
          instruction. *)
  max_depth : int;
      (** MiniJS call-depth limit; deeper recursion raises
          [Runtime_error "stack overflow"] (a MiniJS-level error, not an
          OCaml crash) *)
  deadline : int;
      (** cooperative per-{!run} model-cycle budget; 0 (the default)
          disables the check entirely — the executors get no deadline
          hook and every run is byte-identical to a deadline-free
          engine. When positive, dispatch checks the clock per
          instruction (interpreter and native alike) against
          [clock-at-entry + deadline] and raises {!Deadline_exceeded}
          once over budget, after emitting one [Telemetry.Deadline_hit]
          event and bumping the [Telemetry.Key.deadlines] counter. The budget is relative to
          the clock at [run] entry, so a warm engine gets a fresh budget
          per request. Compilation itself is not interrupted — the very
          next dispatched instruction observes the compile-charged
          clock. *)
  bg_compile : bool;
      (** background tiered compilation: hot-call sites and loop edges
          enqueue compile requests on a bounded queue and keep
          interpreting instead of blocking on the compiler. Artifact
          visibility follows a deterministic completion model — enqueue
          cycle plus {!Cost.bg_compile_cost} through a single-server FIFO
          ({!Bgcompile}) — so results are byte-identical at any [--jobs];
          with [--jobs > 1] the actual compile runs on a pool domain
          overlapped with interpretation (wall-clock only). Finished
          binaries are harvested at call boundaries; a loop still hot
          when its OSR-flavored artifact lands transfers into it at the
          next loop edge. Background compile cycles are charged to the
          off-clock [bg_compile_cycles] report field, never to the model
          clock: with [bg_compile = false] (the default) the engine is
          byte-identical to one predating the queue. *)
  bg_queue_depth : int;
      (** in-flight background compile requests admitted before further
          requests are dropped ([bg.overflow]); clamped to at least 1 *)
}

val default_config :
  ?opt:Pipeline.config ->
  ?policy:Policy.kind ->
  ?cache_size:int ->
  ?selective:bool ->
  ?code_cache_bytes:int ->
  ?max_depth:int ->
  ?deadline:int ->
  ?bg_compile:bool ->
  ?bg_queue_depth:int ->
  unit ->
  config
(** Defaults: [jit = true], [hot_calls = 10], [hot_loop_edges = 40],
    [max_bailouts = 3], [policy = Policy.Paper], [cache_size = 1],
    [selective = false], baseline pipeline, [code_cache_bytes = 0]
    (unbounded), [max_depth = Interp.default_max_depth], [deadline = 0]
    (no deadline), [bg_compile = false] (synchronous compilation),
    [bg_queue_depth = 8].

    Two failure-domain limits are engine constants, not config: a
    function may accumulate 3 compile failures (aborted compilations,
    cache-admission failures, deopt storms), each quarantining it with
    exponential backoff — the [n]-th defers the next compile attempt by
    [hot_calls * 2^n] further calls and scales the OSR loop-edge
    threshold by the same factor — before the next one pins it to the
    interpreter tier for good; and 8 binary discards (entry-guard bails
    and strike limits) trip the deopt-storm detector, which counts as
    one such failure. *)

val interp_only : config

type func_report = {
  fr_fid : int;
  fr_name : string;
  fr_calls : int;
  fr_compiles : int;  (** total compilations (entry or OSR) *)
  fr_was_specialized : bool;
  fr_deoptimized : bool;  (** specialized binary discarded on arg mismatch *)
  fr_bailouts : int;
  fr_sizes : (bool * int) list;  (** (specialized?, native size) per compile *)
  fr_arg_set_changes : int;  (** distinct-argument observations (§2 data) *)
  fr_last_arg_tags : Runtime.Value.tag list;
      (** runtime tags of the last argument tuple (Figure 4 data) *)
}

type report = {
  result : Runtime.Value.t;
  interp_cycles : int;
  native_cycles : int;
  compile_cycles : int;
  bg_compile_cycles : int;
      (** compile work done by the background compiler ([bg_compile]) —
          deliberately absent from [total_cycles]: that absence is the
          synchronous compile stall removed from the hot path *)
  total_cycles : int;
  bytecode_instrs : int;  (** interpreter instructions executed *)
  functions : func_report list;
  compilations : int;
  recompilations : int;  (** compilations beyond each function's first *)
  specialized_funcs : int;  (** functions ever compiled specialized *)
  successful_funcs : int;  (** specialized and never deoptimized *)
  deoptimized_funcs : int;
}

(** {2 Compile observation hooks}

    These compile-side hooks are domain-local ({!Support.Tls}): a lint or
    trace closure installed by one pool task is invisible to engine runs
    on other domains, so hooks never race and never leak across harness
    cells. Execution observers (profile attribution, the deadline) are
    per-engine instead: see {!attach_profile} and [config.deadline]. *)

val set_mir_hook : (Mir.func -> unit) option -> unit
(** Called with every optimized MIR graph just before lowering
    ([jsvm --dump-mir]); [None] (the default) in normal operation. *)

val with_mir_hook : (Mir.func -> unit) -> (unit -> 'a) -> 'a
(** Run with the MIR hook temporarily installed on this domain. *)

val with_diag_warn_hook : (Diag.t -> unit) -> (unit -> 'a) -> 'a
(** Run with a warning sink for the lint layer temporarily installed on
    this domain: when {!Pipeline.checks} is on, the
    specialization-soundness checker's warnings are delivered to it
    (dropped when none is installed). *)

val set_diag_abort_hook : (Diag.t -> unit) option -> unit
(** Called with every diagnostic that aborts a mid-run compilation — a
    verifier/lint error or an injected {!Faults} failure — just before the
    engine recovers (charges the wasted cycles, emits
    [Telemetry.Compile_abort], quarantines the function and falls back to
    the interpreter). {!Diag.Failed} never escapes {!run}: this hook is how
    the lint tooling still observes mid-run IR corruption. [None] drops
    them. *)

val with_diag_abort_hook : (Diag.t -> unit) -> (unit -> 'a) -> 'a
(** Run with the abort sink temporarily installed on this domain. *)

exception Runtime_error of string

exception
  Deadline_exceeded of {
    dl_fid : int;  (** function whose dispatch observed the expiry *)
    dl_pc : int;  (** pc at the trip (bytecode or native, per tier) *)
    dl_spent : int;  (** model cycles spent in the run when it tripped *)
    dl_limit : int;  (** the run's [config.deadline] budget *)
  }
(** A cooperative deadline expired mid-dispatch (see [config.deadline]).
    Escapes {!run} after exactly one [Telemetry.Deadline_hit] emission;
    the service layer converts it into a clean request failure. Never
    raised when [deadline] is 0. *)

type t
(** A live engine instance: program, per-function JIT state, cycle
    accumulators and the telemetry hub. *)

val make : config -> Bytecode.Program.t -> t
(** Verify the bytecode ({!Bc_verify}) and set up a fresh engine. Its
    telemetry hub starts with no sinks. *)

val telemetry : t -> Telemetry.t
(** The engine's telemetry hub — attach event and span sinks to it (before
    or during {!run}), read the counter registry after. *)

val attach_profile : t -> Profile.Recorder.t -> unit
(** Attribute this engine's model cycles to [r] from now on: every
    interpreted instruction, native charge and compile-stage charge, plus
    the native-op counts. The engine passes the recorder's hooks to the
    executors in the callback records it builds for each run, so other
    engines on the same domain are never charged to it. Attached before
    the first {!run}, [Profile.Recorder.total_cycles r] equals the
    report's [total_cycles]. *)

val clock : t -> int
(** The deterministic model-cycle clock: interpreter + native + compile
    cycles so far. Monotone across {!run}s on a warm engine; the service
    layer measures per-request latency as clock deltas. *)

val cycle_split : t -> int * int * int
(** [(interp, native, compile)] model cycles so far — the clock's tier
    decomposition, for warm/cold tail attribution around requests. *)

val set_degrade : t -> bool -> unit
(** Overload degrade mode (the service layer's shed-specialization-
    before-shed-requests switch). While on: the policy view reports
    "don't specialize" (so hot compiles, promotions and OSR pick generic
    keys), every new compile takes {!Policy.overload_opt} (the quick
    baseline schedule; counted under [Telemetry.Key.compiles_degraded]),
    and a cache miss interprets instead of deoptimizing — the warm cache
    and the blacklist bits survive the overload untouched. Installed
    binaries keep serving. With [bg_compile], entering degrade also drains
    the background queue (every in-flight request cancelled, reason
    ["degrade"]) and suppresses further enqueues until degrade clears.
    Off (the default) the engine is byte-identical to one without the
    switch. *)

val degraded : t -> bool

val drain_bg : t -> int
(** Cancel every in-flight background compile request (reason
    ["recycle"]), returning how many were dropped. Pool jobs that have
    not started are cancelled; started ones are abandoned — nothing
    installs without passing through the queue, so no artifact can leak
    into a later tenant. The service layer calls this on isolate recycle.
    0 when [bg_compile] is off. *)

val bg_in_flight : t -> int
(** In-flight background compile requests (enqueued, not yet harvested);
    0 when [bg_compile] is off. *)

val flush_flows : t -> unit
(** Trace teardown: close the Perfetto flow of every still-queued
    background job (cancelling the job) without bumping any counter or
    emitting any event — a traced run's summary must stay byte-identical
    to an untraced one, and the flow balance check requires one finish
    per start even for compiles the run ended before harvesting. No-op
    while no span sink is attached, or without [bg_compile]. *)

val run : t -> report
(** Execute the program's main function to completion. Compilation is a
    contained failure domain: a verifier diagnostic, an injected fault or
    any other exception but [Out_of_memory] raised mid-compile aborts that
    compilation (quarantining the function) instead of escaping — the
    exceptions [run] raises for a MiniJS-level problem are
    {!Runtime_error} and (with a deadline configured)
    {!Deadline_exceeded}. *)

val run_program : config -> Bytecode.Program.t -> report
val run_source : config -> string -> report
(** Parse, compile to bytecode and run under the engine.
    @raise Runtime_error on JS-level errors. *)
