(** Deterministic fault injection (the chaos layer).

    A {!plan} is a seeded schedule of mechanism failures over named
    injection {!point}s: the compile-pipeline diagnostics barrier, the
    LIR code verifier, the native executor's guards, and code-cache
    admission. The engine and the executor consult {!fire} at each
    point; the installed plan decides — deterministically, from its
    seed and per-point occurrence counts — whether that occurrence
    fails. With no plan installed, {!fire} is a single [ref] read that
    returns [false]: the layer costs zero model cycles and allocates
    nothing, so the paper's measurements cannot be perturbed (asserted
    by the cycle-invariance test in [test/test_faults.ml]).

    The module sits at the bottom of the dependency stack (it depends
    only on [support]) so both the engine and the native executor can
    consult it without cycles. Plans never change program semantics by
    themselves: every injected failure lands on a path the engine
    already treats as fallible (compile abort → quarantine, guard
    failure → bailout, admission failure → interpret), which is exactly
    the invariant the chaos fuzzer checks ([Fuzz_diff.check_chaos]):
    under any fault schedule the run terminates with the pure
    interpreter's observable output. *)

(** The named injection points.

    Occurrence counting is per point, within one installed plan:
    - [Compile_diag]: one occurrence per compilation reaching the
      post-pipeline diagnostics barrier; firing raises a synthetic
      [Diag.Failed] there (as if a lint check had rejected the graph).
    - [Code_verify]: one occurrence per compilation reaching the LIR
      verifier; firing rejects the (valid) binary.
    - [Exec_guard]: one occurrence per {e passing} guard evaluation in
      native code (failing guards already bail); firing forces the
      guard's bailout path, snapshot and all.
    - [Cache_oom]: one occurrence per code-cache admission; firing
      makes admission report an exhausted cache.
    - [Version_widen]: one occurrence per polyvariant version widening
      (the PR-7 repurpose/widen path); firing makes the widening
      compile unavailable — the engine quarantines the function instead
      and leaves the existing cache entries untouched.
    - [Serve_admit]: one occurrence per service-layer admission check;
      firing forces the request to be shed as if the queue were full.
      Never consulted by plain engine runs.
    - [Serve_deadline]: one occurrence per service-layer request
      attempt; firing forces the attempt to miss its deadline. Never
      consulted by plain engine runs.
    - [Bg_enqueue]: one occurrence per background-compile enqueue
      attempt; firing makes the enqueue fail (the request is dropped and
      the call site keeps interpreting). Never consulted with
      [--bg-compile] off.
    - [Bg_install]: one occurrence per background artifact reaching its
      install point; firing drops the finished artifact — the engine
      re-enqueues the request with doubled modeled cost (backoff) until
      the engine's compile-retry cap, then quarantines. Never consulted with
      [--bg-compile] off. *)
type point =
  | Compile_diag
  | Code_verify
  | Exec_guard
  | Cache_oom
  | Version_widen
  | Serve_admit
  | Serve_deadline
  | Bg_enqueue
  | Bg_install

val all_points : point list
(** Every point, in the order {!sample} draws rules for them. *)

(** When a rule fires, in terms of its point's occurrence count [n]
    (1-based): [Nth k] fires exactly once, at [n = k]; [Every k] fires
    at every multiple of [k]; [Prob p] fires each occurrence with
    probability [p], drawn from the plan's seeded PRNG. *)
type mode = Nth of int | Every of int | Prob of float

type spec = (point * mode) list
(** At most one rule per point is consulted (the first match wins). *)

type plan
(** A spec armed with mutable occurrence counters and a seeded PRNG.
    Plans are single-use state: re-arm with {!with_plan} (which installs
    a fresh copy) or rebuild with {!make} to replay one. *)

val make : seed:int -> spec -> plan
val plan_spec : plan -> spec
(** The spec [plan] was made from. *)

val sample : int -> plan
(** [sample seed] draws a random plan — each point independently gets
    no rule or a random [Nth]/[Every]/[Prob] rule — deterministically
    from [seed]. The chaos fuzzer pairs [sample seed] with the program
    generated from the same seed, so one integer replays a failing
    (program, fault-plan) pair exactly ([jsvm --chaos SEED]). *)

val point_to_string : point -> string
val describe : plan -> string
(** E.g. ["seed=7 compile_diag:nth(2) exec_guard:prob(0.25)"]. *)

(** {1 The installed plan} *)

val install : plan option -> unit
(** Replace the (global) installed plan; [None] disables injection. *)

val installed : unit -> plan option
val active : unit -> bool

val fire : point -> bool
(** Count one occurrence of [point] against the installed plan and
    report whether it must fail. [false] — without counting — when no
    plan is installed. *)

val with_plan : plan -> (unit -> 'a) -> 'a
(** Run with a {e fresh copy} of the plan installed (occurrence
    counters and PRNG reset), restoring the previous installation on
    exit — exception-safe, so one chaotic run cannot leak faults into
    the next. *)

(** {1 Fired-fault observation}

    A plan that never triggers passes a chaos run silently; the hook
    lets the harness assert injected faults actually fired. It is
    domain-local and consulted only when {!fire} decides to fail an
    occurrence, so the disabled-layer cost is unchanged. *)

val with_fired_hook : (point -> unit) -> (unit -> 'a) -> 'a
(** Install a hook for the extent of the callback, restoring the
    previous one on exit (exception-safe). *)
