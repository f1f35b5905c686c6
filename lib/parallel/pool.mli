(** Fork-join task pool on OCaml 5 domains, with a deterministic merge.

    The harness, the lint sweep and the fuzzers fan their independent
    (workload, configuration) / seed cells out over one of these pools.
    The contract that makes that safe to do blindly:

    - {b Determinism.} [map pool f xs] returns exactly what
      [List.map f xs] would: results are collected as (index, result)
      pairs and merged in index order, and the first failure {e by index}
      is re-raised after the batch drains. Scheduling affects wall-clock
      time only; every table, figure and JSONL byte is identical at any
      [--jobs].
    - {b Self-contained tasks.} Ambient VM context ({!Support.Tls} slots:
      print hook, PRNG, pipeline checks, fault plans, the request trace
      context, diagnostic hooks) does not cross into pool tasks. A task that needs
      context installs it itself ([Runner.quiet], [Pipeline.with_checks],
      [Faults.with_plan], ...).
    - {b Nested fan-out.} A task may itself call [map] on the same pool:
      joining participants help drain the shared queue instead of
      blocking, so the pool cannot deadlock on nested submission.
    - {b Serial escape hatch.} A 1-job pool runs everything inline on the
      caller — no domains are spawned, nothing is enqueued. *)

type t

val create : jobs:int -> t
(** A pool with [jobs] participants total: the calling domain plus
    [jobs - 1] spawned worker domains ([jobs] is clamped to at least 1). *)

val jobs : t -> int

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** Run [f] over every element, in parallel, preserving list order.
    Re-raises the smallest-index failure (with its backtrace) after all
    tasks have finished. *)

val mapi : t -> (int -> 'a -> 'b) -> 'a list -> 'b list

val shutdown : t -> unit
(** Drain the queue, stop and join the workers. Idempotent. *)

(** {1 Fire-and-forget submissions}

    The background-compile queue ([lib/bgcompile]) runs on these: one job
    per compile request, queued behind every [map] task so harness [map]
    batches are never starved by speculative compiles (a running job is
    never preempted). Unlike [map] there is no implicit join — the
    submitter keeps going and later awaits or cancels through the
    ticket. *)

type ticket
(** Handle to one submitted job. *)

val submit : t -> (unit -> unit) -> ticket
(** Enqueue one job without joining on it, behind every queued [map]
    task. The closure must capture its own result and must not raise. On
    a 1-job pool the job runs inline before [submit] returns (the serial
    escape hatch, keeping 1-job runs free of queue traffic). *)

val cancel : t -> ticket -> bool
(** Try to cancel: succeeds (returns [true]) only while the job is still
    [Pending] — it is then dropped unrun at its next pop. A [Running] or
    [Done] job is left alone ([false]). *)

val await : t -> ticket -> unit
(** Block until the job is [Done] (or was successfully cancelled),
    helping drain other queued work in the meantime — the awaited job may
    end up executed by the awaiting domain itself. Completion is
    published under the pool mutex, so results written by the job are
    safe to read after [await] returns. *)

(** {1 Utilization stats} *)

type stats = {
  st_jobs : int;
  st_tasks : int array;
      (** tasks executed per participant: index 0 = helping submitters,
          index [i >= 1] = worker [i] *)
  st_steals : int;
      (** tasks executed by a domain other than the one that submitted
          them — parallelism actually realized *)
  st_joins : int;  (** [map] batches joined *)
  st_join_wait : float;  (** total wall-clock seconds spent inside joins *)
}

val stats : t -> stats

(** {1 The process-default pool}

    Created lazily on first use. Size: [--jobs]/{!set_default_jobs} if
    given, else the [VS_JOBS] environment variable, else the hardware
    parallelism capped at 8. *)

val default : unit -> t

val set_default_jobs : int -> unit
(** Pin the default pool's size (the [--jobs] flag of the CLIs). Replaces
    an already-created default pool of a different size. *)

val default_jobs : unit -> int

val peek_default : unit -> t option
(** The default pool if one has been created, without creating one —
    for end-of-run utilization reporting. *)
