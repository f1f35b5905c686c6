(** Pluggable specialization policies.

    The engine owns the *mechanism* of the version cache — compiling,
    installing, probing, detaching, charging cycles, emitting telemetry —
    and delegates every *decision* about what to compile and what to do on
    a cache miss to this module. Two policies exist:

    - {!Paper}: the paper's §4 policy, exactly as before this module was
      extracted. One specialized binary per function (generalized by
      [cache_size] to a fill-then-deoptimize cache, §6): the first miss
      after the cache is full discards everything, recompiles generic code
      and blacklists the function from further specialization. Selective
      specialization composes as before (narrow to the stable positions
      instead of blacklisting).

    - {!Polyvariant}: a multi-entry version cache keyed by argument
      signatures, after "Interprocedural Type Specialization of JavaScript
      Programs Without Type Analysis" (see PAPERS.md). Versions sit on a
      widening ladder [values → tags → generic]: the second mismatching
      tuple for a value signature widens that version to its type tags
      rather than discarding it, and a miss against a full cache widens
      the least-recently-used version one step toward generality. Each
      slot can widen at most twice before it is fully generic (which
      matches every call), so cache churn per function is bounded without
      the paper's blacklist. Compilation is tiered: the hot-call compile
      is a quick generic catch-all (baseline pipeline), and a function
      that stays hot is later {e promoted} — a specialized version,
      compiled with the full pipeline, is installed alongside the
      catch-all. Two admission heuristics pick the promoted version's
      key: an argument tuple matching a constant signature some
      specialized caller passes at a monomorphic call site is
      value-specialized (the interprocedural facts make the callee's body
      fold, and such tuples skip the generic tier entirely); a function
      whose observed tuples essentially never repeat is tag-specialized,
      skipping the doomed value version. *)

type kind = Paper | Polyvariant

val kind_to_string : kind -> string
val kind_of_string : string -> kind option
val all_kinds : kind list

val key_rank : Spec_key.t -> int
(** Position on the widening ladder: values 0, tags 1, generic 2. *)

val widen : Spec_key.t -> Runtime.Value.t array -> Spec_key.t option
(** One step up the widening ladder, keyed to serve [args]:
    values → the tag signature of [args], tags → generic, generic → [None]
    (nothing wider exists). *)

(** What a policy may look at when deciding (a read-only projection of the
    engine's per-function state). *)
type view = {
  pv_cache_size : int;
  pv_selective : bool;
  pv_want_specialize : bool;
      (** specialization enabled and the function not blacklisted *)
  pv_calls : int;
  pv_arg_set_changes : int;  (** §2 statistic: observed argument-set changes *)
  pv_keys : Spec_key.t list;  (** installed versions, most recently used first *)
  pv_anticipated : Runtime.Value.t array list;
      (** constant argument signatures observed at monomorphic call sites
          inside already-compiled callers (interprocedural facts) *)
}

(** How to key a fresh version. *)
type spec_choice =
  | Spec_values  (** burn in the actual argument values (§4) *)
  | Spec_selective  (** burn in only the value-stable positions *)
  | Spec_tags  (** burn in only the runtime type tags *)
  | Spec_generic  (** no specialization *)

val choose_hot : kind -> view -> args:Runtime.Value.t array -> spec_choice
(** Key for the first compilation, at hot-call time. The paper policy
    specializes immediately; the polyvariant policy is tiered — it
    compiles a quick generic catch-all first (see {!compile_opt}) and
    lets {!promote} specialize later, unless an interprocedural
    signature already says exactly what to burn in. *)

val compile_opt : kind -> Pipeline.config -> specialized:bool -> size:int -> Pipeline.config
(** Pass schedule for one compilation of a function of [size] bytecode
    instructions. The polyvariant policy compiles generic (unspecialized)
    versions — and oversized bodies, whose linear pipeline charge cannot
    amortize — with the quick {!Pipeline.baseline} schedule; the paper
    policy always uses the configured pipeline. *)

val opt_size_cap : int
(** Body-size bound (bytecode instructions) above which the polyvariant
    policy refuses the heavyweight pipeline. *)

val overload_opt : Pipeline.config -> Pipeline.config
(** The overload tier: the pass schedule for a compilation performed while
    the engine is in service-layer degrade mode ([Engine.set_degrade]).
    Always {!Pipeline.baseline}, for either policy — under overload the
    service sheds specialization before it sheds requests, so new compiles
    are quick generic catch-alls and the heavyweight passes wait for the
    queue to drain. The engine additionally forces [pv_want_specialize]
    off while degraded, so {!choose_hot}/{!promote} pick [Spec_generic];
    already-installed specialized binaries keep serving. *)

val promote_factor : int
(** A function may be promoted from its generic tier-1 binary once it has
    accumulated [promote_factor] hot-call thresholds' worth of calls. *)

val promote :
  kind -> view -> args:Runtime.Value.t array -> hot_calls:int -> spec_choice option
(** Tier-2 admission, consulted on a cache hit of a generic version:
    [Some choice] compiles a specialized version alongside the generic
    catch-all (needs a free cache slot, so promotion requires
    [cache_size >= 2]); [None] keeps running the generic binary. Always
    [None] under the paper policy. *)

(** What to do when a probe missed a non-empty cache (the engine has
    already ruled out quarantine). *)
type miss_action =
  | Miss_respecialize
      (** selective mode: discard everything, deoptimize, recompile with
          the burned-in set narrowed to the still-stable positions *)
  | Miss_fill of spec_choice
      (** room in the cache: install another version alongside *)
  | Miss_widen of int
      (** replace the version at this index (MRU order) with
          [widen key args] — the polyvariant ladder step *)
  | Miss_deopt_generic
      (** the paper's §4 deoptimization: discard everything, blacklist,
          recompile generic *)

val on_miss : kind -> view -> args:Runtime.Value.t array -> miss_action

val anticipated_match : view -> Runtime.Value.t array -> bool
(** Did an interprocedural constant signature cover these arguments?
    (Exposed so the engine can count decisions the facts influenced.) *)
