(** Deterministic MiniJS program generators for differential fuzzing.

    Every generator is a plain [Random.State.t -> string] function, so it
    is usable both from [bin/fuzz.exe] (seeded per case) and from QCheck
    properties (a [QCheck.Gen.t] is exactly this function type).

    Generated programs are closed, deterministic (no [Math.random], no
    observable heap identity), and print a single summary value, so the
    output of a run is a complete semantic fingerprint: if two
    configurations print the same string, they agreed on every step that
    fed the final value. *)

type 'a gen = Random.State.t -> 'a

val program : string gen
(** Helper functions with loops plus array / string / closure traffic, and
    a driver that calls them with mixed argument stability — the paper's
    core pattern, triggering specialization hits, misses, deopts and
    closure inlining. Half the drivers call one helper with one argument
    fewer or one more than its arity. *)

val loop_program : string gen
(** Irregular loop shapes: nesting, [break] / [continue], [while (true)]
    with multiple exits, assignment inside the condition, [do]-[while].
    Stresses loop inversion, unrolling and DCE. *)

val object_program : string gen
(** Object-model traffic: object literals, property loads and stores,
    compound property assignment, array methods ([push] / [pop] / [join] /
    [slice] / [sort] / higher-order [map] / [filter] / [reduce]) and
    string methods. Stresses the generic paths and the deopt machinery
    around them. *)

val deopt_program : string gen
(** Deoptimization stress: int32 overflow mid-loop, arguments whose type
    flips across calls, arrays whose element types change mid-loop, and
    int loops contaminated by fractional steps — every guard/bailout/
    resume/recompile path in the engine. *)

val any_program : string gen
(** One of the generators above, picked uniformly. *)
