(** Differential execution of one MiniJS program across engine
    configurations.

    The reference semantics is the pure interpreter; every JIT
    configuration must print exactly the same output. A raised exception is
    folded into the output (as an ["EXN ..."] line) so that a crash in one
    configuration is reported as a mismatch rather than aborting the
    fuzzing loop. *)

type mismatch = {
  mm_config : string;  (** name of the disagreeing configuration *)
  mm_expected : string;  (** the interpreter's output *)
  mm_got : string;  (** the configuration's output *)
}

(** The two failure kinds, kept distinct so IR corruption is caught even
    when the miscompiled code prints the right answer. *)
type failure =
  | Mismatch of mismatch
  | Verifier_diag of { vd_config : string; vd_diag : Diag.t }

val run : ?faults:Faults.plan -> Engine.config -> string -> string
(** Run one program under one configuration (and fault plan), capturing
    everything it prints. *)

val default_configs : (string * Engine.config) list
(** The interpreter-vs-everything matrix: baseline, best, a
    maximum-extensions configuration, the selective and 4-entry-cache
    engine policies, the polyvariant policy at cache sizes 1 and 4, the
    SCCP pipeline, and the ten Figure 9 columns. *)

val check : ?configs:(string * Engine.config) list -> string -> failure option
(** Run [src] under the interpreter and every configuration (the latter
    with pipeline checks enabled); return the first failure, or [None]
    when every configuration agrees and verifies clean. *)

val check_chaos :
  ?configs:(string * Engine.config) list -> seed:int -> string -> failure option
(** The chaos differential: run [src] under the fault-free interpreter for
    reference, then under every JIT configuration with the fault plan
    [Faults.sample seed] (a fresh copy per configuration) and pipeline
    checks on. The containment invariant under test: every run
    terminates with the interpreter's observable output — injected compile
    failures quarantine, injected guard failures bail out, and no exception
    other than [Engine.Runtime_error] escapes (one would surface as a
    divergent ["EXN ..."] line). The failing configuration's name carries
    the plan description for replay. *)
