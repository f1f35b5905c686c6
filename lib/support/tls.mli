(** Domain-local slots for the VM's remaining ambient context.

    Four slots use it: the print hook, [Math.random]'s generator, the
    engine's MIR hook and the pool's participant index. Everything else
    an engine run depends on (check mode, the diagnostic sink, the fault
    plan, the request trace) is given to the engine. A slot rather than a
    global [ref] means engine runs fanned out over a {!Parallel.Pool}
    cannot observe (or clobber) each other's state. Each domain lazily
    gets its own value from the initializer; nothing is inherited from
    the spawning domain, which is what makes pool tasks self-contained: a
    task that needs a hook installs it itself, usually through the owning
    module's [with_...] combinator. *)

type 'a t

val make : (unit -> 'a) -> 'a t
(** A new slot; [init] produces the per-domain initial value on first use. *)

val get : 'a t -> 'a
(** This domain's current value. *)

val set : 'a t -> 'a -> unit
(** Replace this domain's value; other domains are unaffected. *)

val with_value : 'a t -> 'a -> (unit -> 'b) -> 'b
(** Run with this domain's value temporarily replaced, restoring on exit
    (also on exception). *)
