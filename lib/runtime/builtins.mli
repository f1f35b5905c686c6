(** Native (host-implemented) functions, methods and properties.

    Natives are identified by dotted names (["Math.floor"],
    ["String.fromCharCode"], ["print"]). Pure natives are eligible for
    constant folding in the JIT when all their arguments are compile-time
    constants. *)

exception Runtime_error of string

val with_print_hook : (string -> unit) -> (unit -> 'a) -> 'a
(** Run with this domain's [print] sink (default [print_endline])
    temporarily replaced, restoring it afterwards (also on exception).
    Domain-local, so pool tasks redirecting their own output never
    race. *)

val reset_random : int -> unit
(** Reseed [Math.random]'s deterministic generator (domain-local: each
    pool task reseeds its own stream). *)

val call : string -> Value.t array -> Value.t
(** Invoke a native function by name.
    @raise Runtime_error for unknown natives. *)

val is_pure : string -> bool
(** Whether folding a call to this native at compile time is sound. *)

val exists : string -> bool

val method_call :
  ?call:(Value.t -> Value.t array -> Value.t) ->
  Value.t ->
  string ->
  Value.t array ->
  Value.t option
(** Builtin methods carried by primitive receivers (string and array
    methods). [None] means "not a builtin method": the caller should fall
    back to an own-property lookup on the receiver. [call] invokes user
    callbacks for the higher-order array methods ([map], [filter],
    [forEach], [reduce], [some], [every]); without it those methods report
    a runtime error when handed a closure. *)

val get_prop : Value.t -> string -> Value.t option
(** Builtin properties: [length] of strings and arrays. *)

val globals : unit -> (string * Value.t) list
(** The initial global environment: [print], the [Math] object, the
    [String] object with [fromCharCode], and numeric globals ([NaN],
    [Infinity]). A fresh structure per call. *)
