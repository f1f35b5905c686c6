(** The specialization key: the one contract between the argument cache
    and the code it guards.

    A compiled version serves exactly the calls its key admits ({!matches},
    the cache probe), and the builder burns in exactly what the probe
    establishes ({!at_entry}). Every layer reads the same key — the
    engine's version cache, [Builder.build], the [Mir.func] it returns,
    [Absint]'s entry state, [Spec_check]'s audit and the lowerer's
    specialized/widened bits — so the rule for what an argument position
    guarantees is written once, here, beside the probe that justifies it. *)

type t =
  | Key_values of Runtime.Value.t array * bool array option
      (** burned-in argument tuple, as the call passed it (+ selective
          mask: which positions a probe compares; [None] = all) *)
  | Key_tags of Runtime.Value.tag array
      (** widened version: only the runtime type tags of the arguments,
          padded to the function's arity *)
  | Key_generic  (** serves any arguments *)

val matches : t -> Runtime.Value.t array -> bool
(** The probe: may a version with this key serve these arguments? A value
    key admits only tuples of its own length. *)

(** What an argument position is known to hold at function entry. *)
type known =
  | Known_value of Runtime.Value.t  (** burned in as this constant *)
  | Known_tag of Runtime.Value.tag  (** a runtime parameter of this tag *)
  | Unknown  (** a runtime parameter the probe never looked at *)

val at_entry : t -> int -> known
(** [at_entry key i]: what every call [key] admits passes as argument [i]
    once the callee has padded its arguments to its arity. Under a value
    key a position past the tuple is [Known_value Undefined] (the probe
    admits only tuples of the key's length, so the callee pads it), and a
    position past or outside the mask is [Unknown]. Under a tag key a
    position past the tags is [Unknown]. Any index is valid. *)

val to_string : t -> string
(** Display form: [(1, "x")], [[Int32, String]] or [generic]. *)
