(** Source positions for MiniJS programs. *)

type t = { line : int; col : int }

val pp : Format.formatter -> t -> unit
val to_string : t -> string
