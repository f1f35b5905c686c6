(** Source positions for MiniJS programs. *)

type t = { line : int; col : int }

val to_string : t -> string
