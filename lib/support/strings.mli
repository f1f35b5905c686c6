(** Substring search helpers (naive scan — meant for short lines, not bulk
    text). *)

val contains_substring : string -> string -> bool
