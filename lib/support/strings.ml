(* Tiny string-search helpers the stdlib lacks (naive scan; the inputs here
   are short lines, never bulk data). *)

let contains_substring s sub =
  let n = String.length s and m = String.length sub in
  let rec from i = i + m <= n && (String.sub s i m = sub || from (i + 1)) in
  from 0
