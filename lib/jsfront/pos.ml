type t = { line : int; col : int }

let pp fmt { line; col } = Format.fprintf fmt "%d:%d" line col
let to_string p = Format.asprintf "%a" pp p
