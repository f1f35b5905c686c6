(** Plain-text table rendering for the experiment harness.

    Renders the figure/table layouts of the paper (e.g. the optimization-grid
    of Figure 9) as aligned monospace tables. *)

type align = Left | Right

val render :
  ?align:align list ->
  header:string list ->
  rows:string list list ->
  unit ->
  string
(** [render ~header ~rows ()] aligns columns by their widest cell. [align]
    defaults to [Left] for the first column and [Right] for the rest. Rows
    shorter than the header are padded with empty cells. *)

val fmt_pct : float -> string
(** Two-decimal percentage, e.g. [5.38] -> ["5.38"]. *)
