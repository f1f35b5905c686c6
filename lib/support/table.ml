type align = Left | Right

let pad align width s =
  let n = String.length s in
  if n >= width then s
  else
    let fill = String.make (width - n) ' ' in
    match align with Left -> s ^ fill | Right -> fill ^ s

let render ?align ~header ~rows () =
  let ncols = List.length header in
  let normalize row =
    let len = List.length row in
    if len >= ncols then row else row @ List.init (ncols - len) (fun _ -> "")
  in
  let rows = List.map normalize rows in
  let aligns =
    match align with
    | Some a when List.length a = ncols -> a
    | Some _ | None -> List.init ncols (fun i -> if i = 0 then Left else Right)
  in
  let all = header :: rows in
  let widths =
    List.init ncols (fun c ->
        List.fold_left (fun acc row -> max acc (String.length (List.nth row c))) 0 all)
  in
  let render_row row =
    let cells = List.mapi (fun c s -> pad (List.nth aligns c) (List.nth widths c) s) row in
    String.concat "  " cells
  in
  let sep =
    String.concat "  " (List.map (fun w -> String.make w '-') widths)
  in
  String.concat "\n" (render_row header :: sep :: List.map render_row rows) ^ "\n"

let fmt_pct x = Printf.sprintf "%.2f" x
