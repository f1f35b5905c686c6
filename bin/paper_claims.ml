(* The paper's claims as predicates over `vs-experiments all` output, run
   by the `dune build @parallel` gate (bin/dune) on the committed golden
   and on the fresh --jobs 1 output, so a re-promoted golden cannot
   quietly drop a claim.

     paper_claims FILE ...

   Each predicate is a sign or an ordering, never a value, and encodes
   one "What reproduces" bullet of EXPERIMENTS.md:
     - Figure 9(a)/(b): every column containing PS+CP is a speedup (> 0)
       on SunSpider and Kraken;
     - Figure 9(a)/(b): CP alone is not a speedup (<= 0) on any suite;
     - Figure 9(a)/(b): each BCE column is within [bce_eps] points of its
       twin without BCE;
     - Figure 10: every suite's average code-size reduction is > 0;
     - Figures 1/2: the once-called and single-argument-set fractions lie
       within the web generator's calibration tolerance (the 2 points
       test_workloads allows) of the paper's 48.88% / 59.91%.
   Prints nothing and exits 0 when every predicate holds; otherwise names
   each failing predicate on stderr and exits 1. *)

(* The BCE slot adds only its compile charge to a column, which costs
   0.12-0.26 points of speedup in the current figures. *)
let bce_eps = 0.5

(* The web generator's calibration tolerance, in percentage points. *)
let web_tolerance = 2.0

let failures = ref 0

let claim file ok fmt =
  Printf.ksprintf
    (fun s ->
      if not ok then begin
        incr failures;
        Printf.eprintf "paper_claims: %s: %s\n" file s
      end)
    fmt

let read_lines file =
  let ic = open_in file in
  let rec go acc =
    match input_line ic with
    | l -> go (l :: acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  go []

let words s = List.filter (( <> ) "") (String.split_on_char ' ' s)

(* The rest of [s] after the first occurrence of [sub]. *)
let after s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = sub then Some (String.sub s (i + m) (n - i - m))
    else go (i + 1)
  in
  go 0

let contains s sub = after s sub <> None

(* "48.16%" or "-0.17" -> float. *)
let number s =
  let s =
    if String.ends_with ~suffix:"%" s then String.sub s 0 (String.length s - 1) else s
  in
  float_of_string_opt s

(* The value after [label] on the first line containing it, e.g.
   "called once: 48.16%" -> 48.16. *)
let labelled lines label =
  List.find_map
    (fun l ->
      match after l label with
      | Some rest -> (match words rest with w :: _ -> number w | [] -> None)
      | None -> None)
    lines

(* A Figure 9 table: the header line ("suite" then column names), a rule,
   then one row per suite until a blank line. A row is the suite name
   (which may contain spaces) followed by one number per column. *)
type table = { columns : string list; rows : (string * float list) list }

let table_after lines title =
  let rec skip_to = function
    | [] -> []
    | l :: rest -> if String.starts_with ~prefix:title l then rest else skip_to rest
  in
  let rec header = function
    | [] -> None
    | l :: rest when String.starts_with ~prefix:"suite" l -> Some (List.tl (words l), rest)
    | _ :: rest -> header rest
  in
  match header (skip_to lines) with
  | None -> None
  | Some (columns, rest) ->
    let n = List.length columns in
    let rec rows acc = function
      | [] -> List.rev acc
      | l :: _ when String.trim l = "" -> List.rev acc
      | l :: rest when String.starts_with ~prefix:"---" l -> rows acc rest
      | l :: rest ->
        let ws = words l in
        let k = List.length ws - n in
        if k < 1 then rows acc rest
        else
          let name = String.concat " " (List.filteri (fun i _ -> i < k) ws) in
          let vals = List.filter_map number (List.filteri (fun i _ -> i >= k) ws) in
          rows (if List.length vals = n then (name, vals) :: acc else acc) rest
    in
    Some { columns; rows = rows [] rest }

let cell t row col =
  List.find_map (fun (c, v) -> if c = col then Some v else None) (List.combine t.columns row)

let check_figure9 file lines title =
  match table_after lines title with
  | None -> claim file false "%s: table not found" title
  | Some t ->
    let paper_suites = [ "SunSpider 1.0"; "Kraken 1.1" ] in
    List.iter
      (fun (suite, row) ->
        List.iter
          (fun col ->
            (* A missing cell is NaN, which fails every predicate. *)
            let v col = Option.value (cell t row col) ~default:Float.nan in
            if contains col "PS+CP" && List.mem suite paper_suites then
              claim file (v col > 0.) "%s %s %s = %.2f, expected > 0" title suite col (v col);
            if col = "CP" then
              claim file (v col <= 0.) "%s %s CP = %.2f, expected <= 0" title suite (v col);
            if String.ends_with ~suffix:"+BCE" col then
              let twin = String.sub col 0 (String.length col - 4) in
              claim file
                (Float.abs (v col -. v twin) <= bce_eps)
                "%s %s %s = %.2f, expected within %.2f of %s = %.2f" title suite col (v col)
                bce_eps twin (v twin))
          t.columns)
      t.rows;
    claim file (List.length t.rows = 3) "%s: expected 3 suite rows, found %d" title
      (List.length t.rows)

let check file =
  let lines = read_lines file in
  let near label paper =
    match labelled lines label with
    | Some v ->
      claim file
        (Float.abs (v -. paper) <= web_tolerance)
        "%s %.2f%% is not within %.1f points of the paper's %.2f%%" label v web_tolerance
        paper
    | None -> claim file false "%s: line not found" label
  in
  near "called once:" 48.88;
  near "single argument set:" 59.91;
  check_figure9 file lines "Figure 9(a)";
  check_figure9 file lines "Figure 9(b)";
  let reductions =
    List.filter_map
      (fun l ->
        match after l ": average reduction " with
        | Some rest -> Some (l, Option.bind (List.nth_opt (words rest) 0) number)
        | None -> None)
      lines
  in
  claim file (List.length reductions = 3) "Figure 10: expected 3 suite averages, found %d"
    (List.length reductions);
  List.iter
    (fun (l, v) ->
      claim file
        (match v with Some v -> v > 0. | None -> false)
        "Figure 10: %S, expected a reduction > 0" l)
    reductions

let () =
  let files = List.tl (Array.to_list Sys.argv) in
  if files = [] then begin
    prerr_endline "usage: paper_claims FILE ...";
    exit 2
  end;
  List.iter check files;
  if !failures > 0 then exit 1
