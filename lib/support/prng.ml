type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

(* SplitMix64 finalizer (Steele, Lea, Flood; JDK 8). *)
let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let split t = { state = int64 t }

let int t bound =
  assert (bound > 0);
  (* Keep 62 bits so the value fits in OCaml's 63-bit native int. *)
  let raw = Int64.to_int (Int64.shift_right_logical (int64 t) 2) in
  raw mod bound

let float t bound =
  let raw = Int64.to_float (Int64.shift_right_logical (int64 t) 11) in
  bound *. (raw /. 9007199254740992.0)

let weighted t choices =
  let total = List.fold_left (fun acc (w, _) -> acc +. w) 0.0 choices in
  assert (total > 0.0);
  let x = float t total in
  let rec pick acc = function
    | [] -> invalid_arg "Prng.weighted: empty"
    | [ (_, v) ] -> v
    | (w, v) :: rest -> if x < acc +. w then v else pick (acc +. w) rest
  in
  pick 0.0 choices

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
