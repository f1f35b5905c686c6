(* Deterministic fault injection. See faults.mli for the contract. *)

type point =
  | Compile_diag
  | Code_verify
  | Exec_guard
  | Cache_oom
  | Version_widen
  | Serve_admit
  | Serve_deadline
  | Bg_enqueue
  | Bg_install

(* New points append at the end: [sample] draws per-point rules in this
   order, so appending keeps the PRNG consumption — and therefore every
   recorded chaos plan — identical for the pre-existing points. *)
let all_points =
  [ Compile_diag; Code_verify; Exec_guard; Cache_oom; Version_widen; Serve_admit; Serve_deadline;
    Bg_enqueue; Bg_install ]

type mode = Nth of int | Every of int | Prob of float

type spec = (point * mode) list

type rule = { r_point : point; r_mode : mode; mutable r_hits : int; mutable r_fired : int }

type plan = { seed : int; rules : rule list; prng : Support.Prng.t }

let make ~seed spec =
  {
    seed;
    rules = List.map (fun (p, m) -> { r_point = p; r_mode = m; r_hits = 0; r_fired = 0 }) spec;
    prng = Support.Prng.create seed;
  }

let plan_spec p = List.map (fun r -> (r.r_point, r.r_mode)) p.rules

let point_to_string = function
  | Compile_diag -> "compile_diag"
  | Code_verify -> "code_verify"
  | Exec_guard -> "exec_guard"
  | Cache_oom -> "cache_oom"
  | Version_widen -> "version_widen"
  | Serve_admit -> "serve_admit"
  | Serve_deadline -> "serve_deadline"
  | Bg_enqueue -> "bg_enqueue"
  | Bg_install -> "bg_install"

let mode_to_string = function
  | Nth n -> Printf.sprintf "nth(%d)" n
  | Every n -> Printf.sprintf "every(%d)" n
  | Prob p -> Printf.sprintf "prob(%.2f)" p

let describe p =
  let rules =
    List.map
      (fun r -> Printf.sprintf "%s:%s" (point_to_string r.r_point) (mode_to_string r.r_mode))
      p.rules
  in
  String.concat " " (Printf.sprintf "seed=%d" p.seed :: (if rules = [] then [ "(empty)" ] else rules))

(* Random plans for the chaos fuzzer. Each point independently gets a
   rule with probability ~0.55; an empty draw is re-rolled once so most
   seeds actually inject something. Exec_guard rules lean towards
   Every/Prob because guard sites see many occurrences per run, whereas
   compile-side points see only a handful. The serve-layer points come
   last in the draw order so a plan sampled in a plain engine run (where
   they are never consulted) still perturbs the original four points the
   same way it draws rules for the service layer. *)
let sample seed =
  let prng = Support.Prng.create ((seed * 2) + 1) in
  let draw_mode ~occurrences_many =
    match Support.Prng.int prng 3 with
    | 0 -> Nth (1 + Support.Prng.int prng (if occurrences_many then 25 else 12))
    | 1 -> Every (2 + Support.Prng.int prng 6)
    | _ -> Prob (0.05 +. (0.40 *. Support.Prng.float prng 1.0))
  in
  let draw () =
    List.filter_map
      (fun point ->
        if Support.Prng.float prng 1.0 < 0.55 then
          Some (point, draw_mode ~occurrences_many:(point = Exec_guard || point = Serve_deadline))
        else None)
      all_points
  in
  let spec = match draw () with [] -> draw () | s -> s in
  make ~seed spec

(* The plan nothing fires from. It has no rules, so [fire] never touches
   its counters or its PRNG, and one value serves every engine. *)
let none = make ~seed:0 []

let hit plan r =
  r.r_hits <- r.r_hits + 1;
  let fired =
    match r.r_mode with
    | Nth n -> r.r_hits = n
    | Every n -> n > 0 && r.r_hits mod n = 0
    | Prob p -> Support.Prng.float plan.prng 1.0 < p
  in
  if fired then r.r_fired <- r.r_fired + 1;
  fired

(* A plain recursive walk rather than [List.find_opt]: the executor calls
   [fire] at every passing guard, and this allocates nothing. *)
let rec fire_in plan point = function
  | [] -> false
  | r :: rest -> if r.r_point = point then hit plan r else fire_in plan point rest

let fire plan point = fire_in plan point plan.rules

let take_fired plan =
  List.filter_map
    (fun r ->
      if r.r_fired = 0 then None
      else begin
        let n = r.r_fired in
        r.r_fired <- 0;
        Some (r.r_point, n)
      end)
    plan.rules
