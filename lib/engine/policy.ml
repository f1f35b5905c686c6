open Runtime

type kind = Paper | Polyvariant

let kind_to_string = function Paper -> "paper" | Polyvariant -> "polyvariant"

let kind_of_string = function
  | "paper" -> Some Paper
  | "polyvariant" | "poly" -> Some Polyvariant
  | _ -> None

let all_kinds = [ Paper; Polyvariant ]

let key_rank = function
  | Spec_key.Key_values _ -> 0
  | Spec_key.Key_tags _ -> 1
  | Spec_key.Key_generic -> 2

(* One ladder step, keyed to serve [args]. A full-cache miss repurposes the
   LRU slot: the replacement serves the arguments that just missed, one
   rank more general than what it evicts — so every slot strictly climbs
   the ladder and a function stops missing after at most [2 * cache_size]
   widenings (a generic version matches everything). *)
let widen key args =
  match key with
  | Spec_key.Key_values _ -> Some (Spec_key.Key_tags (Array.map Value.tag_of args))
  | Spec_key.Key_tags _ -> Some Spec_key.Key_generic
  | Spec_key.Key_generic -> None

type view = {
  pv_cache_size : int;
  pv_selective : bool;
  pv_want_specialize : bool;
  pv_calls : int;
  pv_arg_set_changes : int;
  pv_keys : Spec_key.t list;
  pv_anticipated : Value.t array list;
}

type spec_choice = Spec_values | Spec_selective | Spec_tags | Spec_generic

type miss_action =
  | Miss_respecialize
  | Miss_fill of spec_choice
  | Miss_widen of int
  | Miss_deopt_generic

let anticipated_match view args =
  List.exists (fun s -> Value.same_args s args) view.pv_anticipated

(* Variability heuristic: by hot-call time, have the argument tuples
   essentially never repeated? Then a value version is doomed — its first
   reuse probe would already miss — and the fig9 earley-boyer loss shows
   the paper policy paying a wasted specialized compile plus a generic
   recompile for exactly this shape. Tag-specialize up front instead. *)
let always_varying view = 2 * view.pv_arg_set_changes >= view.pv_calls

let choose_hot kind view ~args =
  if not view.pv_want_specialize then Spec_generic
  else if view.pv_selective then Spec_selective
  else
    match kind with
    | Paper -> Spec_values
    | Polyvariant ->
      (* Tiered: the hot-call compile is a quick generic catch-all (see
         [compile_opt]); specialization waits for [promote], when the
         call count proves the expensive pipeline will amortize. The one
         exception is a caller-anticipated signature — the caller's
         burned-in facts say exactly what to specialize on, so skipping
         the generic tier costs nothing speculative. *)
      if anticipated_match view args then Spec_values else Spec_generic

(* Tiered compilation pipelines. A generic polyvariant binary compiles
   with the quick baseline schedule: the heavyweight passes (constant
   propagation, inlining, loop inversion, ...) only pay for themselves
   when burned-in specialization facts feed them, and on call-once-heavy
   traces their per-instruction charge is exactly what erases the
   specialization win. The paper policy keeps one pipeline for every
   compile, as the paper does. *)
(* "Too big to optimize": above this many bytecode instructions a function
   takes the quick schedule even when specialized. The pipeline's charge is
   linear in body size while specialization's payoff concentrates in hot
   inner code, so a huge body (a toplevel script, a giant dispatcher) can
   never amortize the heavyweight passes. *)
let opt_size_cap = 512

let compile_opt kind (opt : Pipeline.config) ~specialized ~size =
  match kind with
  | Paper -> opt
  | Polyvariant -> if specialized && size <= opt_size_cap then opt else Pipeline.baseline

(* The overload tier: under service-layer degrade mode every new compile —
   either policy, any size — takes the quick baseline schedule. The service
   sheds specialization before it sheds requests: compiled code keeps the
   isolate off the slow interpreter tier, but no compile burns in values or
   pays the heavyweight passes while the queue is over its high-water mark.
   Already-installed specialized binaries keep serving; degrade only steers
   *new* compile work. *)
let overload_opt (_ : Pipeline.config) = Pipeline.baseline

(* A generic tier-1 binary whose function has accumulated this many
   hot-call thresholds' worth of calls has proven it can amortize a
   specialized compile. *)
let promote_factor = 3

(* Tier-2 admission, consulted on every cache hit of a generic version:
   specialize a still-hot function alongside its generic catch-all. Needs
   a free slot — the catch-all stays, which is why promotion only exists
   at cache sizes >= 2 — and enough calls to amortize the full pipeline.
   The probe prefers the most specific matching version, so once the
   specialized binary exists the generic hit (and hence this check) stops
   firing for its signature. *)
let promote kind view ~args ~hot_calls =
  match kind with
  | Paper -> None
  | Polyvariant ->
    if (not view.pv_want_specialize) || view.pv_selective then None
    else if List.length view.pv_keys >= view.pv_cache_size then None
    else if view.pv_calls < promote_factor * hot_calls then None
    else if anticipated_match view args then Some Spec_values
    else if always_varying view then Some Spec_tags
    else Some Spec_values

let on_miss kind view ~args =
  let nversions = List.length view.pv_keys in
  match kind with
  | Paper ->
    (* Byte-for-byte the decision tree the engine ran before this module
       was extracted: selective narrows, a non-full cache fills with
       another value version (§6), otherwise §4 deoptimizes. *)
    if view.pv_selective && view.pv_want_specialize then Miss_respecialize
    else if view.pv_want_specialize && nversions < view.pv_cache_size then
      Miss_fill Spec_values
    else Miss_deopt_generic
  | Polyvariant ->
    if not view.pv_want_specialize then Miss_deopt_generic
    else if view.pv_selective then Miss_respecialize
    else begin
      (* Second mismatching tuple for a value signature: the arguments have
         the same tags as a cached value version but different values —
         widen that version to its tags instead of discarding it. *)
      let same_tag_values =
        List.mapi (fun i k -> (i, k)) view.pv_keys
        |> List.find_opt (fun (_, k) ->
               match k with
               | Spec_key.Key_values (cached, _) ->
                 Array.length cached = Array.length args
                 && (let ok = ref true in
                     Array.iteri
                       (fun i v ->
                         if Value.tag_of v <> Value.tag_of args.(i) then ok := false)
                       cached;
                     !ok)
               | _ -> false)
      in
      match same_tag_values with
      | Some (i, _) -> Miss_widen i
      | None ->
        if nversions < view.pv_cache_size then
          Miss_fill (choose_hot Polyvariant view ~args)
        else Miss_widen (nversions - 1)  (* repurpose the LRU slot, one rank wider *)
    end
