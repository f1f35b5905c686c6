type mismatch = { mm_config : string; mm_expected : string; mm_got : string }

(* A differential failure is either a behavioural divergence from the
   reference interpreter, or an IR verifier rejecting a compilation while
   pipeline checks were on. The two are distinct kinds on purpose: a
   miscompile that happens to print the right answer still corrupts the IR,
   and only the verifier sees it. *)
type failure =
  | Mismatch of mismatch
  | Verifier_diag of { vd_config : string; vd_diag : Diag.t }

(* Print redirection is domain-local (and [Engine.run] reseeds
   [Math.random]), so a [capture] is a self-contained pool task:
   configurations of one check can run on different domains without
   sharing a buffer. *)
let capture k =
  let buf = Buffer.create 64 in
  Runtime.Builtins.with_print_hook
    (fun s ->
      Buffer.add_string buf s;
      Buffer.add_char buf '\n')
    (fun () -> k buf)

let run ?faults config src =
  capture (fun buf ->
      (try ignore (Engine.run_source ?faults config src)
       with e -> Buffer.add_string buf ("EXN " ^ Printexc.to_string e ^ "\n"));
      Buffer.contents buf)

(* Like [run], but with per-pass pipeline checks on; a verifier rejection
   comes back as [Error diag] instead of being folded into the captured
   output as an EXN line. The engine contains mid-run compile diagnostics
   (quarantining the function and interpreting on), so they are collected
   from its diagnostic sink, which also receives check-mode warnings;
   [Diag.Failed] can only escape from bytecode admission in
   [Engine.make]. Either way the first error of the run is the [Error]. *)
let run_checked config src =
  let first_diag = ref None in
  let diag d = if Diag.is_error d && !first_diag = None then first_diag := Some d in
  capture (fun buf ->
      match
        (try
           ignore (Engine.run_source ~diag { config with Engine.check = true } src);
           Ok ()
         with
        | Diag.Failed d -> Error d
        | e ->
          Buffer.add_string buf ("EXN " ^ Printexc.to_string e ^ "\n");
          Ok ())
      with
      | Error d -> Error d
      | Ok () -> (
        match !first_diag with Some d -> Error d | None -> Ok (Buffer.contents buf)))

let default_configs =
  let opt o = Engine.default_config ~opt:o () in
  ("baseline", Engine.default_config ())
  :: ("best", opt Pipeline.best)
  :: ( "max",
       opt
         (Pipeline.make ~ps:true ~cp:true ~li:true ~dce:true ~bce:true
            ~precise_alias:true ~overflow_elim:true ~loop_unroll:true "max") )
  :: ("selective", Engine.default_config ~opt:Pipeline.all_on ~selective:true ())
  :: ("cache4", Engine.default_config ~opt:Pipeline.all_on ~cache_size:4 ())
  :: ( "poly1",
       Engine.default_config ~opt:Pipeline.all_on ~policy:Policy.Polyvariant
         ~cache_size:1 () )
  :: ( "poly4",
       Engine.default_config ~opt:Pipeline.all_on ~policy:Policy.Polyvariant
         ~cache_size:4 () )
  :: ("sccp", opt (Pipeline.make ~ps:true ~sccp:true ~li:true ~dce:true ~bce:true "sccp"))
  :: List.map (fun c -> (c.Pipeline.name, opt c)) Pipeline.figure9_configs

(* Every configuration is an independent pool task; the serial fold
   stopped at the first divergence, and the parallel merge reports the
   failure of the smallest configuration index, so the returned failure —
   and therefore every fuzzer/CLI line printed from it — is identical. *)
let first_failure results = List.find_opt Option.is_some results |> Option.join

(* Chaos differential: the reference is the pure interpreter with no
   faults; every JIT configuration then runs under its own copy of the
   fault plan sampled from [seed] (so occurrence counts restart each
   time, whichever domain runs the configuration). The invariant is the
   containment layer's contract: under any injected fault schedule the run
   terminates with the interpreter's observable output — injected compile
   failures quarantine, injected guard failures bail out, and nothing but
   [Engine.Runtime_error] may escape (anything else shows up as a
   divergent EXN line). Pipeline checks are on so the barrier is exercised
   with the full lint machinery in the loop. *)
let check_chaos ?(configs = default_configs) ~seed src =
  let reference = run Engine.interp_only src in
  Pool.map (Pool.default ())
    (fun (name, config) ->
      let plan = Faults.sample seed in
      let got = run ~faults:plan { config with Engine.check = true } src in
      if got = reference then None
      else
        Some
          (Mismatch
             {
               mm_config = Printf.sprintf "%s+chaos(%s)" name (Faults.describe plan);
               mm_expected = reference;
               mm_got = got;
             }))
    configs
  |> first_failure

let check ?(configs = default_configs) src =
  let reference = run Engine.interp_only src in
  Pool.map (Pool.default ())
    (fun (name, config) ->
      match run_checked config src with
      | Error d -> Some (Verifier_diag { vd_config = name; vd_diag = d })
      | Ok got ->
        if got = reference then None
        else Some (Mismatch { mm_config = name; mm_expected = reference; mm_got = got }))
    configs
  |> first_failure
