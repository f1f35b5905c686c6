type config = {
  name : string;
  param_spec : bool;
  constprop : bool;
  sccp : bool;
  loop_inversion : bool;
  dce : bool;
  bounds_check_elim : bool;
  precise_alias : bool;
  overflow_elim : bool;
  loop_unroll : bool;
  licm : bool;
  gvn : bool;
  guard_elim : bool;
}

let make ?(ps = false) ?(cp = false) ?(sccp = false) ?(li = false) ?(dce = false)
    ?(bce = false) ?(precise_alias = false) ?(overflow_elim = false)
    ?(loop_unroll = false) ?(licm = true) ?(gvn = true) ?(ge = true) name =
  {
    name;
    param_spec = ps;
    constprop = cp;
    sccp;
    loop_inversion = li;
    dce;
    bounds_check_elim = bce;
    precise_alias;
    overflow_elim;
    loop_unroll;
    licm;
    gvn;
    guard_elim = ge;
  }

let baseline = make "baseline"
let best = make ~ps:true ~cp:true ~dce:true "PS+CP+DCE"

let all_on = make ~ps:true ~cp:true ~li:true ~dce:true ~bce:true "PS+CP+LI+DCE+BCE"

(* The ten columns of Figure 9, left to right. *)
let figure9_configs =
  [
    make ~ps:true "PS";
    make ~cp:true "CP";
    make ~ps:true ~cp:true "PS+CP";
    make ~ps:true ~cp:true ~li:true "PS+CP+LI";
    make ~ps:true ~cp:true ~dce:true "PS+CP+DCE";
    make ~ps:true ~cp:true ~li:true ~dce:true "PS+CP+LI+DCE";
    make ~ps:true ~cp:true ~bce:true "PS+CP+BCE";
    make ~ps:true ~cp:true ~li:true ~bce:true "PS+CP+LI+BCE";
    make ~ps:true ~cp:true ~dce:true ~bce:true "PS+CP+DCE+BCE";
    all_on;
  ]

(* Per-pass verification ("sandwich" mode): when enabled, [apply] re-runs
   the MIR structural verifier and the type-consistency lint after every
   pass, so the first broken invariant is attributed to the pass that broke
   it instead of surfacing four passes later. Tests, the fuzzer and
   bin/irlint flip this on; benchmarks leave it off (the final end-of-
   pipeline [Verify.run] stays unconditional either way, and the compile
   charge never includes verification). *)
let checks_slot = Support.Tls.make (fun () -> false)
let checks () = Support.Tls.get checks_slot
let with_checks b f = Support.Tls.with_value checks_slot b f

type run_stats = {
  folded : int;
  inlined : int;
  loops_inverted : int;
  branches_folded : int;
  instrs_removed : int;
  overflow_removed : int;
  unrolled : int;
  guards_elided : int;
  elisions : Mir.elision list;
  mir_instrs_processed : int;
  passes : Telemetry.pass_delta list;
}

let apply ?check ~program config (f : Mir.func) =
  let check = match check with Some c -> c | None -> checks () in
  (* Per-pass attribution for the telemetry layer: graph size entering and
     leaving every pass that ran, in execution order. *)
  let pass_trace = ref [] in
  (* Translation validation (sandwich mode only): before each pass we hold
     a guard snapshot and the abstract state of the pre-pass graph; after
     the pass, every guard it removed must be provably redundant (or
     relocated, or in dead code) under that pre-pass state. The post-pass
     state becomes the next pass's pre-state, so the whole pipeline is
     audited pass by pass. *)
  let tv =
    if check then
      Some (ref (Guard_elim.snapshot f, Absint.analyze ~precise_alias:config.precise_alias f))
    else None
  in
  (* The one pass runner: every pass is traced, verified and validated
     here, and billed the graph size it enters ([pd_before]) — the
     compile charge is the sum of [pd_before] over the trace. *)
  let run_pass name body =
    let before = Mir.all_instr_count f in
    (* Provenance context: instructions a pass creates are tagged with the
       pass's name (see [Mir.cur_origin]). Restored afterwards so the
       builder default survives nested/aborted runs. *)
    let saved_pass = f.Mir.cur_pass in
    f.Mir.cur_pass <- name;
    let r = Fun.protect ~finally:(fun () -> f.Mir.cur_pass <- saved_pass) body in
    if check then begin
      Verify.run ~pass:name f;
      Verify.check_types ~pass:name f
    end;
    (match tv with
    | Some st ->
      let snap, pre = !st in
      Guard_elim.validate ~pass:name ~pre ~snap f;
      st :=
        (Guard_elim.snapshot f, Absint.analyze ~precise_alias:config.precise_alias f)
    | None -> ());
    pass_trace :=
      { Telemetry.pd_pass = name; pd_before = before; pd_after = Mir.all_instr_count f }
      :: !pass_trace;
    r
  in
  (* An optional pass: runs (and is billed) only when its flag is on;
     [off] stands in for its result otherwise. *)
  let when_ flag ~off name body = if flag then run_pass name body else off in
  let typer () = run_pass "typer" (fun () -> Typer.run f) in
  let gvn () = ignore (when_ config.gvn ~off:0 "gvn" (fun () -> Gvn.run f)) in
  (* The constant-propagation step: the paper's Aho formulation, or the
     Wegman-Zadeck conditional algorithm under the ablation flag. *)
  let folded = ref 0 in
  let cp () =
    folded :=
      !folded
      + when_ (config.constprop || config.sccp) ~off:0
          (if config.sccp then "sccp" else "constprop")
          (fun () -> if config.sccp then (Sccp.run f).Sccp.folded else Constprop.run f)
  in
  (* Baseline: type specialization and GVN, like IonMonkey. GVN's phi
     simplification is what lets constant closure arguments reach call
     sites, so it precedes inlining. *)
  typer ();
  gvn ();
  cp ();
  (* Closure inlining accompanies parameter specialization (§4's
     "PARAMETER SPEC ... augmented with the automatic inlining of functions
     passed as parameters"). The spliced code is re-typed and re-numbered. *)
  let inlined = when_ config.param_spec ~off:0 "inline" (fun () -> Inline.run ~program f) in
  if inlined > 0 then begin
    typer ();
    gvn ();
    cp ()
  end;
  (* §6 extension: unrolling, enabled by the constant bounds that
     specialization + constprop expose. Before inversion, which would
     change the loop shape it recognizes. *)
  let unrolled = when_ config.loop_unroll ~off:0 "unroll" (fun () -> Unroll.run f) in
  if unrolled > 0 then begin
    gvn ();
    cp ()
  end;
  (* The cloned tests duplicate constants and create phi(x, x) merges; a
     value-numbering sweep (baseline hygiene) cleans them before lowering
     would materialize them into registers. *)
  let loops_inverted =
    (* In check mode the dominator tree inversion carries from loop to
       loop is compared with a recomputed one after every inversion. *)
    let after = if check then Some (Cfg.check_dominators ~pass:"loop-inversion" f) else None in
    when_ config.loop_inversion ~off:0 "loop-inversion" (fun () -> Loop_inversion.run ?after f)
  in
  if loops_inverted > 0 then gvn ();
  let dce =
    when_ config.dce "dce" (fun () -> Dce.run f)
      ~off:{ Dce.branches_folded = 0; blocks_removed = 0; instrs_removed = 0 }
  in
  (* The bounds-check-elimination slot of Figure 9. Guard elision below
     removes the bounds checks it can prove in every column, so the slot
     is billed but does work only under the §6 overflow extension. *)
  let overflow_removed =
    when_ config.bounds_check_elim ~off:0 "bounds-check-elim" (fun () ->
        if config.overflow_elim then Guard_elim.eliminate_overflow_checks f else 0)
  in
  (* Baseline invariant code motion, which loop inversion feeds (§4). *)
  ignore (when_ config.licm ~off:0 "licm" (fun () -> Licm.run f));
  (* Abstract-interpretation guard elision, last: it harvests whatever
     specialization + constprop/SCCP/GVN and the loop passes exposed. *)
  let elisions =
    when_ config.guard_elim ~off:[] "guard-elim" (fun () ->
        Guard_elim.run ~precise_alias:config.precise_alias f)
  in
  (* The end-of-pipeline structural check stays unconditional; the type
     lint only runs in sandwich mode. *)
  Verify.run ~pass:"pipeline" f;
  if check then Verify.check_types ~pass:"pipeline" f;
  let passes = List.rev !pass_trace in
  {
    folded = !folded;
    inlined;
    loops_inverted;
    branches_folded = dce.Dce.branches_folded;
    instrs_removed = dce.Dce.instrs_removed;
    overflow_removed;
    unrolled;
    guards_elided = List.length elisions;
    elisions;
    mir_instrs_processed = List.fold_left (fun n p -> n + p.Telemetry.pd_before) 0 passes;
    passes;
  }

(* Scheduled pass count for a config — the background queue's completion
   model scales modeled compile latency by it ([Cost.bg_compile_cost]).
   An upper-bound approximation of [apply]'s schedule (typer and gvn can
   run more than once; conditionals mirror the flags): precision does not
   matter, determinism and monotonicity in the flags do. *)
let npasses (c : config) =
  let b f = if f then 1 else 0 in
  1 (* typer *)
  + b c.gvn
  + b c.param_spec (* inline *)
  + b (c.constprop || c.sccp)
  + b c.loop_unroll
  + b c.loop_inversion
  (* [apply] runs DCE once; the double count stays because the vs.bg_*
     model cycles are computed from it. *)
  + (2 * b c.dce)
  + b c.bounds_check_elim
  + b c.licm
  + b c.guard_elim
