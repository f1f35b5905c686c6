(* Specialization-soundness checker.

   The paper's whole bet is that baking runtime argument values into the
   MIR as constants is safe because a guard/cache protocol stands in front
   of the specialized binary: a cache probe re-runs the binary only when
   the argument tuple matches what was burned in. This checker verifies the
   compiled graph against that protocol:

   - stage [`Built] (fresh from [Builder.build]): every argument slot is
     what the function's cache key says the probe establishes
     ([Spec_key.at_entry]) — a baked constant agrees with the cached
     argument tuple, in both the function-entry block and the OSR block;
     positions the key leaves free are runtime [Parameter]s (a baked value
     the probe does not compare is a silent wrong-answer generator);
     tag-keyed positions carry an entry barrier for their tag; and the
     abstract interpreter's entry state assumes exactly the same facts;
   - both stages: no runtime [Parameter] load for a burned-in position, and
     parameter indices in range;
   - stage [`Optimized] (after the pipeline): every guard still carries a
     resume point (the MIR verifier checks its references dominate; this
     check is the paper-facing summary), plus two warning classes —
     redundant guards (an identical guard earlier in the same block, or a
     type barrier its operand's static type already satisfies) and dead
     resume points (a snapshot on an instruction that can never bail, which
     only extends live ranges and snapshot tables for nothing). *)

open Runtime

(* The executor can only bail on guards and on overflow-checked int32
   arithmetic (see Native.Exec); a resume point anywhere else is dead
   weight. *)
let can_bail (i : Mir.instr) =
  Mir.is_guard i.Mir.kind
  || match i.Mir.kind with Mir.Binop (_, _, _, Mir.Mode_int) -> true | _ -> false

let check ~stage (f : Mir.func) =
  let acc = ref [] in
  let fname = f.Mir.source.Bytecode.Program.name in
  let fid = f.Mir.source.Bytecode.Program.fid in
  let emit ?(severity = Diag.Error) ?block ?value fmt =
    Printf.ksprintf
      (fun message ->
        acc :=
          Diag.make ~severity ~layer:"spec" ~func:fname ~fid ?block ?value message
          :: !acc)
      fmt
  in
  let arity = f.Mir.source.Bytecode.Program.arity in
  let known = Spec_key.at_entry f.Mir.key in
  let pp_value v = Format.asprintf "%a" Value.pp v in
  (* Parameter sanity, at every stage: indices in range, and no runtime
     parameter load for a position the cache protocol burns in (the probe
     would validate a value the code never reads, and vice versa). *)
  List.iter
    (fun bid ->
      let b = Mir.block f bid in
      List.iter
        (fun (i : Mir.instr) ->
          match i.Mir.kind with
          | Mir.Parameter k ->
            if k < 0 || k >= arity then
              emit ~block:bid ~value:i.Mir.def
                "parameter index %d out of range (arity %d)" k arity
            else (
              match known k with
              | Spec_key.Known_value _ ->
                emit ~block:bid ~value:i.Mir.def
                  "argument %d is burned into the cache tuple but loaded as a \
                   runtime parameter"
                  k
              | Spec_key.Known_tag _ | Spec_key.Unknown -> ())
          | _ -> ())
        b.Mir.body)
    f.Mir.block_order;
  (match (stage, f.Mir.key) with
  | `Built, Spec_key.Key_generic -> ()
  | `Built, key -> (
    (* The builder materializes the raw arguments as the first [arity]
       instructions of the entry block, in order; on freshly built MIR this
       prefix is the specialization record to audit: a burned-in position
       must be exactly the cached constant, a free one a runtime
       [Parameter] — a baked value the probe does not compare is a silent
       wrong-answer generator — and a tag-keyed one a [Parameter] covered by
       an entry type barrier for exactly its key tag (the barrier is what
       guard elision removes once the probe is trusted, so it must exist on
       the fresh graph). *)
    (match key with
    | Spec_key.Key_tags tags when Array.length tags <> arity ->
      emit "tag key has %d entries but arity is %d" (Array.length tags) arity
    | _ -> ());
    let entry = f.Mir.entry in
    let entry_body = (Mir.block f entry).Mir.body in
    let body = Array.of_list entry_body in
    if Array.length body < arity then
      emit ~block:entry
        "entry block materializes %d slots but arity is %d" (Array.length body)
        arity
    else
      for i = 0 to arity - 1 do
        let instr = body.(i) in
        match (instr.Mir.kind, known i) with
        | Mir.Constant v, Spec_key.Known_value c ->
          if not (Value.same_value v c) then
            emit ~block:entry ~value:instr.Mir.def
              "baked constant %s for argument %d disagrees with the cached \
               tuple entry %s"
              (pp_value v) i (pp_value c)
        | Mir.Constant v, Spec_key.Unknown ->
          emit ~block:entry ~value:instr.Mir.def
            "argument %d baked to %s but the cache mask leaves it free: a \
             cache probe never compares it"
            i (pp_value v)
        | Mir.Parameter k, kn -> (
          if k <> i then
            emit ~block:entry ~value:instr.Mir.def
              "entry slot %d materializes parameter %d" i k;
          match kn with
          | Spec_key.Known_tag tag
            when not
                   (List.exists
                      (fun (j : Mir.instr) ->
                        match j.Mir.kind with
                        | Mir.Type_barrier (a, t) -> a = instr.Mir.def && t = tag
                        | _ -> false)
                      entry_body) ->
            emit ~block:entry ~value:instr.Mir.def
              "argument %d is tag-keyed (%s) but the entry block carries no \
               matching type barrier"
              i (Value.tag_to_string tag)
          | _ -> ())
        | _, Spec_key.Known_tag _ ->
          emit ~block:entry ~value:instr.Mir.def
            "entry slot %d is '%s' in a tag-keyed version, expected a runtime \
             parameter"
            i
            (Mir.kind_to_string instr.Mir.kind)
        | _ ->
          emit ~block:entry ~value:instr.Mir.def
            "entry slot %d is '%s', expected a parameter materialization" i
            (Mir.kind_to_string instr.Mir.kind)
      done;
    (* The abstract interpreter seeds its fixpoint from the same cache key
       ([Absint.entry_state]). Audit the seeding against what the probe
       actually compares: a burned position must seed as exactly the cached
       constant, a tag-keyed one as exactly its key tag and nothing
       tighter, and a free position unconstrained — drift here would let
       the analysis (and so guard elision and translation validation)
       assume facts no cache probe established. *)
    Array.iteri
      (fun i av ->
        match (av, known i) with
        | Absint.Const v, Spec_key.Known_value c ->
          if not (Value.same_value v c) then
            emit
              "abstract entry state pins argument %d to %s but the cached \
               tuple entry is %s"
              i (pp_value v) (pp_value c)
        | Absint.Const v, Spec_key.Unknown ->
          emit
            "abstract entry state pins argument %d to %s but the cache mask \
             leaves it free"
            i (pp_value v)
        | Absint.Const v, Spec_key.Known_tag _ ->
          emit
            "abstract entry state pins argument %d to %s but only its tag is \
             in the cache key"
            i (pp_value v)
        | av, Spec_key.Known_value c ->
          emit
            "argument %d is burned into the cache tuple (%s) but the abstract \
             entry state is %s"
            i (pp_value c) (Absint.to_string av)
        | av, Spec_key.Known_tag tag ->
          if Absint.tags_of av <> Absint.tag_bit tag then
            emit
              "abstract entry state assumes %s for argument %d but the cache \
               key guarantees exactly tag %s"
              (Absint.to_string av) i (Value.tag_to_string tag)
        | _, Spec_key.Unknown -> ())
      (Absint.entry_state f);
    (* The OSR entry bakes the same cached tuple (plus the frame's locals,
       which have no cache to disagree with). *)
    match f.Mir.osr_entry with
    | None -> ()
    | Some ob ->
      let body = Array.of_list (Mir.block f ob).Mir.body in
      for i = 0 to min arity (Array.length body) - 1 do
        let instr = body.(i) in
        match (instr.Mir.kind, known i) with
        | Mir.Constant v, Spec_key.Known_value c when not (Value.same_value v c) ->
          emit ~block:ob ~value:instr.Mir.def
            "OSR-baked constant %s for argument %d disagrees with the cached \
             tuple entry %s"
            (pp_value v) i (pp_value c)
        | _ -> ()
      done)
  | `Optimized, _ ->
    List.iter
      (fun bid ->
        let b = Mir.block f bid in
        let seen_guards = Hashtbl.create 8 in
        List.iter
          (fun (i : Mir.instr) ->
            if Mir.is_guard i.Mir.kind then begin
              if i.Mir.rp = None then
                emit ~block:bid ~value:i.Mir.def
                  "guard '%s' has no resume point: a failing check could not \
                   hand back to the interpreter"
                  (Mir.kind_to_string i.Mir.kind);
              if Hashtbl.mem seen_guards i.Mir.kind then
                emit ~severity:Diag.Warning ~block:bid ~value:i.Mir.def
                  "redundant guard: identical '%s' already performed earlier \
                   in this block"
                  (Mir.kind_to_string i.Mir.kind)
              else Hashtbl.replace seen_guards i.Mir.kind ();
              match i.Mir.kind with
              | Mir.Type_barrier (a, tag) -> (
                match Mir.find_instr f a with
                | Some def
                  when def.Mir.ty <> Mir.Ty_value
                       && def.Mir.ty = Mir.ty_of_tag tag ->
                  emit ~severity:Diag.Warning ~block:bid ~value:i.Mir.def
                    "type barrier on v%d is statically satisfied (operand \
                     already %s)"
                    a (Mir.ty_to_string def.Mir.ty)
                | _ -> ())
              | _ -> ()
            end
            else if i.Mir.rp <> None && not (can_bail i) then
              emit ~severity:Diag.Warning ~block:bid ~value:i.Mir.def
                "dead resume point on '%s': it can never bail, the snapshot \
                 only extends live ranges"
                (Mir.kind_to_string i.Mir.kind))
          b.Mir.body)
      f.Mir.block_order);
  List.rev !acc
