(* Dominator tree, keyed on dense arrays over block ids ([0, next_block)).
   [idom.(b)] is [virtual_root] for the entries and [unreached] for blocks
   no entry reaches (or ids with no block). The pre/post interval numbering
   that makes [dominates] O(1) is built on the first query, so passes that
   only read immediate dominators pay nothing for it. *)
type dominators = {
  idom : int array;
  order : int list;
  intervals : numbering Lazy.t;
}

(* [a] dominates [b] iff [b]'s interval [pre, post] nests inside [a]'s.
   Both ends come from one clock; [entered.(t)] is the block whose
   interval opens at tick [t] (-1 where one closes). *)
and numbering = { pre : int array; post : int array; entered : int array }

(* Cooper-Harvey-Kennedy iterative dominator computation over RPO. With two
   entry points (function entry + OSR), we add a virtual root (-1) that is
   the parent of both. *)
let virtual_root = -1
let unreached = -2

(* Pre/post numbering of the dominator tree. Children are numbered in
   RPO. *)
let number_tree idom order =
  let n = Array.length idom in
  let children = Array.make n [] in
  let roots = ref [] in
  List.iter
    (fun b ->
      let p = idom.(b) in
      if p = virtual_root then roots := b :: !roots else children.(p) <- b :: children.(p))
    (List.rev order);
  let pre = Array.make n (-1) and post = Array.make n (-1) in
  let entered = Array.make (2 * n) (-1) in
  let clock = ref 0 in
  let rec visit b =
    pre.(b) <- !clock;
    entered.(!clock) <- b;
    incr clock;
    List.iter visit children.(b);
    post.(b) <- !clock;
    incr clock
  in
  List.iter visit !roots;
  { pre; post; entered }

let dominators (f : Mir.func) =
  let rpo = Mir.reverse_postorder f in
  let n = f.Mir.next_block in
  let index = Array.make n (-1) in
  List.iteri (fun i bid -> index.(bid) <- i) rpo;
  let idom = Array.make n unreached in
  let entry = Array.make n false in
  List.iter
    (fun e ->
      idom.(e) <- virtual_root;
      entry.(e) <- true)
    (Mir.entry_blocks f);
  let index_of b = if b = virtual_root then -1 else index.(b) in
  let parent b = if b = virtual_root then virtual_root else idom.(b) in
  let rec intersect a b =
    if a = b then a
    else if index_of a > index_of b then intersect (parent a) b
    else intersect a (parent b)
  in
  (* The meet over a block's processed preds; [unreached] when none is. *)
  let meet acc p =
    if idom.(p) = unreached then acc else if acc = unreached then p else intersect acc p
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun bid ->
        if not entry.(bid) then begin
          let new_idom = List.fold_left meet unreached (Mir.block f bid).Mir.preds in
          if new_idom <> unreached && idom.(bid) <> new_idom then begin
            idom.(bid) <- new_idom;
            changed := true
          end
        end)
      rpo
  done;
  { idom; order = rpo; intervals = lazy (number_tree idom rpo) }

let reachable doms b = b >= 0 && b < Array.length doms.idom && doms.idom.(b) <> unreached

let immediate_dominator doms bid =
  if reachable doms bid && doms.idom.(bid) <> virtual_root then Some doms.idom.(bid) else None

let dominates doms a b =
  reachable doms a && reachable doms b
  &&
  let { pre; post; _ } = Lazy.force doms.intervals in
  pre.(a) <= pre.(b) && post.(b) <= post.(a)

(* Every path between two other blocks survives with [h] dropped, so
   dominance among them is unchanged: [h]'s children move to its parent
   and every remaining interval still nests as the new tree does. The
   children are the subtrees directly inside [h]'s interval, looking
   through blocks contracted before. *)
let contract doms h =
  if reachable doms h then begin
    let { pre; post; entered } = Lazy.force doms.intervals in
    let parent = doms.idom.(h) in
    doms.idom.(h) <- unreached;
    let rec reparent t =
      if t < post.(h) then
        let c = entered.(t) in
        if c < 0 || doms.idom.(c) = unreached then reparent (t + 1)
        else begin
          doms.idom.(c) <- parent;
          reparent (post.(c) + 1)
        end
    in
    reparent (pre.(h) + 1)
  end

let check_dominators ~pass (f : Mir.func) doms =
  let fresh = dominators f in
  let fail b fmt =
    Printf.ksprintf
      (fun message ->
        raise
          (Diag.Failed
             (Diag.make ~layer:"mir" ~pass ~func:f.Mir.source.Bytecode.Program.name ~block:b
                message)))
      fmt
  in
  let name = function Some p -> Printf.sprintf "B%d" p | None -> "none" in
  for b = 0 to f.Mir.next_block - 1 do
    if immediate_dominator doms b <> immediate_dominator fresh b then
      fail b "carried idom of B%d is %s, recomputed %s" b
        (name (immediate_dominator doms b))
        (name (immediate_dominator fresh b));
    for a = 0 to f.Mir.next_block - 1 do
      if dominates doms a b <> dominates fresh a b then
        fail b "carried dominator tree disagrees with a recomputed one on B%d over B%d" a b
    done
  done

type loop = { header : int; latches : int list; body : int list }

(* The natural loops in the iteration order of the table grouping back
   edges by header. That order is the order among loops of equal size in
   [natural_loops]; keep it as it is (see the interface). *)
let loops_by_header (f : Mir.func) doms =
  let back_edges = ref [] in
  (* A dominator comes first in RPO: only an edge to a block already met
     can be a back edge, so a loop-free graph never numbers its tree. *)
  let met = Array.make f.Mir.next_block false in
  List.iter
    (fun bid ->
      if reachable doms bid then begin
        met.(bid) <- true;
        List.iter
          (fun succ ->
            if met.(succ) && dominates doms succ bid then back_edges := (bid, succ) :: !back_edges)
          (Mir.successors (Mir.block f bid))
      end)
    doms.order;
  let by_header = Hashtbl.create 8 in
  List.iter
    (fun (latch, header) ->
      let existing = Option.value (Hashtbl.find_opt by_header header) ~default:[] in
      Hashtbl.replace by_header header (latch :: existing))
    !back_edges;
  let loops = ref [] in
  Hashtbl.iter
    (fun header latches ->
      (* Natural loop body: header plus everything that reaches a latch
         without passing through the header. *)
      let body = Hashtbl.create 8 in
      Hashtbl.replace body header true;
      let rec add bid =
        if not (Hashtbl.mem body bid) then begin
          Hashtbl.replace body bid true;
          List.iter add (Mir.block f bid).Mir.preds
        end
      in
      List.iter add latches;
      let body_list = Hashtbl.fold (fun bid _ acc -> bid :: acc) body [] in
      loops := { header; latches; body = List.sort compare body_list } :: !loops)
    by_header;
  List.rev !loops

let natural_loops f doms =
  List.sort
    (fun a b -> compare (List.length b.body) (List.length a.body))
    (List.rev (loops_by_header f doms))

let in_loop loop bid = List.mem bid loop.body

let entry_edge (f : Mir.func) loop =
  match (Mir.block f loop.header).Mir.preds with
  | [ a; b ] when not (in_loop loop a) && in_loop loop b -> Some (a, 0)
  | [ a; b ] when in_loop loop a && not (in_loop loop b) -> Some (b, 1)
  | _ -> None

type while_shape = {
  pre : int;
  i_pre : int;
  latch : int;
  test : Mir.def;
  body_entry : int;
  exit : int;
  stays_on_true : bool;
}

let while_shape (f : Mir.func) loop =
  match (loop.latches, (Mir.block f loop.header).Mir.term, entry_edge f loop) with
  | [ latch ], Mir.Branch (test, t, e), Some (pre, i_pre)
    when latch <> loop.header && (Mir.block f latch).Mir.term = Mir.Goto loop.header -> (
    let shape body_entry exit stays_on_true =
      if body_entry = loop.header then None
      else Some { pre; i_pre; latch; test; body_entry; exit; stays_on_true }
    in
    match (in_loop loop t, in_loop loop e) with
    | true, false -> shape t e true
    | false, true -> shape e t false
    | _ -> None)
  | _ -> None

type induction = { phi : Mir.def; next : Mir.def; init : int; stride : int }

let inductions (f : Mir.func) loop ~i_pre =
  List.filter_map
    (fun (phi : Mir.instr) ->
      match phi.Mir.kind with
      | Mir.Phi [| a; b |] -> (
        let init, next = if i_pre = 0 then (a, b) else (b, a) in
        match (Mir.const_int f init, (Mir.instr f next).Mir.kind) with
        | Some init, Mir.Binop (Runtime.Ops.Add, x, y, _) -> (
          let x = Mir.strip_to_number f x and y = Mir.strip_to_number f y in
          let stride =
            if x = phi.Mir.def then Mir.const_int f y
            else if y = phi.Mir.def then Mir.const_int f x
            else None
          in
          match stride with
          | Some stride when stride > 0 -> Some { phi = phi.Mir.def; next; init; stride }
          | _ -> None)
        | _ -> None)
      | _ -> None)
    (Mir.block f loop.header).Mir.phis

type rewritten = Kept | Contracted | Reshaped

(* The sweep's queue: loops by current size, then rank among equal sizes. *)
module By_size = Set.Make (struct
  type t = int * int

  let compare (s, r) (s', r') = if s <> s' then Int.compare s s' else Int.compare r r'
end)

(* One sweep walks one forest, smallest loop first. A contraction keeps
   the forest and the dominator tree valid (see [contract]); only the
   enclosing loops change, each losing the contracted header, so they move
   up the queue as they shrink. That is the order one-loop rounds over a
   recomputed forest would take. Returns whether another sweep should
   follow: something was rewritten and [limit] is not reached. *)
let sweep ~limit ~after n (f : Mir.func) doms loops rewrite =
  let size = Array.map (fun l -> List.length l.body) loops in
  (* [parent.(i)]: the innermost loop strictly enclosing loop [i]. Loops
     with different headers are disjoint or nested, so walking them
     largest first leaves [inner.(b)] at the smallest loop so far that
     holds [b]. *)
  let parent = Array.make (Array.length loops) (-1) in
  let inner = Array.make f.Mir.next_block (-1) in
  List.iter
    (fun i ->
      parent.(i) <- inner.(loops.(i).header);
      List.iter (fun b -> inner.(b) <- i) loops.(i).body)
    (List.stable_sort
       (fun i j -> Int.compare size.(j) size.(i))
       (List.init (Array.length loops) Fun.id));
  let queue = ref (By_size.of_seq (Seq.mapi (fun i s -> (s, i)) (Array.to_seq size))) in
  (* Headers contracted so far, and the loops whose bodies hold one. *)
  let contracted = ref [] and gone = Array.make f.Mir.next_block false in
  let stale = Array.make (Array.length loops) false in
  let rec shrink i =
    if i >= 0 then begin
      queue := By_size.add (size.(i) - 1, i) (By_size.remove (size.(i), i) !queue);
      size.(i) <- size.(i) - 1;
      stale.(i) <- true;
      shrink parent.(i)
    end
  in
  let rec next () =
    match By_size.min_elt_opt !queue with
    | _ when !n >= limit -> false
    | None -> !contracted <> []
    | Some ((_, i) as key) -> (
      queue := By_size.remove key !queue;
      let loop = loops.(i) in
      let loop =
        if stale.(i) then { loop with body = List.filter (fun b -> not gone.(b)) loop.body }
        else loop
      in
      match rewrite loop with
      | Kept -> next ()
      | Contracted ->
        incr n;
        contract doms loop.header;
        contracted := loop.header :: !contracted;
        gone.(loop.header) <- true;
        shrink parent.(i);
        after doms;
        next ()
      | Reshaped ->
        incr n;
        !n < limit)
  in
  let again = next () in
  if !contracted <> [] then Mir.remove_blocks f !contracted;
  again

let rewrite_innermost ?(limit = max_int) ?(after = ignore) (f : Mir.func) rewrite =
  let n = ref 0 in
  let rec sweeps () =
    let doms = dominators f in
    match loops_by_header f doms with
    | [] -> ()
    | loops ->
      if sweep ~limit ~after n f doms (Array.of_list loops) (rewrite doms) then sweeps ()
  in
  sweeps ();
  !n
