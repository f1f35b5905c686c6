(* Dominator tree, keyed on dense arrays over block ids ([0, next_block)).
   [idom.(b)] is [virtual_root] for the entries and [unreached] for blocks
   no entry reaches (or ids with no block). The pre/post interval numbering
   that makes [dominates] O(1) is built on the first query, so passes that
   only read immediate dominators pay nothing for it. *)
type dominators = {
  idom : int array;
  order : int list;
  intervals : (int array * int array) Lazy.t;
}

(* Cooper-Harvey-Kennedy iterative dominator computation over RPO. With two
   entry points (function entry + OSR), we add a virtual root (-1) that is
   the parent of both. *)
let virtual_root = -1
let unreached = -2

(* Pre/post numbering of the dominator tree: [a] dominates [b] iff [b]'s
   interval nests inside [a]'s. Children are numbered in RPO. *)
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
  let clock = ref 0 in
  let rec visit b =
    pre.(b) <- !clock;
    incr clock;
    List.iter visit children.(b);
    post.(b) <- !clock;
    incr clock
  in
  List.iter visit !roots;
  (pre, post)

let dominators (f : Mir.func) =
  let rpo = Mir.reverse_postorder f in
  let n = f.Mir.next_block in
  let index = Array.make n (-1) in
  List.iteri (fun i bid -> index.(bid) <- i) rpo;
  let idom = Array.make n unreached in
  let entries = Mir.entry_blocks f in
  List.iter (fun e -> idom.(e) <- virtual_root) entries;
  let index_of b = if b = virtual_root then -1 else index.(b) in
  let parent b = if b = virtual_root then virtual_root else idom.(b) in
  let rec intersect a b =
    if a = b then a
    else if index_of a > index_of b then intersect (parent a) b
    else intersect a (parent b)
  in
  let processed p = idom.(p) <> unreached in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun bid ->
        if not (List.mem bid entries) then begin
          let preds = List.filter processed (Mir.block f bid).Mir.preds in
          match preds with
          | [] -> ()
          | first :: rest ->
            let new_idom = List.fold_left intersect first rest in
            if idom.(bid) <> new_idom then begin
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
  let pre, post = Lazy.force doms.intervals in
  pre.(a) <= pre.(b) && post.(b) <= post.(a)

type loop = { header : int; latches : int list; body : int list }

let natural_loops (f : Mir.func) doms =
  let back_edges = ref [] in
  List.iter
    (fun bid ->
      let b = Mir.block f bid in
      List.iter
        (fun succ -> if dominates doms succ bid then back_edges := (bid, succ) :: !back_edges)
        (Mir.successors b))
    doms.order;
  (* Group back edges by header. The table's iteration order is the order
     among loops of equal size in the result; keep it as it is (see the
     interface). *)
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
  List.sort (fun a b -> compare (List.length b.body) (List.length a.body)) !loops

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

(* One loop per round: a rewrite changes the CFG, so dominators and the
   loop forest are recomputed before the next. *)
let rewrite_innermost ?(limit = max_int) (f : Mir.func) rewrite =
  let rec round n =
    if n >= limit then n
    else
      let doms = dominators f in
      (* Innermost (smallest) first. *)
      if List.exists (rewrite doms) (List.rev (natural_loops f doms)) then round (n + 1)
      else n
  in
  round 0
