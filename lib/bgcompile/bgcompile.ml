(* Background-compile queue: see the .mli for the two-clock design. The
   implementation is deliberately dumb — a list of entries and three
   integers — because every interesting decision (costs, install rules,
   supersede, fault handling) belongs to the engine's payload. *)

module Task = struct
  type 'a state =
    | Thunk of (unit -> 'a)  (* deferred: forced on the harvesting domain *)
    | Submitted of {
        ticket : Pool.ticket;
        cell : ('a, exn * Printexc.raw_backtrace) result option ref;
      }
        (* a pool job never raises: the thunk's outcome, value or
           exception, lands in [cell] and [force] re-raises the latter *)
    | Done of 'a
    | Dead  (* pool job cancelled before it ran *)

  type 'a t = { mutable st : 'a state }

  let spawn ?(inline = false) f =
    if inline || Pool.default_jobs () <= 1 then { st = Thunk f }
    else begin
      let cell = ref None in
      let pool = Pool.default () in
      let run () =
        cell := Some (try Ok (f ()) with e -> Error (e, Printexc.get_raw_backtrace ()))
      in
      let ticket = Pool.submit pool run in
      { st = Submitted { ticket; cell } }
    end

  let force t =
    match t.st with
    | Done v -> v
    | Thunk f ->
      let v = f () in
      t.st <- Done v;
      v
    | Dead -> invalid_arg "Bgcompile.Task.force: cancelled task"
    | Submitted { ticket; cell } -> (
      Pool.await (Pool.default ()) ticket;
      match !cell with
      | Some (Ok v) ->
        t.st <- Done v;
        v
      | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
      | None ->
        (* await returned without a result: the job was cancelled. *)
        t.st <- Dead;
        invalid_arg "Bgcompile.Task.force: cancelled task")

  let cancel t =
    match t.st with
    | Submitted { ticket; _ } ->
      if Pool.cancel (Pool.default ()) ticket then t.st <- Dead
    | Thunk _ -> t.st <- Dead
    | Done _ | Dead -> ()
end

type 'a entry = {
  e_id : int;
  e_fid : int;
  e_enqueue : int;
  e_cost : int;
  e_ready : int;
  e_attempts : int;
  e_payload : 'a;
}

(* The modeled compile service runs a small fixed crew of virtual
   servers, like a real background compiler's thread pool. The width is
   a constant of the model — never the physical [--jobs] — so ready
   cycles are byte-identical however the actual compiles are scheduled.
   Width 1 would serialize every hot function behind the first one and
   stretch the interpret-while-waiting window past what the removed
   stall buys back. *)
let service_width = 4

type 'a t = {
  q_depth : int;
  mutable q_next : int;
  q_busy : int array;  (* per-server busy-until, length [service_width] *)
  mutable q_pending : 'a entry list;  (* enqueue order *)
}

let create ~depth =
  { q_depth = max 1 depth; q_next = 0; q_busy = Array.make service_width 0; q_pending = [] }
let depth q = q.q_depth
let length q = List.length q.q_pending
let pending_for q ~fid = List.find_opt (fun e -> e.e_fid = fid) q.q_pending

let enqueue q ~fid ~now ~cost ?(attempts = 1) payload =
  if List.length q.q_pending >= q.q_depth then Error `Overflow
  else begin
    (* Earliest-free server, lowest index on ties: deterministic. *)
    let srv = ref 0 in
    Array.iteri (fun i b -> if b < q.q_busy.(!srv) then srv := i) q.q_busy;
    let start = max now q.q_busy.(!srv) in
    let ready = start + max 1 cost in
    q.q_busy.(!srv) <- ready;
    let e =
      {
        e_id = q.q_next;
        e_fid = fid;
        e_enqueue = now;
        e_cost = cost;
        e_ready = ready;
        e_attempts = attempts;
        e_payload = payload;
      }
    in
    q.q_next <- q.q_next + 1;
    q.q_pending <- q.q_pending @ [ e ];
    Ok e
  end

let take_ready q ~fid ~now =
  let ready, rest = List.partition (fun e -> e.e_fid = fid && e.e_ready <= now) q.q_pending in
  q.q_pending <- rest;
  List.sort (fun a b -> compare (a.e_ready, a.e_id) (b.e_ready, b.e_id)) ready

let drain q =
  let p = q.q_pending in
  q.q_pending <- [];
  p
