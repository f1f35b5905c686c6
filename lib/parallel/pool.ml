(* A small fork-join task pool on OCaml 5 domains.

   One FIFO of [map] tasks and, popped only when it is empty, one of
   [submit] jobs, both under one mutex; [jobs - 1] worker domains plus
   the submitting domain itself. [map] enqueues one task per element and
   then *helps*: while its own tasks are outstanding it pops and runs
   whatever is at the head of the queue — including tasks submitted by a
   nested [map] running on a worker — so nested fan-out can never
   deadlock, and a 1-job pool degenerates to plain [List.map] without
   spawning anything.

   Determinism contract: results come back as [(index, result)] pairs
   merged in index order, so a [map] returns exactly what the serial
   [List.map] would — scheduling affects wall-clock only. Exceptions are
   captured per task and the failure with the smallest index is re-raised
   (with its original backtrace) after all tasks of the map have drained,
   again matching what a serial left-to-right run would report first. *)

type jstate = Pending | Running | Done | Cancelled

type job = {
  run : unit -> unit;  (* never raises: failures are captured by the map *)
  submitter : int;  (* Domain.id of the submitting domain, for steal stats *)
  remaining : int ref;  (* outstanding tasks of the owning map; under [m] *)
  state : jstate ref option;  (* submit-job lifecycle, under [m]; None for map tasks *)
}

type ticket = { tj : job }

type t = {
  m : Mutex.t;
  work_available : Condition.t;  (* queue gained a job, or shutdown *)
  task_done : Condition.t;  (* some job finished (broadcast) *)
  queue : job Queue.t;  (* [map] tasks, popped before [submits] *)
  submits : job Queue.t;  (* [submit] jobs *)
  jobs : int;
  mutable live : bool;
  mutable workers : unit Domain.t list;
  (* Utilization stats, all under [m]. [tasks.(0)] counts tasks executed
     by helping submitters; [tasks.(i)] for i >= 1 by worker i. *)
  tasks : int array;
  mutable steals : int;  (* tasks executed by a domain other than their submitter *)
  mutable joins : int;
  mutable join_wait : float;  (* wall-clock seconds spent inside joins *)
}

type stats = {
  st_jobs : int;
  st_tasks : int array;
  st_steals : int;
  st_joins : int;
  st_join_wait : float;
}

(* Which participant of a pool this domain is: workers set their 1-based
   index once at spawn; any other domain (the main domain, or a worker of
   a different pool) accounts as participant 0. Stats attribution only —
   scheduling never consults this. *)
let participant : int Support.Tls.t = Support.Tls.make (fun () -> 0)

let self_id () = (Domain.self () :> int)

let exec pool job =
  job.run ();
  let id = Support.Tls.get participant in
  let id = if id >= 0 && id < Array.length pool.tasks then id else 0 in
  Mutex.lock pool.m;
  (match job.state with Some st -> st := Done | None -> ());
  pool.tasks.(id) <- pool.tasks.(id) + 1;
  if self_id () <> job.submitter then pool.steals <- pool.steals + 1;
  decr job.remaining;
  Condition.broadcast pool.task_done;
  Mutex.unlock pool.m

(* Pop the next runnable job, [map] tasks first, discarding cancelled ones
   lazily (cancellation just flips the state; the entry stays queued until
   a popper meets it here). Caller holds [m]. *)
let rec pop_job pool =
  let q =
    if not (Queue.is_empty pool.queue) then Some pool.queue
    else if not (Queue.is_empty pool.submits) then Some pool.submits
    else None
  in
  match q with
  | None -> None
  | Some q -> (
    let job = Queue.pop q in
    match job.state with
    | Some st when !st = Cancelled ->
      decr job.remaining;
      Condition.broadcast pool.task_done;
      pop_job pool
    | Some st ->
      st := Running;
      Some job
    | None -> Some job)

let rec worker_loop pool =
  Mutex.lock pool.m;
  let rec next () =
    match pop_job pool with
    | Some job -> Some job
    | None ->
      if pool.live then begin
        Condition.wait pool.work_available pool.m;
        next ()
      end
      else None
  in
  match next () with
  | None -> Mutex.unlock pool.m
  | Some job ->
    Mutex.unlock pool.m;
    exec pool job;
    worker_loop pool

let create ~jobs =
  let jobs = max 1 jobs in
  let pool =
    {
      m = Mutex.create ();
      work_available = Condition.create ();
      task_done = Condition.create ();
      queue = Queue.create ();
      submits = Queue.create ();
      jobs;
      live = true;
      workers = [];
      tasks = Array.make jobs 0;
      steals = 0;
      joins = 0;
      join_wait = 0.0;
    }
  in
  pool.workers <-
    List.init (jobs - 1) (fun i ->
        Domain.spawn (fun () ->
            Support.Tls.set participant (i + 1);
            worker_loop pool));
  pool

let jobs pool = pool.jobs

let shutdown pool =
  Mutex.lock pool.m;
  if pool.live then begin
    pool.live <- false;
    Condition.broadcast pool.work_available;
    Mutex.unlock pool.m;
    List.iter Domain.join pool.workers;
    pool.workers <- []
  end
  else Mutex.unlock pool.m

let stats pool =
  Mutex.lock pool.m;
  let s =
    {
      st_jobs = pool.jobs;
      st_tasks = Array.copy pool.tasks;
      st_steals = pool.steals;
      st_joins = pool.joins;
      st_join_wait = pool.join_wait;
    }
  in
  Mutex.unlock pool.m;
  s

let map pool f xs =
  match xs with
  | [] -> []
  | _ when pool.jobs <= 1 || List.compare_length_with xs 1 = 0 ->
    let r = List.map f xs in
    Mutex.lock pool.m;
    pool.tasks.(0) <- pool.tasks.(0) + List.length r;
    pool.joins <- pool.joins + 1;
    Mutex.unlock pool.m;
    r
  | xs ->
    let items = Array.of_list xs in
    let n = Array.length items in
    let results = Array.make n None in
    let failures = Array.make n None in
    let remaining = ref n in
    let me = self_id () in
    let t0 = Unix.gettimeofday () in
    Mutex.lock pool.m;
    pool.joins <- pool.joins + 1;
    for i = 0 to n - 1 do
      let run () =
        match f items.(i) with
        | v -> results.(i) <- Some v
        | exception e -> failures.(i) <- Some (e, Printexc.get_raw_backtrace ())
      in
      Queue.add { run; submitter = me; remaining; state = None } pool.queue;
      Condition.signal pool.work_available
    done;
    (* Help until every task of *this* map has finished. The popped job may
       belong to a different (nested) map — or be a background submit job —
       running it anyway is what keeps the queue draining when all
       participants are inside joins. *)
    while !remaining > 0 do
      match pop_job pool with
      | Some job ->
        Mutex.unlock pool.m;
        exec pool job;
        Mutex.lock pool.m
      | None -> Condition.wait pool.task_done pool.m
    done;
    pool.join_wait <- pool.join_wait +. (Unix.gettimeofday () -. t0);
    Mutex.unlock pool.m;
    (* Deterministic merge: index order; first failure by index wins. *)
    Array.iter
      (function
        | Some (e, bt) -> Printexc.raise_with_backtrace e bt
        | None -> ())
      failures;
    Array.to_list (Array.map (function Some v -> v | None -> assert false) results)

let mapi pool f xs = map pool (fun (i, x) -> f i x) (List.mapi (fun i x -> (i, x)) xs)

(* ------------------------------------------------------------------ *)
(* Fire-and-forget submissions                                         *)
(* ------------------------------------------------------------------ *)

(* [submit] hands one job to the pool without joining on it, queued behind
   every [map] task; the ticket supports cancellation (honoured only while
   still Pending) and a helping [await] that drains other queued work
   rather than blocking.
   On a 1-job pool the job runs inline right here — same observable
   result, no queue traffic. The [run] closure must capture its own result
   and never raise; publication to the awaiting domain is synchronized by
   the pool mutex ([exec] flips the state to Done under [m] after [run]
   returns, and [await] reads it under [m]). *)
let submit pool run =
  let state = ref Pending in
  let job = { run; submitter = self_id (); remaining = ref 1; state = Some state } in
  if pool.jobs <= 1 then begin
    state := Running;
    run ();
    Mutex.lock pool.m;
    state := Done;
    pool.tasks.(0) <- pool.tasks.(0) + 1;
    Mutex.unlock pool.m;
    { tj = job }
  end
  else begin
    Mutex.lock pool.m;
    Queue.add job pool.submits;
    Condition.signal pool.work_available;
    Mutex.unlock pool.m;
    { tj = job }
  end

let cancel pool { tj } =
  match tj.state with
  | None -> invalid_arg "Pool.cancel: not a submitted job"
  | Some st ->
    Mutex.lock pool.m;
    let ok = !st = Pending in
    if ok then st := Cancelled;
    Mutex.unlock pool.m;
    ok

let await pool { tj } =
  match tj.state with
  | None -> invalid_arg "Pool.await: not a submitted job"
  | Some st ->
    Mutex.lock pool.m;
    let rec loop () =
      match !st with
      | Done | Cancelled -> ()
      | Pending | Running -> (
        (* Help — possibly running the awaited job ourselves. *)
        match pop_job pool with
        | Some job ->
          Mutex.unlock pool.m;
          exec pool job;
          Mutex.lock pool.m;
          loop ()
        | None ->
          Condition.wait pool.task_done pool.m;
          loop ())
    in
    loop ();
    Mutex.unlock pool.m

(* ------------------------------------------------------------------ *)
(* The process-default pool                                            *)
(* ------------------------------------------------------------------ *)

(* Explicit --jobs values are taken as given (clamped to a sane ceiling);
   the automatic default is the hardware parallelism, capped so a big
   machine does not oversubscribe the allocator for harness-sized runs. *)
let clamp_explicit n = max 1 (min n 64)
let auto_cap = 8

let env_jobs () =
  match Sys.getenv_opt "VS_JOBS" with
  | None -> None
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> Some (clamp_explicit n)
    | _ -> None)

let auto_jobs () =
  match env_jobs () with
  | Some n -> n
  | None -> min auto_cap (Domain.recommended_domain_count ())

let default_m = Mutex.create ()
let default_override = ref None
let default_pool = ref None

let default () =
  Mutex.lock default_m;
  let p =
    match !default_pool with
    | Some p -> p
    | None ->
      let jobs = match !default_override with Some n -> n | None -> auto_jobs () in
      let p = create ~jobs in
      default_pool := Some p;
      p
  in
  Mutex.unlock default_m;
  p

let set_default_jobs n =
  let n = clamp_explicit n in
  Mutex.lock default_m;
  default_override := Some n;
  let stale =
    match !default_pool with
    | Some p when p.jobs <> n ->
      default_pool := None;
      Some p
    | _ -> None
  in
  Mutex.unlock default_m;
  Option.iter shutdown stale

let default_jobs () = jobs (default ())

let peek_default () =
  Mutex.lock default_m;
  let p = !default_pool in
  Mutex.unlock default_m;
  p

let () =
  at_exit (fun () ->
      Mutex.lock default_m;
      let p = !default_pool in
      default_pool := None;
      Mutex.unlock default_m;
      Option.iter shutdown p)
