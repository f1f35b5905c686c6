(* In-memory wall-clock spans around the benchmark's calls into each VM
   layer. The VM itself is a black box here: every span is opened and
   closed by the benchmark, so tracing never changes what [lib/] runs, only
   what it costs to watch it. Spans are kept in memory and written out once
   at the end of the run. *)

type span = { id : int; name : string; parent : int; t0 : float; t1 : float }

type t = {
  on : bool;
  mutable stack : int list;
  mutable spans : span list;  (** reversed close order *)
}

let now = Unix.gettimeofday

(* Span ids are unique across every tracer of the run, so the spans of
   several tracers can be written out together. *)
let next_id = ref 0

let create on = { on; stack = []; spans = [] }
let off = create false

let span tr name f =
  if not tr.on then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match tr.stack with p :: _ -> p | [] -> -1 in
    tr.stack <- id :: tr.stack;
    let t0 = now () in
    Fun.protect f ~finally:(fun () ->
        let t1 = now () in
        tr.stack <- List.tl tr.stack;
        tr.spans <- { id; name; parent; t0; t1 } :: tr.spans)
  end

let spans tr = List.rev tr.spans

(* Self time is a span's duration minus the durations of its children. *)
let self_times spans =
  let children = Hashtbl.create 64 in
  let children_s id = Option.value (Hashtbl.find_opt children id) ~default:0.0 in
  List.iter (fun s -> Hashtbl.replace children s.parent (children_s s.parent +. (s.t1 -. s.t0))) spans;
  List.map (fun s -> (s, s.t1 -. s.t0 -. children_s s.id)) spans

(* Per span name: (calls, total seconds, self seconds), name-sorted. *)
let totals spans =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (s, self) ->
      let n, tot, slf = Option.value (Hashtbl.find_opt tbl s.name) ~default:(0, 0.0, 0.0) in
      Hashtbl.replace tbl s.name (n + 1, tot +. (s.t1 -. s.t0), slf +. self))
    (self_times spans);
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let total_s spans name =
  List.fold_left
    (fun acc s -> if s.name = name then acc +. (s.t1 -. s.t0) else acc)
    0.0 spans

(* Chrome trace-event JSON (loadable in Perfetto / chrome://tracing); the
   parent id and self time ride in each event's args. *)
let write_chrome path spans =
  let base = List.fold_left (fun acc s -> Float.min acc s.t0) infinity spans in
  let selfs = self_times spans in
  let oc = open_out path in
  output_string oc "[\n";
  List.iteri
    (fun i (s, self) ->
      Printf.fprintf oc
        "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.1f,\"dur\":%.1f,\"args\":{\"id\":%d,\"parent\":%d,\"self_us\":%.1f}}"
        (if i = 0 then "" else ",\n")
        (Telemetry.json_escape s.name)
        ((s.t0 -. base) *. 1e6)
        ((s.t1 -. s.t0) *. 1e6)
        s.id s.parent (self *. 1e6))
    selfs;
  output_string oc "\n]\n";
  close_out oc
