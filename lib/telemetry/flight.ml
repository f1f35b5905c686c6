(* The flight recorder: a bounded ring of the telemetry events its hubs
   stamped, with triggered post-mortem dumps. Pure model-clock data in, so
   dumps are byte-identical at any --jobs; capture count is bounded so
   chaos runs cannot balloon the output. *)

type entry = { fe_seq : int; fe_event : Telemetry.event }

type dump = {
  d_trigger : string;
  d_detail : string;
  d_at : int;
  d_dropped : int;
  d_entries : entry list;
}

type t = {
  buf : entry array;
  mutable next : int;  (* next write position *)
  mutable total : int;  (* entries ever recorded *)
  max_dumps : int;
  mutable dumps : dump list;  (* reversed *)
  mutable ndumps : int;
}

(* What an unwritten slot holds; [entries] never reads one. *)
let empty =
  { fe_seq = 0;
    fe_event = { Telemetry.fid = 0; fname = ""; at = 0; ctx = None; what = Telemetry.Blacklist } }

let create ?(capacity = 64) ?(max_dumps = 4) () =
  if capacity <= 0 then invalid_arg "Flight.create: capacity must be positive";
  if max_dumps <= 0 then invalid_arg "Flight.create: max_dumps must be positive";
  { buf = Array.make capacity empty; next = 0; total = 0; max_dumps; dumps = []; ndumps = 0 }

let dropped t = max 0 (t.total - Array.length t.buf)
let dumps t = List.rev t.dumps

(* The ring at this instant, oldest first. *)
let entries t =
  let cap = Array.length t.buf in
  let start = if t.total <= cap then 0 else t.next in
  List.init (min t.total cap) (fun i -> t.buf.((start + i) mod cap))

let trigger t ~trigger ~detail ~at =
  if t.ndumps < t.max_dumps then begin
    t.ndumps <- t.ndumps + 1;
    t.dumps <-
      { d_trigger = trigger; d_detail = detail; d_at = at; d_dropped = dropped t;
        d_entries = entries t }
      :: t.dumps
  end

let record t (ev : Telemetry.event) =
  t.total <- t.total + 1;
  t.buf.(t.next) <- { fe_seq = t.total; fe_event = ev };
  t.next <- (t.next + 1) mod Array.length t.buf;
  (* Policy emergencies self-trigger: the post-mortem must capture the
     window *leading up to* the quarantine, which only this instant has. *)
  match ev.what with
  | Telemetry.Quarantine { reason; _ } ->
    let kind =
      match reason with Telemetry.Deopt_storm -> "deopt-storm" | _ -> "quarantine"
    in
    trigger t ~trigger:kind ~detail:ev.fname ~at:ev.at
  | _ -> ()

let attach t hub = Telemetry.attach hub (record t)

(* The request an entry was recorded for: trace 0 and request and tenant
   -1 without one. *)
let who (ev : Telemetry.event) =
  match ev.ctx with
  | Some c -> (c.tc_trace, c.tc_request, c.tc_tenant)
  | None -> (0, -1, -1)

let jstr s = "\"" ^ Telemetry.json_escape s ^ "\""

let output_jsonl oc dumps =
  List.iter
    (fun d ->
      Printf.fprintf oc
        "{\"schema\":\"vs-flight/1\",\"trigger\":%s,\"detail\":%s,\"at\":%d,\"dropped\":%d,\"entries\":%d}\n"
        (jstr d.d_trigger) (jstr d.d_detail) d.d_at d.d_dropped (List.length d.d_entries);
      List.iter
        (fun e ->
          let trace, request, tenant = who e.fe_event in
          Printf.fprintf oc
            "{\"seq\":%d,\"ts\":%d,\"trace\":%d,\"request\":%d,\"tenant\":%d,\"event\":%s}\n"
            e.fe_seq e.fe_event.at trace request tenant (Telemetry.to_json e.fe_event))
        d.d_entries)
    dumps

let render d =
  let buf = Buffer.create 512 in
  Printf.bprintf buf "flight[%s] at=%d detail=%s dropped=%d entries=%d\n" d.d_trigger d.d_at
    d.d_detail d.d_dropped (List.length d.d_entries);
  List.iter
    (fun e ->
      let trace, request, tenant = who e.fe_event in
      Printf.bprintf buf "  #%d @%d%s %s\n" e.fe_seq e.fe_event.at
        (if trace = 0 then "" else Printf.sprintf " trace=%d rq=%d tenant=%d" trace request tenant)
        (Telemetry.to_string e.fe_event))
    d.d_entries;
  Buffer.contents buf
