(* The flight recorder: a bounded ring of trace-stamped telemetry events
   with triggered post-mortem dumps. Pure model-clock data in, so dumps
   are byte-identical at any --jobs; capture count is bounded so chaos
   runs cannot balloon the output. *)

type entry = {
  fe_seq : int;
  fe_ts : int;
  fe_trace : int;
  fe_request : int;
  fe_tenant : int;
  fe_event : Telemetry.event;
}

type dump = {
  d_trigger : string;
  d_detail : string;
  d_at : int;
  d_dropped : int;
  d_entries : entry list;
}

type t = {
  buf : entry option array;
  mutable next : int;  (* next write position *)
  mutable total : int;  (* entries ever recorded *)
  max_dumps : int;
  mutable dumps : dump list;  (* reversed *)
  mutable ndumps : int;
}

let create ?(capacity = 64) ?(max_dumps = 4) () =
  if capacity <= 0 then invalid_arg "Flight.create: capacity must be positive";
  if max_dumps <= 0 then invalid_arg "Flight.create: max_dumps must be positive";
  {
    buf = Array.make capacity None;
    next = 0;
    total = 0;
    max_dumps;
    dumps = [];
    ndumps = 0;
  }

let dropped t = max 0 (t.total - Array.length t.buf)
let dumps t = List.rev t.dumps

(* The ring at this instant, oldest first. *)
let entries t =
  let cap = Array.length t.buf in
  let n = min t.total cap in
  let start = if t.total <= cap then 0 else t.next in
  List.init n (fun i ->
      match t.buf.((start + i) mod cap) with Some e -> e | None -> assert false)

let trigger t ~trigger ~detail ~at =
  if t.ndumps < t.max_dumps then begin
    t.ndumps <- t.ndumps + 1;
    t.dumps <-
      {
        d_trigger = trigger;
        d_detail = detail;
        d_at = at;
        d_dropped = dropped t;
        d_entries = entries t;
      }
      :: t.dumps
  end

let record t ~ts ev =
  let trace, request, tenant =
    match Telemetry.current_trace () with
    | Some c -> (c.Telemetry.tc_trace, c.Telemetry.tc_request, c.Telemetry.tc_tenant)
    | None -> (0, -1, -1)
  in
  t.total <- t.total + 1;
  t.buf.(t.next) <-
    Some
      {
        fe_seq = t.total;
        fe_ts = ts;
        fe_trace = trace;
        fe_request = request;
        fe_tenant = tenant;
        fe_event = ev;
      };
  t.next <- (t.next + 1) mod Array.length t.buf;
  (* Policy emergencies self-trigger: the post-mortem must capture the
     window *leading up to* the quarantine, which only this instant has. *)
  match ev with
  | Telemetry.Quarantine { fname; reason; _ } ->
    let kind =
      match reason with Telemetry.Deopt_storm -> "deopt-storm" | _ -> "quarantine"
    in
    trigger t ~trigger:kind ~detail:fname ~at:ts
  | _ -> ()

let sink t ~clock ev = record t ~ts:(clock ()) ev

let jstr s = "\"" ^ Telemetry.json_escape s ^ "\""

let entry_json e =
  Printf.sprintf "{\"seq\":%d,\"ts\":%d,\"trace\":%d,\"request\":%d,\"tenant\":%d,\"event\":%s}"
    e.fe_seq e.fe_ts e.fe_trace e.fe_request e.fe_tenant
    (Telemetry.to_json e.fe_event)

let dump_jsonl d =
  Printf.sprintf
    "{\"schema\":%s,\"trigger\":%s,\"detail\":%s,\"at\":%d,\"dropped\":%d,\"entries\":%d}"
    (jstr "vs-flight/1") (jstr d.d_trigger) (jstr d.d_detail) d.d_at d.d_dropped
    (List.length d.d_entries)
  :: List.map entry_json d.d_entries

let render d =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "flight[%s] at=%d detail=%s dropped=%d entries=%d\n" d.d_trigger d.d_at
       d.d_detail d.d_dropped (List.length d.d_entries));
  List.iter
    (fun e ->
      let who =
        if e.fe_trace = 0 then ""
        else Printf.sprintf " trace=%d rq=%d tenant=%d" e.fe_trace e.fe_request e.fe_tenant
      in
      Buffer.add_string buf
        (Printf.sprintf "  #%d @%d%s %s\n" e.fe_seq e.fe_ts who
           (Telemetry.to_string e.fe_event)))
    d.d_entries;
  Buffer.contents buf
