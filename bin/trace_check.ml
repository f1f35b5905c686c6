(* Hermetic validator for the observability export artifacts, used by the
   `dune build @profile` and `@obs` gates (bin/dune) so CI needs no
   external JSON tool.

     trace_check FILE.json ...           validate Chrome trace-event files
     trace_check --profile-out FILE ...  validate `jsvm --profile` output
     trace_check --metrics-prom FILE ... validate Prometheus text exports
     trace_check --metrics-json FILE ... validate JSONL metric snapshots
     trace_check --flight FILE ...       validate flight-recorder JSONL
     trace_check --digest FILE ...       print "MD5  BASENAME" per file

   A trace file must be a single JSON object {"traceEvents": [...]} whose
   events are complete ("ph":"X") with a non-empty name, non-negative
   integer ts/dur, and pid/tid fields — or flow stitches ("ph":"s"/"f")
   carrying an "id"; every flow id must have exactly one start and one
   finish, start not after finish (no dangling or double stitches). A
   profile dump must contain the attribution table and an exactly
   balanced "attributed=N of total=N" line. Exits non-zero with a message
   on the first violation. *)

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("trace_check: " ^ s);
      exit 1)
    fmt

(* ------------------------------------------------------------------ *)
(* A minimal recursive-descent JSON reader — just enough of RFC 8259   *)
(* for trace files we emit ourselves (no surrogate-pair decoding; the   *)
(* escapes are validated and the string kept verbatim).                 *)
(* ------------------------------------------------------------------ *)

type json =
  | J_null
  | J_bool of bool
  | J_num of float
  | J_str of string
  | J_list of json list
  | J_obj of (string * json) list

let parse_json ~file s =
  let pos = ref 0 in
  let len = String.length s in
  let error msg = fail "%s: invalid JSON at byte %d: %s" file !pos msg in
  let peek () = if !pos < len then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> error (Printf.sprintf "expected %C" c)
  in
  let literal word value =
    if !pos + String.length word <= len && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      value
    end
    else error (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= len then error "unterminated string";
      let c = s.[!pos] in
      advance ();
      match c with
      | '"' -> Buffer.contents buf
      | '\\' ->
        (if !pos >= len then error "unterminated escape";
         let e = s.[!pos] in
         advance ();
         match e with
         | '"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't' ->
           Buffer.add_char buf '\\';
           Buffer.add_char buf e
         | 'u' ->
           if !pos + 4 > len then error "truncated \\u escape";
           for _ = 1 to 4 do
             (match s.[!pos] with
             | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> ()
             | _ -> error "bad \\u escape");
             advance ()
           done;
           Buffer.add_string buf "\\u";
           Buffer.add_string buf (String.sub s (!pos - 4) 4)
         | _ -> error "bad escape character");
        go ()
      | c when Char.code c < 0x20 -> error "raw control byte in string"
      | c ->
        Buffer.add_char buf c;
        go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < len && is_num_char s.[!pos] do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> error "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '"' -> J_str (parse_string ())
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        J_obj []
      end
      else begin
        let rec members acc =
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ((key, v) :: acc)
          | Some '}' ->
            advance ();
            J_obj (List.rev ((key, v) :: acc))
          | _ -> error "expected ',' or '}'"
        in
        members []
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        J_list []
      end
      else begin
        let rec elements acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elements (v :: acc)
          | Some ']' ->
            advance ();
            J_list (List.rev (v :: acc))
          | _ -> error "expected ',' or ']'"
        in
        elements []
      end
    | Some 't' -> J_bool (literal "true" true)
    | Some 'f' -> J_bool (literal "false" false)
    | Some 'n' -> literal "null" J_null
    | Some ('-' | '0' .. '9') -> J_num (parse_number ())
    | _ -> error "expected a value"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> len then error "trailing garbage after document";
  v

(* ------------------------------------------------------------------ *)
(* Shape checks                                                        *)
(* ------------------------------------------------------------------ *)

let read_file file =
  let ic = try open_in_bin file with Sys_error e -> fail "%s" e in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let field obj key =
  match obj with
  | J_obj kvs -> List.assoc_opt key kvs
  | _ -> None

(* One flow id's observed lifecycle, folded over the event list. *)
type flow_state = { f_starts : int; f_finishes : int; f_start_ts : float; f_finish_ts : float }

let check_event ~file ~flows i ev =
  let get key =
    match field ev key with
    | Some v -> v
    | None -> fail "%s: event %d: missing %S field" file i key
  in
  (match get "name" with
  | J_str "" -> fail "%s: event %d: empty name" file i
  | J_str _ -> ()
  | _ -> fail "%s: event %d: name is not a string" file i);
  (match get "cat" with
  | J_str _ -> ()
  | _ -> fail "%s: event %d: cat is not a string" file i);
  let non_negative_int key =
    match get key with
    | J_num f when Float.is_integer f && f >= 0.0 -> f
    | _ -> fail "%s: event %d: %s is not a non-negative integer" file i key
  in
  let ts = non_negative_int "ts" in
  ignore (non_negative_int "pid");
  ignore (non_negative_int "tid");
  let note_flow start =
    let id = non_negative_int "id" in
    let prev =
      match Hashtbl.find_opt flows id with
      | Some st -> st
      | None -> { f_starts = 0; f_finishes = 0; f_start_ts = 0.0; f_finish_ts = 0.0 }
    in
    Hashtbl.replace flows id
      (if start then { prev with f_starts = prev.f_starts + 1; f_start_ts = ts }
       else { prev with f_finishes = prev.f_finishes + 1; f_finish_ts = ts })
  in
  match get "ph" with
  | J_str "X" -> ignore (non_negative_int "dur")
  | J_str "s" -> note_flow true
  | J_str "f" ->
    (match field ev "bp" with
    | Some (J_str "e") -> ()
    | _ -> fail "%s: event %d: flow finish without bp:\"e\"" file i);
    note_flow false
  | _ -> fail "%s: event %d: ph is not \"X\", \"s\" or \"f\"" file i

(* Every flow id must stitch exactly once: one start, one finish, in
   order. A dangling start (a background compile whose install was never
   traced), a dangling finish, or a reused id would all render as broken
   arrows in Perfetto — fail loudly instead. *)
let check_flows ~file flows =
  let ids = Hashtbl.fold (fun id _ acc -> id :: acc) flows [] in
  List.iter
    (fun id ->
      let st = Hashtbl.find flows id in
      if st.f_starts <> 1 then
        fail "%s: flow id %.0f has %d starts (want exactly 1)" file id st.f_starts;
      if st.f_finishes <> 1 then
        fail "%s: flow id %.0f has %d finishes (want exactly 1)" file id st.f_finishes;
      if st.f_start_ts > st.f_finish_ts then
        fail "%s: flow id %.0f finishes at ts=%.0f before its start at ts=%.0f" file id
          st.f_finish_ts st.f_start_ts)
    (List.sort compare ids);
  List.length ids

let check_trace file =
  let doc = parse_json ~file (read_file file) in
  match field doc "traceEvents" with
  | Some (J_list events) ->
    if events = [] then fail "%s: traceEvents is empty" file;
    let flows = Hashtbl.create 64 in
    List.iteri (check_event ~file ~flows) events;
    let nflows = check_flows ~file flows in
    Printf.printf "trace_check: %s: %d events, %d flows OK\n" file (List.length events)
      nflows
  | Some _ -> fail "%s: traceEvents is not an array" file
  | None -> fail "%s: no traceEvents key" file

(* `jsvm --profile` output: the attribution table header must be present
   and the profiler's total must equal the engine's (the exact-attribution
   contract, end to end through the CLI). *)
let check_profile_out file =
  let s = read_file file in
  let lines = String.split_on_char '\n' s in
  if not (List.exists (fun l -> l = "-- cycle attribution --") lines) then
    fail "%s: no cycle attribution table" file;
  match
    List.find_map
      (fun l -> Scanf.sscanf_opt l "attributed=%d of total=%d" (fun a t -> (a, t)))
      lines
  with
  | None -> fail "%s: no attributed/total line" file
  | Some (a, t) when a <> t -> fail "%s: attributed=%d but total=%d" file a t
  | Some (a, _) -> Printf.printf "trace_check: %s: attributed=%d balanced OK\n" file a

(* ------------------------------------------------------------------ *)
(* Metrics exports                                                     *)
(* ------------------------------------------------------------------ *)

(* Prometheus text exposition: every sample line is `name value` or
   `name{k="v",...} value`, every sample's base name is declared by a
   preceding # TYPE line (histogram samples use the _bucket/_sum/_count
   suffixes), and each histogram's bucket series is cumulative,
   non-decreasing, with the +Inf bucket equal to its _count. *)
let check_metrics_prom file =
  let s = read_file file in
  let lines = String.split_on_char '\n' s |> List.filter (fun l -> l <> "") in
  if lines = [] then fail "%s: empty metrics export" file;
  let typed = Hashtbl.create 16 in
  (* (name, labels-sans-le) -> (last cumulative le bucket, inf value) *)
  let buckets : (string * string, float * float option) Hashtbl.t = Hashtbl.create 16 in
  let counts : (string * string, float) Hashtbl.t = Hashtbl.create 16 in
  let base name =
    let strip suffix =
      if String.length name > String.length suffix
         && String.sub name (String.length name - String.length suffix) (String.length suffix)
            = suffix
      then Some (String.sub name 0 (String.length name - String.length suffix))
      else None
    in
    match (strip "_bucket", strip "_sum", strip "_count") with
    | Some b, _, _ -> b
    | _, Some b, _ | _, _, Some b ->
      if Hashtbl.mem typed b then b else name  (* _sum/_count of a histogram *)
    | _ -> name
  in
  let nsamples = ref 0 in
  List.iteri
    (fun i line ->
      let lno = i + 1 in
      if String.length line > 0 && line.[0] = '#' then begin
        match String.split_on_char ' ' line with
        | "#" :: "TYPE" :: name :: [ kind ] ->
          if not (List.mem kind [ "counter"; "gauge"; "histogram" ]) then
            fail "%s:%d: unknown TYPE %s" file lno kind;
          Hashtbl.replace typed name kind
        | _ -> fail "%s:%d: malformed comment line (want # TYPE name kind)" file lno
      end
      else begin
        let name_part, value_part =
          match String.rindex_opt line ' ' with
          | Some sp ->
            (String.sub line 0 sp, String.sub line (sp + 1) (String.length line - sp - 1))
          | None -> fail "%s:%d: sample line without a value" file lno
        in
        let value =
          match float_of_string_opt value_part with
          | Some v -> v
          | None -> fail "%s:%d: bad sample value %S" file lno value_part
        in
        let name, labels =
          match String.index_opt name_part '{' with
          | Some b ->
            if name_part.[String.length name_part - 1] <> '}' then
              fail "%s:%d: unterminated label set" file lno;
            ( String.sub name_part 0 b,
              String.sub name_part (b + 1) (String.length name_part - b - 2) )
          | None -> (name_part, "")
        in
        if name = "" then fail "%s:%d: empty metric name" file lno;
        String.iter
          (fun c ->
            match c with
            | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> ()
            | _ -> fail "%s:%d: invalid character %C in metric name %s" file lno c name)
          name;
        if not (Hashtbl.mem typed (base name)) then
          fail "%s:%d: sample %s without a preceding # TYPE for %s" file lno name (base name);
        incr nsamples;
        (* Histogram bucket bookkeeping. *)
        let is_bucket =
          String.length name > 7 && String.sub name (String.length name - 7) 7 = "_bucket"
        in
        if is_bucket then begin
          let hist = String.sub name 0 (String.length name - 7) in
          let le, rest =
            let parts = String.split_on_char ',' labels in
            let les, others = List.partition (fun p -> String.length p > 3 && String.sub p 0 3 = "le=") parts in
            match les with
            | [ le ] -> (String.sub le 4 (String.length le - 5), String.concat "," others)
            | _ -> fail "%s:%d: bucket sample without exactly one le label" file lno
          in
          let key = (hist, rest) in
          let prev, _ = Option.value (Hashtbl.find_opt buckets key) ~default:(0.0, None) in
          if value < prev then
            fail "%s:%d: bucket series for %s not cumulative (%g after %g)" file lno hist
              value prev;
          Hashtbl.replace buckets key
            (value, if le = "+Inf" then Some value else None)
        end
        else if String.length name > 6 && String.sub name (String.length name - 6) 6 = "_count"
        then Hashtbl.replace counts (String.sub name 0 (String.length name - 6), labels) value
      end)
    lines;
  Hashtbl.iter
    (fun (hist, labels) (_, inf) ->
      match inf with
      | None -> fail "%s: histogram %s has no +Inf bucket" file hist
      | Some v -> (
        match Hashtbl.find_opt counts (hist, labels) with
        | Some c when c <> v ->
          fail "%s: histogram %s: +Inf bucket %g <> _count %g" file hist v c
        | Some _ -> ()
        | None -> fail "%s: histogram %s has buckets but no _count" file hist))
    buckets;
  Printf.printf "trace_check: %s: %d samples OK\n" file !nsamples

(* JSONL snapshots: every line one vs-metrics/1 object with an integer
   cycle and a metrics array. The file is in (cycle, isolate) order with
   the closing makespan line last, so no cycle is lower than the one
   before it. *)
let check_metrics_json file =
  let s = read_file file in
  let lines = String.split_on_char '\n' s |> List.filter (fun l -> l <> "") in
  if lines = [] then fail "%s: empty snapshot file" file;
  let prev = ref 0.0 in
  List.iteri
    (fun i line ->
      let lno = i + 1 in
      let doc = parse_json ~file:(Printf.sprintf "%s:%d" file lno) line in
      (match field doc "schema" with
      | Some (J_str "vs-metrics/1") -> ()
      | _ -> fail "%s:%d: schema is not \"vs-metrics/1\"" file lno);
      (match field doc "cycle" with
      | Some (J_num f) when Float.is_integer f && f >= 0.0 ->
        if f < !prev then
          fail "%s:%d: cycle %.0f is lower than the previous line's %.0f" file lno f !prev;
        prev := f
      | _ -> fail "%s:%d: cycle is not a non-negative integer" file lno);
      match field doc "metrics" with
      | Some (J_list _) -> ()
      | _ -> fail "%s:%d: metrics is not an array" file lno)
    lines;
  Printf.printf "trace_check: %s: %d snapshots OK\n" file (List.length lines)

(* Flight-recorder JSONL: vs-flight/1 header objects, each followed by
   exactly its declared number of entry objects. *)
let check_flight file =
  let s = read_file file in
  let lines = String.split_on_char '\n' s |> List.filter (fun l -> l <> "") in
  if lines = [] then fail "%s: empty flight-recorder file" file;
  let ndumps = ref 0 in
  let remaining = ref 0 in
  List.iteri
    (fun i line ->
      let lno = i + 1 in
      let doc = parse_json ~file:(Printf.sprintf "%s:%d" file lno) line in
      if !remaining > 0 then begin
        (match field doc "event" with
        | Some (J_obj _) -> ()
        | _ -> fail "%s:%d: flight entry without an event object" file lno);
        decr remaining
      end
      else begin
        (match field doc "schema" with
        | Some (J_str "vs-flight/1") -> ()
        | _ -> fail "%s:%d: expected a vs-flight/1 dump header" file lno);
        (match field doc "trigger" with
        | Some (J_str (("fault" | "deadline" | "quarantine" | "deopt-storm" | "end-of-run") )) -> ()
        | Some (J_str t) -> fail "%s:%d: unknown trigger %S" file lno t
        | _ -> fail "%s:%d: header without a trigger" file lno);
        (match field doc "entries" with
        | Some (J_num f) when Float.is_integer f && f >= 0.0 ->
          remaining := int_of_float f
        | _ -> fail "%s:%d: header without an entry count" file lno);
        incr ndumps
      end)
    lines;
  if !remaining > 0 then fail "%s: truncated final dump (%d entries missing)" file !remaining;
  Printf.printf "trace_check: %s: %d dumps OK\n" file !ndumps

(* One golden line per artifact: the @obs and @profile gates diff these
   against committed digest files, so an export that drifts fails the gate
   even when it still validates. *)
let print_digest file =
  Printf.printf "%s  %s\n" (Digest.to_hex (Digest.file file)) (Filename.basename file)

type mode = M_trace | M_profile | M_prom | M_json | M_flight | M_digest

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  if args = [] then
    fail
      "usage: trace_check [--profile-out|--metrics-prom|--metrics-json|--flight|--digest] \
       FILE ...";
  let rec go mode = function
    | [] -> ()
    | "--profile-out" :: rest -> go M_profile rest
    | "--metrics-prom" :: rest -> go M_prom rest
    | "--metrics-json" :: rest -> go M_json rest
    | "--flight" :: rest -> go M_flight rest
    | "--digest" :: rest -> go M_digest rest
    | file :: rest ->
      (match mode with
      | M_trace -> check_trace file
      | M_profile -> check_profile_out file
      | M_prom -> check_metrics_prom file
      | M_json -> check_metrics_json file
      | M_flight -> check_flight file
      | M_digest -> print_digest file);
      go mode rest
  in
  go M_trace args
