(* The live-metrics registry: exact histograms, rolling rates, gauges and
   counters keyed by label sets, with Prometheus / JSON / dashboard
   renderings. Everything is on the model-cycle clock and every operation
   is deterministic in the observation sequence, so per-isolate registries
   merged in isolate order reproduce a serial run byte-for-byte. *)

type labels = (string * string) list

let canon_labels labels = List.sort (fun (a, _) (b, _) -> compare a b) labels

(* Merge a sorted array with a list of fresh elements: sort the few fresh
   ones and merge the two runs, O(n + k log k) instead of a full re-sort.
   The elements are distinct under [cmp]. *)
let merge_fresh cmp sorted fresh =
  let fresh = Array.of_list fresh in
  Array.sort cmp fresh;
  let n = Array.length sorted and k = Array.length fresh in
  let out = Array.make (n + k) fresh.(0) in
  let i = ref 0 and j = ref 0 in
  for o = 0 to n + k - 1 do
    if !j >= k || (!i < n && cmp sorted.(!i) fresh.(!j) < 0) then begin
      out.(o) <- sorted.(!i);
      incr i
    end
    else begin
      out.(o) <- fresh.(!j);
      incr j
    end
  done;
  out

(* ------------------------------------------------------------------ *)
(* Exact mergeable histograms                                          *)
(* ------------------------------------------------------------------ *)

module Hist = struct
  (* A sparse value -> count table. Latency-like streams in this system
     have far fewer distinct values than observations (the model clock
     quantizes everything), so exactness is affordable — and it is what
     makes merge associative and quantiles identical to the service's
     old nearest-rank arrays. The log-bucket view is derived on demand
     and never feeds back.

     Each distinct value is one mutable cell, shared by the lookup table
     and the value-sorted view. An observe of a known value bumps its
     cell in place and leaves the order alone; a new value waits in
     [fresh] until the next read merges it in. *)
  type cell = { v : int; mutable c : int }

  type t = {
    cells : (int, cell) Hashtbl.t;
    mutable count : int;
    mutable sum : int;
    mutable sorted : cell array;  (* value-sorted: every cell not in [fresh] *)
    mutable fresh : cell list;  (* cells added since [sorted] was built *)
  }

  let create () = { cells = Hashtbl.create 16; count = 0; sum = 0; sorted = [||]; fresh = [] }

  let observe ?(n = 1) h v =
    if n < 0 then invalid_arg "Metrics.Hist.observe: negative count";
    if n > 0 then begin
      (match Hashtbl.find_opt h.cells v with
      | Some cell -> cell.c <- cell.c + n
      | None ->
        let cell = { v; c = n } in
        Hashtbl.add h.cells v cell;
        h.fresh <- cell :: h.fresh);
      h.count <- h.count + n;
      h.sum <- h.sum + (v * n)
    end

  let count h = h.count
  let sum h = h.sum
  let by_value a b = compare (a.v : int) b.v

  let sorted h =
    (match h.fresh with
    | [] -> ()
    | fresh ->
      h.sorted <- merge_fresh by_value h.sorted fresh;
      h.fresh <- []);
    h.sorted

  let values h = Array.fold_right (fun cell acc -> (cell.v, cell.c) :: acc) (sorted h) []

  let min_value h =
    if h.count = 0 then invalid_arg "Metrics.Hist.min_value: empty histogram";
    (sorted h).(0).v

  let max_value h =
    if h.count = 0 then invalid_arg "Metrics.Hist.max_value: empty histogram";
    let s = sorted h in
    s.(Array.length s - 1).v

  (* Nearest-rank: the value at (1-based) rank ceil(p * n), clamped —
     exactly [Serve]'s old [percentile] over the sorted latency array. *)
  let rank h p = min h.count (max 1 (int_of_float (ceil (p *. float_of_int h.count))))

  let quantile h p =
    if h.count = 0 then 0
    else begin
      let rank = rank h p and s = sorted h in
      let rec walk i acc =
        let cell = s.(i) in
        if acc + cell.c >= rank then cell.v else walk (i + 1) (acc + cell.c)
      in
      walk 0 0
    end

  let merge_into ~into src = Array.iter (fun cell -> observe ~n:cell.c into cell.v) (sorted src)

  let merge a b =
    let h = create () in
    merge_into ~into:h a;
    merge_into ~into:h b;
    h

  (* Everything an export prints about a histogram, from one walk over
     its sorted cells. *)
  type summary = {
    s_min : int;
    s_max : int;
    s_p50 : int;
    s_p95 : int;
    s_p99 : int;
    s_buckets : (int option * int) list;
  }

  (* The HDR-style export projection: cumulative counts at log2 upper
     bounds. Bound 0 catches non-positive values; each further bound
     doubles until it covers the maximum; +Inf closes the series. The
     walk consumes the cells up to each bound in turn and notes where the
     running count first reaches each quantile's rank. *)
  let summary h =
    if h.count = 0 then
      { s_min = 0; s_max = 0; s_p50 = 0; s_p95 = 0; s_p99 = 0; s_buckets = [ (None, 0) ] }
    else begin
      let s = sorted h in
      let n = Array.length s in
      let vmax = s.(n - 1).v in
      let r50 = rank h 0.50 and r95 = rank h 0.95 and r99 = rank h 0.99 in
      let p50 = ref 0 and p95 = ref 0 and p99 = ref 0 in
      let i = ref 0 and cum = ref 0 in
      let upto le =
        while !i < n && s.(!i).v <= le do
          let cell = s.(!i) in
          let before = !cum in
          cum := before + cell.c;
          if before < r50 && !cum >= r50 then p50 := cell.v;
          if before < r95 && !cum >= r95 then p95 := cell.v;
          if before < r99 && !cum >= r99 then p99 := cell.v;
          incr i
        done;
        (Some le, !cum)
      in
      let rec bounds b =
        if b < vmax && b > 0 then
          let bucket = upto b in
          bucket :: bounds (b * 2)
        else [ upto (max vmax b); (None, h.count) ]
      in
      let zero = upto 0 in
      let s_buckets = if vmax > 0 then zero :: bounds 1 else [ zero; (None, h.count) ] in
      { s_min = s.(0).v; s_max = vmax; s_p50 = !p50; s_p95 = !p95; s_p99 = !p99; s_buckets }
    end

  let buckets h = (summary h).s_buckets
end

(* ------------------------------------------------------------------ *)
(* Rolling-window rates                                                *)
(* ------------------------------------------------------------------ *)

module Rate = struct
  type t = {
    window : int;
    mutable events : (int * int) list;  (* (cycle, n), newest first *)
    mutable last : int;  (* cycle of the newest tick *)
  }

  let create ~window =
    if window <= 0 then invalid_arg "Metrics.Rate.create: window must be positive";
    { window; events = []; last = 0 }

  let window r = r.window

  let evict r =
    let floor = r.last - r.window in
    r.events <- List.filter (fun (c, _) -> c > floor) r.events

  let tick ?(n = 1) r ~now =
    r.last <- max r.last now;
    r.events <- (now, n) :: r.events;
    evict r

  let current r =
    evict r;
    List.fold_left (fun acc (_, n) -> acc + n) 0 r.events

  let per_mcycle r = float_of_int (current r) *. 1e6 /. float_of_int r.window
end

(* ------------------------------------------------------------------ *)
(* The registry                                                        *)
(* ------------------------------------------------------------------ *)

type value = Counter of int ref | Gauge of int ref | H of Hist.t | R of Rate.t

(* A registered metric. [json] caches its snapshot fragment, the one JSON
   object [snapshot_json] prints for it; every write reaches the cell
   through [cell], which clears the cache, so a fragment is re-rendered
   only after its metric changed. A rate's value moves only on a tick,
   so the invalidation is exact. A fragment is never empty, so [""]
   marks a stale one. *)
type cell = { name : string; labels : labels; v : value; mutable json : string }

type t = {
  tbl : (string * labels, cell) Hashtbl.t;
  mutable rows : cell array;  (* name-sorted: every cell not in [fresh] *)
  mutable fresh : cell list;  (* cells registered since [rows] was built *)
  scratch : Buffer.t;  (* fragment renderer's buffer, reused *)
}

let create () = { tbl = Hashtbl.create 64; rows = [||]; fresh = []; scratch = Buffer.create 256 }

let cell t name labels mk =
  let labels = canon_labels labels in
  match Hashtbl.find_opt t.tbl (name, labels) with
  | Some c ->
    c.json <- "";
    c.v
  | None ->
    let c = { name; labels; v = mk (); json = "" } in
    Hashtbl.add t.tbl (name, labels) c;
    t.fresh <- c :: t.fresh;
    c.v

let kind_mismatch name = invalid_arg ("Metrics: kind mismatch for " ^ name)

let inc ?(n = 1) t name labels =
  match cell t name labels (fun () -> Counter (ref 0)) with
  | Counter r -> r := !r + n
  | _ -> kind_mismatch name

let set_gauge t name labels v =
  match cell t name labels (fun () -> Gauge (ref 0)) with
  | Gauge r -> r := v
  | _ -> kind_mismatch name

let max_gauge t name labels v =
  match cell t name labels (fun () -> Gauge (ref 0)) with
  | Gauge r -> r := max !r v
  | _ -> kind_mismatch name

let observe ?n t name labels v =
  match cell t name labels (fun () -> H (Hist.create ())) with
  | H h -> Hist.observe ?n h v
  | _ -> kind_mismatch name

let tick_rate ?n t name labels ~window ~now =
  match cell t name labels (fun () -> R (Rate.create ~window)) with
  | R r -> Rate.tick ?n r ~now
  | _ -> kind_mismatch name

let find t name labels =
  Option.map (fun c -> c.v) (Hashtbl.find_opt t.tbl (name, canon_labels labels))

let get_counter t name labels =
  match find t name labels with
  | Some (Counter r) -> !r
  | Some _ -> kind_mismatch name
  | None -> 0

let get_gauge t name labels =
  match find t name labels with
  | Some (Gauge r) -> !r
  | Some _ -> kind_mismatch name
  | None -> 0

let find_hist t name labels =
  match find t name labels with
  | Some (H h) -> Some h
  | Some _ -> kind_mismatch name
  | None -> None

(* Name-sorted contents — the one iteration order every rendering and the
   cross-isolate merge share, so nothing depends on hash-table order.
   Kept between calls; only newly registered cells are sorted in. *)
let by_key a b =
  match String.compare a.name b.name with 0 -> compare a.labels b.labels | c -> c

let rows t =
  (match t.fresh with
  | [] -> ()
  | fresh ->
    t.rows <- merge_fresh by_key t.rows fresh;
    t.fresh <- []);
  t.rows

let merge_into ~into src =
  Array.iter
    (fun { name; labels; v; _ } ->
      match v with
      | Counter r -> inc ~n:!r into name labels
      | Gauge r -> max_gauge into name labels !r
      | H h -> (
        match cell into name labels (fun () -> H (Hist.create ())) with
        | H dst -> Hist.merge_into ~into:dst h
        | _ -> kind_mismatch name)
      | R r -> (
        match cell into name labels (fun () -> R (Rate.create ~window:(Rate.window r))) with
        | R dst ->
          List.iter
            (fun (c, n) -> Rate.tick ~n dst ~now:c)
            (List.sort compare (List.rev r.Rate.events))
        | _ -> kind_mismatch name))
    (rows src)

(* ------------------------------------------------------------------ *)
(* Renderings                                                          *)
(* ------------------------------------------------------------------ *)

(* All three exports walk [rows]. The Prometheus and dashboard texts
   append into one [Buffer]; a snapshot joins cached per-metric
   fragments. *)

let add_int buf i = Buffer.add_string buf (string_of_int i)

let add_jstr buf s =
  Buffer.add_char buf '"';
  Buffer.add_string buf (Telemetry.json_escape s);
  Buffer.add_char buf '"'

let sanitize_char = function ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_') as c -> c | _ -> '_'
let sanitize name = String.map sanitize_char name

(* [{k="v",...}], with the histogram bucket's [le] label last. *)
let add_prom_labels ?le buf labels =
  let first = ref true in
  let add_label k v =
    Buffer.add_char buf (if !first then '{' else ',');
    first := false;
    String.iter (fun c -> Buffer.add_char buf (sanitize_char c)) k;
    Buffer.add_string buf "=\"";
    Buffer.add_string buf (Telemetry.json_escape v);
    Buffer.add_char buf '"'
  in
  List.iter (fun (k, v) -> add_label k v) labels;
  Option.iter (add_label "le") le;
  if not !first then Buffer.add_char buf '}'

let kind_of = function
  | Counter _ -> "counter"
  | Gauge _ | R _ -> "gauge"
  | H _ -> "histogram"

let to_prometheus t =
  let buf = Buffer.create 1024 in
  let typed = Hashtbl.create 16 in
  let sample pname suffix ?le labels v =
    Buffer.add_string buf pname;
    Buffer.add_string buf suffix;
    add_prom_labels ?le buf labels;
    Buffer.add_char buf ' ';
    add_int buf v;
    Buffer.add_char buf '\n'
  in
  Array.iter
    (fun { name; labels; v; _ } ->
      let pname = sanitize name in
      if not (Hashtbl.mem typed pname) then begin
        Hashtbl.add typed pname ();
        Printf.bprintf buf "# TYPE %s %s\n" pname (kind_of v)
      end;
      match v with
      | Counter r | Gauge r -> sample pname "" labels !r
      | R r -> sample pname "" labels (Rate.current r)
      | H h ->
        List.iter
          (fun (le, cum) ->
            let le = match le with Some v -> string_of_int v | None -> "+Inf" in
            sample pname "_bucket" ~le labels cum)
          (Hist.buckets h);
        sample pname "_sum" labels (Hist.sum h);
        sample pname "_count" labels (Hist.count h))
    (rows t);
  Buffer.contents buf

(* One metric's snapshot object, rendered into the registry's scratch
   buffer the first time it is asked for after a write. *)
let fragment t c =
  if c.json = "" then begin
    let buf = t.scratch in
    Buffer.clear buf;
    Buffer.add_string buf "{\"name\":";
    add_jstr buf c.name;
    Buffer.add_string buf ",\"labels\":{";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        add_jstr buf k;
        Buffer.add_char buf ':';
        add_jstr buf v)
      c.labels;
    (match c.v with
    | Counter r ->
      Buffer.add_string buf "},\"type\":\"counter\",\"value\":";
      add_int buf !r
    | Gauge r ->
      Buffer.add_string buf "},\"type\":\"gauge\",\"value\":";
      add_int buf !r
    | R r ->
      Printf.bprintf buf "},\"type\":\"rate\",\"window\":%d,\"value\":%d" (Rate.window r)
        (Rate.current r)
    | H h ->
      let s = Hist.summary h in
      Printf.bprintf buf
        "},\"type\":\"histogram\",\"count\":%d,\"sum\":%d,\"min\":%d,\"max\":%d,\"p50\":%d,\"p95\":%d,\"p99\":%d,\"buckets\":["
        (Hist.count h) (Hist.sum h) s.Hist.s_min s.Hist.s_max s.Hist.s_p50 s.Hist.s_p95
        s.Hist.s_p99;
      List.iteri
        (fun i (le, cum) ->
          Buffer.add_string buf (if i > 0 then ",[" else "[");
          (match le with Some v -> add_int buf v | None -> Buffer.add_string buf "null");
          Buffer.add_char buf ',';
          add_int buf cum;
          Buffer.add_char buf ']')
        s.Hist.s_buckets;
      Buffer.add_char buf ']');
    Buffer.add_char buf '}';
    c.json <- Buffer.contents buf
  end;
  c.json

(* A snapshot holds the fragments of the moment it was taken. They are
   the strings the cells cache, so consecutive snapshots share every
   fragment whose metric did not change in between: a write replaces a
   cell's cached string and never mutates one, so a kept snapshot renders
   the same bytes forever. *)
type snapshot = { cycle : int; fragments : string array }

let snapshot ~cycle t = { cycle; fragments = Array.map (fragment t) (rows t) }
let snapshot_cycle s = s.cycle
let snapshot_fragments s = Array.to_list s.fragments

(* The rendering is the fragments joined: its exact length is known before
   anything is copied, so the output string is the one allocation that
   grows with the registry. *)
let snapshot_json s =
  let head = "{\"schema\":\"vs-metrics/1\",\"cycle\":" ^ string_of_int s.cycle ^ ",\"metrics\":[" in
  let len = ref (String.length head + 2 + max 0 (Array.length s.fragments - 1)) in
  Array.iter (fun f -> len := !len + String.length f) s.fragments;
  let out = Bytes.create !len in
  let pos = ref 0 in
  let put f =
    Bytes.blit_string f 0 out !pos (String.length f);
    pos := !pos + String.length f
  in
  put head;
  Array.iteri
    (fun i f ->
      if i > 0 then put ",";
      put f)
    s.fragments;
  put "]}";
  Bytes.unsafe_to_string out

let render_top ?(title = "vs-top") t =
  let buf = Buffer.create 512 in
  let rows = rows t in
  (* Row keys print as [name{k=v,...}]. *)
  let key_length c =
    List.fold_left
      (fun acc (k, v) -> acc + String.length k + String.length v + 2)
      (String.length c.name + if c.labels = [] then 0 else 1)
      c.labels
  in
  let width = Array.fold_left (fun acc c -> max acc (key_length c)) 0 rows in
  Buffer.add_string buf title;
  Buffer.add_char buf '\n';
  Array.iter
    (fun c ->
      Buffer.add_string buf "  ";
      Buffer.add_string buf c.name;
      List.iteri
        (fun i (k, v) ->
          Buffer.add_char buf (if i > 0 then ',' else '{');
          Buffer.add_string buf k;
          Buffer.add_char buf '=';
          Buffer.add_string buf v)
        c.labels;
      if c.labels <> [] then Buffer.add_char buf '}';
      Buffer.add_string buf (String.make (width - key_length c + 2) ' ');
      (match c.v with
      | Counter r | Gauge r -> add_int buf !r
      | R r -> Printf.bprintf buf "%d in window (%.2f/Mcycle)" (Rate.current r) (Rate.per_mcycle r)
      | H h ->
        let s = Hist.summary h in
        Printf.bprintf buf "n=%d p50=%d p95=%d p99=%d max=%d" (Hist.count h) s.Hist.s_p50
          s.Hist.s_p95 s.Hist.s_p99 s.Hist.s_max);
      Buffer.add_char buf '\n')
    rows;
  Buffer.contents buf
