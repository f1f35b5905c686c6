(* Metrics-registry tests: the exact histogram (nearest-rank quantiles
   bit-for-bit equal to sorting the observations and indexing, lossless
   associative merge, the log-bucket export projection), rolling-window
   rates, and the registry itself (counter/gauge/histogram/rate cells,
   deterministic merge, the Prometheus/JSON/dashboard exports). *)

open Support

(* The reference the histogram must reproduce exactly: the service
   layer's original nearest-rank percentile over the sorted array. *)
let ref_percentile values p =
  let sorted = Array.of_list values in
  Array.sort compare sorted;
  let n = Array.length sorted in
  if n = 0 then 0
  else begin
    let rank = int_of_float (ceil (p *. float_of_int n)) - 1 in
    sorted.(min (n - 1) (max 0 rank))
  end

let hist_of values =
  let h = Metrics.Hist.create () in
  List.iter (Metrics.Hist.observe h) values;
  h

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let snapshot_json ~cycle m = Metrics.snapshot_json (Metrics.snapshot ~cycle m)

let sample_values prng n bound = List.init n (fun _ -> Prng.int prng bound)

let quantile_points = [ 0.0; 0.01; 0.25; 0.50; 0.75; 0.90; 0.95; 0.99; 1.0 ]

let test_quantile_matches_reference () =
  let prng = Prng.create 42 in
  List.iter
    (fun n ->
      let values = sample_values prng n 5000 in
      let h = hist_of values in
      List.iter
        (fun p ->
          Alcotest.(check int)
            (Printf.sprintf "n=%d p=%.2f" n p)
            (ref_percentile values p) (Metrics.Hist.quantile h p))
        quantile_points;
      (* The exports' one-walk summary agrees with the reference too. *)
      let m = Metrics.create () in
      List.iter (Metrics.observe m "lat" []) values;
      let q p = ref_percentile values p in
      Alcotest.(check bool)
        (Printf.sprintf "n=%d snapshot quantiles" n)
        true
        (contains
           ~sub:(Printf.sprintf {|"p50":%d,"p95":%d,"p99":%d,|} (q 0.50) (q 0.95) (q 0.99))
           (snapshot_json ~cycle:0 m)))
    [ 1; 2; 3; 7; 10; 100; 999 ]

let test_empty_histogram () =
  let h = Metrics.Hist.create () in
  Alcotest.(check int) "count" 0 (Metrics.Hist.count h);
  Alcotest.(check int) "sum" 0 (Metrics.Hist.sum h);
  List.iter
    (fun p ->
      Alcotest.(check int) "empty quantile is 0 (the serve convention)" 0
        (Metrics.Hist.quantile h p))
    quantile_points;
  Alcotest.(check bool) "buckets: just +Inf" true
    (Metrics.Hist.buckets h = [ (None, 0) ])

let test_one_sample () =
  let h = hist_of [ 17 ] in
  List.iter
    (fun p ->
      Alcotest.(check int) "every quantile is the sample" 17 (Metrics.Hist.quantile h p))
    quantile_points;
  Alcotest.(check int) "min" 17 (Metrics.Hist.min_value h);
  Alcotest.(check int) "max" 17 (Metrics.Hist.max_value h)

(* The merge is a lossless multiset union: associative, commutative, and
   equal to having observed everything into one histogram. *)
let test_merge_associative_and_lossless () =
  let prng = Prng.create 7 in
  let a = sample_values prng 57 400 in
  let b = sample_values prng 23 40000 in
  let c = sample_values prng 111 13 in
  let cells h = Metrics.Hist.values h in
  let ab_c = Metrics.Hist.merge (Metrics.Hist.merge (hist_of a) (hist_of b)) (hist_of c) in
  let a_bc = Metrics.Hist.merge (hist_of a) (Metrics.Hist.merge (hist_of b) (hist_of c)) in
  let ba = Metrics.Hist.merge (hist_of b) (hist_of a) in
  let serial = hist_of (a @ b @ c) in
  Alcotest.(check bool) "associative" true (cells ab_c = cells a_bc);
  Alcotest.(check bool) "commutative" true
    (cells ba = cells (Metrics.Hist.merge (hist_of a) (hist_of b)));
  Alcotest.(check bool) "merge equals serial observation" true (cells ab_c = cells serial);
  List.iter
    (fun p ->
      Alcotest.(check int) "quantiles survive the merge"
        (ref_percentile (a @ b @ c) p)
        (Metrics.Hist.quantile ab_c p))
    quantile_points;
  (* merge_into agrees with merge. *)
  let into = hist_of a in
  Metrics.Hist.merge_into ~into (hist_of b);
  Alcotest.(check bool) "merge_into" true
    (cells into = cells (Metrics.Hist.merge (hist_of a) (hist_of b)))

let test_buckets_projection () =
  let h = hist_of [ 1; 2; 3; 900; 5 ] in
  let buckets = Metrics.Hist.buckets h in
  (* Cumulative and ending at +Inf = count. *)
  let rec check_monotone prev = function
    | [] -> Alcotest.fail "no +Inf bucket"
    | [ (None, c) ] -> Alcotest.(check int) "+Inf equals count" (Metrics.Hist.count h) c
    | (Some _, c) :: rest ->
      Alcotest.(check bool) "cumulative" true (c >= prev);
      check_monotone c rest
    | (None, _) :: _ -> Alcotest.fail "+Inf bucket not last"
  in
  check_monotone 0 buckets;
  (* Upper bounds are 0 then powers of two covering the max value. *)
  let les = List.filter_map fst buckets in
  (match les with
  | 0 :: rest ->
    List.iteri
      (fun i le -> Alcotest.(check int) "power of two" (1 lsl i) le)
      rest
  | _ -> Alcotest.fail "first bound is not 0");
  Alcotest.(check bool) "bounds cover the max" true
    (List.exists (fun le -> le >= 900) les);
  List.iter
    (fun (le, c) ->
      Option.iter
        (fun le ->
          Alcotest.(check int)
            (Printf.sprintf "count at or below %d" le)
            (List.length (List.filter (fun v -> v <= le) [ 1; 2; 3; 900; 5 ]))
            c)
        le)
    buckets

(* --- rates ----------------------------------------------------------- *)

let test_rate_window () =
  let r = Metrics.Rate.create ~window:100 in
  Metrics.Rate.tick r ~now:10;
  Metrics.Rate.tick ~n:3 r ~now:50;
  Metrics.Rate.tick r ~now:105;
  (* Window is (last - 100, last] = (5, 105]: everything counts. *)
  Alcotest.(check int) "all inside" 5 (Metrics.Rate.current r);
  Metrics.Rate.tick r ~now:160;
  (* (60, 160]: the ticks at 10 and 50 have aged out. *)
  Alcotest.(check int) "old ticks age out" 2 (Metrics.Rate.current r);
  Alcotest.(check (float 1e-9)) "per Mcycle" (2e6 /. 100.0) (Metrics.Rate.per_mcycle r)

(* --- the registry ---------------------------------------------------- *)

let test_registry_cells () =
  let m = Metrics.create () in
  let l = [ ("isolate", "0") ] in
  Metrics.inc m "req" l;
  Metrics.inc ~n:4 m "req" l;
  Alcotest.(check int) "counter" 5 (Metrics.get_counter m "req" l);
  Alcotest.(check int) "absent counter reads 0" 0 (Metrics.get_counter m "req" [ ("isolate", "1") ]);
  Metrics.max_gauge m "depth" l 3;
  Metrics.max_gauge m "depth" l 1;
  Alcotest.(check int) "max gauge keeps the high-water mark" 3 (Metrics.get_gauge m "depth" l);
  Metrics.set_gauge m "depth" l 2;
  Alcotest.(check int) "set gauge overwrites" 2 (Metrics.get_gauge m "depth" l);
  Metrics.observe m "lat" l 10;
  Metrics.observe m "lat" l 30;
  (match Metrics.find_hist m "lat" l with
  | Some h -> Alcotest.(check int) "histogram cell" 2 (Metrics.Hist.count h)
  | None -> Alcotest.fail "histogram not registered");
  (* Labels canonicalize: order does not matter. *)
  Metrics.inc m "multi" [ ("b", "2"); ("a", "1") ];
  Alcotest.(check int) "label order canonicalized" 1
    (Metrics.get_counter m "multi" [ ("a", "1"); ("b", "2") ])

let test_registry_merge () =
  let a = Metrics.create () in
  let b = Metrics.create () in
  let l0 = [ ("isolate", "0") ] and l1 = [ ("isolate", "1") ] in
  Metrics.inc ~n:2 a "req" l0;
  Metrics.inc ~n:3 b "req" l0;
  Metrics.inc b "req" l1;
  Metrics.max_gauge a "depth" l0 5;
  Metrics.max_gauge b "depth" l0 3;
  Metrics.observe a "lat" l0 10;
  Metrics.observe b "lat" l0 20;
  let m = Metrics.create () in
  Metrics.merge_into ~into:m a;
  Metrics.merge_into ~into:m b;
  Alcotest.(check int) "counters add" 5 (Metrics.get_counter m "req" l0);
  Alcotest.(check int) "disjoint labels survive" 1 (Metrics.get_counter m "req" l1);
  Alcotest.(check int) "gauges keep the max" 5 (Metrics.get_gauge m "depth" l0);
  match Metrics.find_hist m "lat" l0 with
  | Some h ->
    Alcotest.(check bool) "histograms union" true
      (Metrics.Hist.values h = [ (10, 1); (20, 1) ])
  | None -> Alcotest.fail "merged histogram missing"

let test_exports () =
  let m = Metrics.create () in
  let l = [ ("isolate", "0"); ("policy", "paper") ] in
  Metrics.inc ~n:7 m "serve.requests" l;
  Metrics.observe m "serve.latency.cycles" l 12;
  Metrics.observe m "serve.latency.cycles" l 90;
  Metrics.tick_rate ~n:2 m "serve.arrivals" l ~window:1000 ~now:500;
  let prom = Metrics.to_prometheus m in
  Alcotest.(check bool) "TYPE lines" true
    (contains ~sub:"# TYPE serve_requests counter" prom
    && contains ~sub:"# TYPE serve_latency_cycles histogram" prom);
  Alcotest.(check bool) "sanitized sample with labels" true
    (contains ~sub:{|serve_requests{isolate="0",policy="paper"} 7|} prom);
  Alcotest.(check bool) "+Inf bucket" true (contains ~sub:{|le="+Inf"|} prom);
  Alcotest.(check bool) "histogram count" true
    (contains ~sub:{|serve_latency_cycles_count{isolate="0",policy="paper"} 2|} prom);
  let json = snapshot_json ~cycle:123 m in
  Alcotest.(check bool) "snapshot schema + cycle" true
    (contains ~sub:{|"schema":"vs-metrics/1"|} json && contains ~sub:{|"cycle":123|} json);
  Alcotest.(check bool) "snapshot is one line" true
    (not (String.contains json '\n'));
  let top = Metrics.render_top m in
  Alcotest.(check bool) "dashboard mentions the metrics" true
    (contains ~sub:"serve.requests" top && contains ~sub:"serve.latency.cycles" top)

(* Byte-determinism of the exports under merge order is what the CLI
   relies on: merging [a] into [b]'s clone must render the same text as
   observing serially. *)
let test_export_deterministic_under_merge () =
  let observe_all m =
    List.iter
      (fun (name, l, v) -> Metrics.observe m name l v)
      [
        ("lat", [ ("i", "0") ], 5);
        ("lat", [ ("i", "1") ], 7);
        ("lat", [ ("i", "0") ], 5);
        ("lat", [ ("i", "1") ], 1);
      ]
  in
  let serial = Metrics.create () in
  observe_all serial;
  let a = Metrics.create () and b = Metrics.create () in
  Metrics.observe a "lat" [ ("i", "0") ] 5;
  Metrics.observe a "lat" [ ("i", "1") ] 7;
  Metrics.observe b "lat" [ ("i", "0") ] 5;
  Metrics.observe b "lat" [ ("i", "1") ] 1;
  let merged = Metrics.create () in
  Metrics.merge_into ~into:merged a;
  Metrics.merge_into ~into:merged b;
  Alcotest.(check string) "prometheus text identical" (Metrics.to_prometheus serial)
    (Metrics.to_prometheus merged);
  Alcotest.(check string) "snapshot identical"
    (snapshot_json ~cycle:9 serial)
    (snapshot_json ~cycle:9 merged)

(* --- snapshot caches ---------------------------------------------------- *)

(* A registry keeps its sorted rows, each histogram's sorted cells and
   each metric's rendered snapshot fragment between exports. Property:
   snapshotting after every step renders exactly what a fresh registry
   given the same steps renders once at the end — for all three exports.
   Names fix the kind (a name is one kind of metric); one label value
   needs JSON escaping. *)
type step =
  | Inc of int * int * int  (* name, label set, n *)
  | Set_gauge of int * int * int
  | Max_gauge of int * int * int
  | Observe of int * int * int * int  (* name, label set, n, value *)
  | Tick of int * int * int * int  (* name, label set, n, cycles since the last tick *)
  | Merge of step list

let label_sets = [| []; [ ("isolate", "0") ]; [ ("tenant", "q\"t"); ("isolate", "1") ] |]

(* [clock] is the registry's model clock: ticks never go back in time. *)
let apply_step ?(snap = ignore) ~clock m step =
  let rec go clock m = function
    | Inc (k, l, n) -> Metrics.inc ~n m [| "c.a"; "c.b" |].(k) label_sets.(l)
    | Set_gauge (k, l, v) -> Metrics.set_gauge m [| "g.a"; "g.b" |].(k) label_sets.(l) v
    | Max_gauge (k, l, v) -> Metrics.max_gauge m [| "g.a"; "g.b" |].(k) label_sets.(l) v
    | Observe (k, l, n, v) -> Metrics.observe ~n m [| "h.a"; "h.b" |].(k) label_sets.(l) v
    | Tick (k, l, n, dt) ->
      clock := !clock + dt;
      Metrics.tick_rate ~n m [| "r.a"; "r.b" |].(k) label_sets.(l)
        ~window:[| 100; 1000 |].(k) ~now:!clock
    | Merge steps ->
      let src = Metrics.create () and src_clock = ref 0 in
      List.iter
        (fun s ->
          go src_clock src s;
          snap src)
        steps;
      Metrics.merge_into ~into:m src
  in
  go clock m step

let gen_steps =
  let open QCheck.Gen in
  let name = int_bound 1 and labels = int_bound 2 in
  let leaf =
    oneof
      [
        map3 (fun k l n -> Inc (k, l, n)) name labels (int_bound 5);
        map3 (fun k l v -> Set_gauge (k, l, v)) name labels (int_range (-5) 50);
        map3 (fun k l v -> Max_gauge (k, l, v)) name labels (int_range (-5) 50);
        map3
          (fun (k, l) n v -> Observe (k, l, n, v))
          (pair name labels) (int_bound 3)
          (oneof [ int_range (-3) 40; int_bound 5000 ]);
        map3 (fun (k, l) n dt -> Tick (k, l, n, dt)) (pair name labels) (int_bound 3) (int_bound 300);
      ]
  in
  list_size (int_range 1 25)
    (frequency [ (9, leaf); (1, map (fun s -> Merge s) (list_size (int_range 0 6) leaf)) ])

let exports m =
  (snapshot_json ~cycle:77 m, Metrics.to_prometheus m, Metrics.render_top m)

let prop_snapshot_caches =
  QCheck.Test.make ~name:"cached snapshots equal a fresh render" ~count:300
    (QCheck.make gen_steps) (fun steps ->
      let live = Metrics.create () and clock = ref 0 in
      (* Every snapshot taken, of [live] and of merge sources, with the
         bytes it rendered when taken. *)
      let kept = ref [] in
      let snap m =
        let s = Metrics.snapshot ~cycle:(List.length !kept) m in
        kept := (s, Metrics.snapshot_json s) :: !kept
      in
      List.iteri
        (fun i step ->
          apply_step ~snap ~clock live step;
          snap live;
          let fresh = Metrics.create () and clock = ref 0 in
          List.iteri (fun j s -> if j <= i then apply_step ~clock fresh s) steps;
          if exports live <> exports fresh then
            QCheck.Test.fail_reportf "step %d: live %s\nfresh %s" i
              (snapshot_json ~cycle:77 live)
              (snapshot_json ~cycle:77 fresh))
        steps;
      (* Later writes never reach a kept snapshot. *)
      List.iter
        (fun (s, taken) ->
          let now = Metrics.snapshot_json s in
          if now <> taken then QCheck.Test.fail_reportf "kept snapshot changed: %s\nnow %s" taken now)
        !kept;
      true)

(* 516 metrics: per-tenant counters and gauges, two histograms, two
   rates. *)
let wide_registry () =
  let m = Metrics.create () in
  for t = 0 to 255 do
    let l = [ ("isolate", string_of_int (t mod 2)); ("tenant", string_of_int t) ] in
    Metrics.inc ~n:t m "serve.tenant.requests" l;
    Metrics.max_gauge m "serve.tenant.depth" l (t * 3)
  done;
  for i = 0 to 1 do
    let l = [ ("isolate", string_of_int i) ] in
    for v = 0 to 900 do
      Metrics.observe ~n:(1 + (v mod 7)) m "serve.latency.cycles" l (v * 37)
    done;
    Metrics.tick_rate m "serve.arrivals" l ~window:1_000_000 ~now:500
  done;
  m

let bump_tenant_7 m = Metrics.inc m "serve.tenant.requests" [ ("tenant", "7"); ("isolate", "1") ]

(* Two snapshots around one write hold the same string for every metric
   but the written one. *)
let test_snapshot_sharing () =
  let m = wide_registry () in
  let a = Metrics.snapshot_fragments (Metrics.snapshot ~cycle:1 m) in
  bump_tenant_7 m;
  let b = Metrics.snapshot_fragments (Metrics.snapshot ~cycle:2 m) in
  Alcotest.(check int) "metrics in each snapshot" 516 (List.length a);
  Alcotest.(check int) "same rows" (List.length a) (List.length b);
  let unshared = List.filter (fun (x, y) -> x != y) (List.combine a b) in
  match unshared with
  | [ (x, y) ] ->
    Alcotest.(check bool) "the written metric re-rendered" true
      (x <> y && contains ~sub:{|"tenant":"7"|} y)
  | _ -> Alcotest.failf "%d fragments not shared, expected 1" (List.length unshared)

(* A snapshot after one write costs the written metric's fragment and an
   array slot per metric, and rendering it costs its output string plus a
   small constant: every other metric's fragment, the sorted rows and the
   histograms' sorted cells are reused. Re-rendering every metric, as a
   renderer without these caches does, allocates about 310K words here
   for a 6.4K-word snapshot. *)
let test_snapshot_allocation () =
  let m = wide_registry () in
  ignore (Metrics.snapshot ~cycle:1 m);
  bump_tenant_7 m;
  let words () =
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  (* An empty minor heap keeps a collection out of the measured window
     (the counters overshoot across one). *)
  let measure f =
    Gc.minor ();
    let before = words () in
    let v = f () in
    (v, int_of_float (words () -. before))
  in
  let snap, snap_spent = measure (fun () -> Metrics.snapshot ~cycle:2 m) in
  let json, spent = measure (fun () -> Metrics.snapshot_json snap) in
  let out_words = (String.length json / (Sys.word_size / 8)) + 2 in
  let metrics = ref 0 in
  String.iteri
    (fun i _ -> if i + 7 <= String.length json && String.sub json i 7 = {|"type":|} then incr metrics)
    json;
  Alcotest.(check int) "metrics in the snapshot" 516 !metrics;
  if snap_spent > !metrics + 64 then
    Alcotest.failf "second snapshot allocated %d words for %d metrics" snap_spent !metrics;
  if spent > out_words + 64 then
    Alcotest.failf "rendering it allocated %d words for a %d-word output" spent out_words

let suites =
  [
    ( "metrics.hist",
      [
        Alcotest.test_case "nearest-rank quantiles match the reference" `Quick
          test_quantile_matches_reference;
        Alcotest.test_case "empty histogram" `Quick test_empty_histogram;
        Alcotest.test_case "one sample" `Quick test_one_sample;
        Alcotest.test_case "merge: associative, commutative, lossless" `Quick
          test_merge_associative_and_lossless;
        Alcotest.test_case "log-bucket projection" `Quick test_buckets_projection;
      ] );
    ( "metrics.registry",
      [
        Alcotest.test_case "rate window" `Quick test_rate_window;
        Alcotest.test_case "cells" `Quick test_registry_cells;
        Alcotest.test_case "merge" `Quick test_registry_merge;
        Alcotest.test_case "exports" `Quick test_exports;
        Alcotest.test_case "exports deterministic under merge" `Quick
          test_export_deterministic_under_merge;
        QCheck_alcotest.to_alcotest prop_snapshot_caches;
        Alcotest.test_case "snapshot allocates what changed" `Quick test_snapshot_allocation;
        Alcotest.test_case "consecutive snapshots share fragments" `Quick test_snapshot_sharing;
      ] );
  ]
