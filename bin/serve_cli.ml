(* vs-serve: the multi-tenant VM service simulator.

     vs-serve                          # a default steady-load run
     vs-serve --smoke                  # the CI overload scenario + invariants
     vs-serve --capacity 4 --deadline 120000 --chaos 7 --crash 0.08
     vs-serve --smoke --jobs 4         # same bytes as --jobs 1

   Every quantity is in deterministic model cycles; the summary is
   byte-identical at any --jobs (the @serve gate diffs 4 vs 1). --smoke
   runs the forced-overload chaos scenario and exits 1 if any service
   invariant is violated (a supervisor escape, nothing shed, no deadline
   ever firing, ...).

   Observability (each independently optional; with none of them the run
   is byte-identical to a build without the observability layer):

     vs-serve --metrics-out m.prom     # final registry, Prometheus text
     vs-serve --metrics-json m.jsonl --metrics-every 100000
     vs-serve --top                    # text dashboard after the summary
     vs-serve --trace-spans t.json     # request-stitched Perfetto trace
     vs-serve --flight-recorder f.jsonl [--flight-text f.txt]

   All artifacts are on the model-cycle clock and byte-identical at any
   --jobs (the @obs gate diffs 4 vs 1 under an injected-fault plan). *)

let write_file file contents = Out_channel.with_open_text file (fun oc -> output_string oc contents)

let () =
  let isolates = ref 2 in
  let requests = ref 80 in
  let tenants = ref 6 in
  let capacity = ref 0 in
  let queue_deadline = ref 0 in
  let deadline = ref 0 in
  let retries = ref 2 in
  let backoff = ref 2_000 in
  let overload = ref 0 in
  let gap = ref 30_000 in
  let crash = ref 0.0 in
  let seed = ref 1 in
  let chaos = ref (-1) in
  let policy = ref "paper" in
  let cache_size = ref 1 in
  let bg = ref false in
  let bg_depth = ref 8 in
  let smoke = ref false in
  let counters = ref true in
  let metrics_out = ref "" in
  let metrics_json = ref "" in
  let metrics_every = ref 0 in
  let top = ref false in
  let trace_spans = ref "" in
  let flight = ref "" in
  let flight_text = ref "" in
  let flight_capacity = ref 64 in
  let flight_dumps = ref 4 in
  let specs =
    [
      ("--isolates", Arg.Set_int isolates, "N isolates (default 2)");
      ("--requests", Arg.Set_int requests, "N requests (default 80)");
      ("--tenants", Arg.Set_int tenants, "N tenants (default 6)");
      ("--capacity", Arg.Set_int capacity, "N run-queue bound; 0 = unbounded");
      ( "--queue-deadline",
        Arg.Set_int queue_deadline,
        "CYCLES max queue wait; 0 = none" );
      ("--deadline", Arg.Set_int deadline, "CYCLES per-attempt engine budget; 0 = none");
      ("--retries", Arg.Set_int retries, "N retries after a supervised fault (default 2)");
      ("--backoff", Arg.Set_int backoff, "CYCLES base retry backoff (default 2000)");
      ("--overload", Arg.Set_int overload, "DEPTH queue depth that degrades; 0 = never");
      ("--gap", Arg.Set_int gap, "CYCLES mean inter-arrival gap (default 30000)");
      ("--crash", Arg.Set_float crash, "FRACTION of poison requests (default 0)");
      ("--seed", Arg.Set_int seed, "N request-stream seed (default 1)");
      ("--chaos", Arg.Set_int chaos, "SEED per-request fault plans; unset = none");
      ("--policy", Arg.Set_string policy, "paper|polyvariant (default paper)");
      ("--cache-size", Arg.Set_int cache_size, "N versions per function (default 1)");
      ( "--bg-compile",
        Arg.Set bg,
        " background compilation: requests enqueue compiles and keep interpreting" );
      ( "--compile-queue-depth",
        Arg.Set_int bg_depth,
        "N in-flight background compiles per engine (default 8)" );
      ("--no-counters", Arg.Clear counters, " omit the counter rows");
      ("--smoke", Arg.Set smoke, " run the CI overload scenario and check invariants");
      ( "--metrics-out",
        Arg.Set_string metrics_out,
        "FILE write the final merged metrics registry as Prometheus text" );
      ( "--metrics-json",
        Arg.Set_string metrics_json,
        "FILE write JSON metric snapshots (one line per snapshot; see --metrics-every)" );
      ( "--metrics-every",
        Arg.Set_int metrics_every,
        "CYCLES periodic per-isolate snapshot period for --metrics-json (0 = final only)" );
      ("--top", Arg.Set top, " print the vs-top text dashboard after the summary");
      ( "--trace-spans",
        Arg.Set_string trace_spans,
        "FILE write request-scoped Chrome trace-event spans (Perfetto): every request a \
         lane, background compiles stitched to their requester by flow events" );
      ( "--flight-recorder",
        Arg.Set_string flight,
        "FILE write flight-recorder post-mortem dumps (faults, deadlines, quarantines, \
         deopt storms) as JSONL" );
      ( "--flight-text",
        Arg.Set_string flight_text,
        "FILE write the human rendering of the flight-recorder dumps" );
      ( "--flight-capacity",
        Arg.Set_int flight_capacity,
        "N flight-recorder ring entries per isolate (default 64)" );
      ( "--flight-dumps",
        Arg.Set_int flight_dumps,
        "N post-mortems kept per isolate; later triggers are counted, not dumped \
         (default 4)" );
      ("--jobs", Arg.Int Pool.set_default_jobs, "N pool size (default 1)");
    ]
  in
  Arg.parse specs
    (fun a ->
      Printf.eprintf "unexpected argument %S\n" a;
      exit 2)
    "vs-serve [options]";
  let obs =
    {
      Serve.obs_trace = !trace_spans <> "";
      obs_metrics = !metrics_out <> "" || !metrics_json <> "" || !top;
      obs_metrics_every = max 0 !metrics_every;
      obs_flight = !flight <> "" || !flight_text <> "";
      obs_flight_capacity = max 1 !flight_capacity;
      obs_flight_max_dumps = max 1 !flight_dumps;
    }
  in
  let cfg =
    if !smoke then { (Serve.smoke_config ()) with Serve.obs }
    else begin
      let kind =
        match Policy.kind_of_string !policy with
        | Some k -> k
        | None ->
          Printf.eprintf "unknown policy %S (paper|polyvariant)\n" !policy;
          exit 2
      in
      Serve.default_config ~isolates:!isolates ~requests:!requests ~tenants:!tenants
        ~capacity:!capacity ~queue_deadline:!queue_deadline ~deadline:!deadline
        ~retries:!retries ~backoff:!backoff ~overload_depth:!overload ~mean_gap:!gap
        ~crash_fraction:!crash ~seed:!seed
        ?chaos:(if !chaos < 0 then None else Some !chaos)
        ~engine:
          (Engine.default_config ~opt:Pipeline.all_on ~policy:kind
             ~cache_size:!cache_size ~bg_compile:!bg ~bg_queue_depth:!bg_depth ())
        ~obs ()
    end
  in
  let summary, obs_out = Serve.run_full cfg in
  Serve.print_summary ~counters:!counters stdout cfg summary;
  if !trace_spans <> "" then
    Out_channel.with_open_text !trace_spans (fun oc ->
        Telemetry.output_chrome_trace oc obs_out.Serve.or_spans);
  (match obs_out.Serve.or_metrics with
  | Some m ->
    if !metrics_out <> "" then write_file !metrics_out (Metrics.to_prometheus m);
    if !metrics_json <> "" then
      (* Per-isolate periodic snapshots in (cycle, isolate) order, then a
         closing line for the merged registry at the makespan. *)
      Out_channel.with_open_text !metrics_json (fun oc ->
          let line s =
            output_string oc (Metrics.snapshot_json s);
            output_char oc '\n'
          in
          List.iter (fun (_, s) -> line s) obs_out.Serve.or_snapshots;
          line (Metrics.snapshot ~cycle:summary.Serve.sm_makespan m));
    if !top then print_string (Metrics.render_top ~title:"vs-serve" m)
  | None -> ());
  if !flight <> "" then
    Out_channel.with_open_text !flight (fun oc ->
        Flight.output_jsonl oc (List.map snd obs_out.Serve.or_flights));
  if !flight_text <> "" then
    Out_channel.with_open_text !flight_text (fun oc ->
        List.iter
          (fun (i, d) ->
            Printf.fprintf oc "-- isolate %d --\n" i;
            output_string oc (Flight.render d))
          obs_out.Serve.or_flights);
  if !smoke then begin
    match Serve.smoke_check summary with
    | Ok () -> print_endline "smoke: all service invariants hold"
    | Error problems ->
      List.iter (fun p -> Printf.eprintf "smoke: %s\n" p) problems;
      exit 1
  end
