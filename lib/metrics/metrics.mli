(** The live-metrics registry.

    Observability counterpart of the engine report: named metrics keyed by
    free-form label sets (per-tenant, per-isolate, per-policy), living
    entirely on the deterministic model-cycle clock. Three value shapes:

    - {b counters} and {b gauges} — plain integers;
    - {b rolling-window rates} — events per window of model cycles, for
      the dashboard's "recent" columns;
    - {b histograms} — {e exact} sparse value→count tables with
      nearest-rank quantiles and an associative, lossless merge, plus a
      log-bucketed (HDR-style) projection for the Prometheus exporter.

    Exactness is the point: the service's p50/p95/p99 were nearest-rank
    over the full latency array, and refactoring them onto this module
    must be bit-for-bit invisible (the histogram-exactness tests pin it).
    The log buckets exist only at the export boundary; the underlying
    store never loses a value, so merging per-isolate registries after a
    parallel run is byte-identical to observing everything serially. *)

type labels = (string * string) list
(** Label set; canonicalized (key-sorted) on first use. *)

(** Exact mergeable histograms.

    Each distinct value is one cell. The cells are kept value-sorted
    between reads: an observe of a known value costs a table lookup and
    leaves the order alone, and values first seen since the last read
    are sorted and merged in by the next read (O(n + k log k) for k new
    values). Quantiles, min/max and the bucket projection are then one
    walk over the sorted cells. *)
module Hist : sig
  type t

  val create : unit -> t
  val observe : ?n:int -> t -> int -> unit
  val count : t -> int
  val sum : t -> int

  val min_value : t -> int
  (** @raise Invalid_argument on an empty histogram. *)

  val max_value : t -> int
  (** @raise Invalid_argument on an empty histogram. *)

  val quantile : t -> float -> int
  (** Nearest-rank quantile over the recorded multiset — identical to
      [sorted.(clamp (ceil (p * n) - 1))] over the sorted observations;
      0 when empty (the service summary's convention). *)

  val merge : t -> t -> t
  (** Lossless union of two histograms (a fresh one; the arguments are
      untouched). Associative and commutative — the property the
      cross-isolate registry merge relies on. *)

  val merge_into : into:t -> t -> unit

  val buckets : t -> (int option * int) list
  (** The HDR-style export projection: cumulative counts at log2 upper
      bounds ([Some le]; 0, then each power of two up to the max value),
      ending with [(None, count)] — the +Inf bucket. Empty histograms
      yield just the +Inf bucket. *)

  val values : t -> (int * int) list
  (** The exact (value, count) cells, value-sorted (test hook). *)
end

(** Rolling-window event rates. *)
module Rate : sig
  type t

  val create : window:int -> t
  (** @raise Invalid_argument when [window] is not positive. *)

  val tick : ?n:int -> t -> now:int -> unit
  (** Record [n] events at model cycle [now]. Ticks must not go back in
      time (the model clock never does). *)

  val current : t -> int
  (** Events inside [(last_tick - window, last_tick]]. *)

  val per_mcycle : t -> float
  (** [current] scaled to events per million cycles. *)
end

type t
(** A registry: a mutable map from (name, labels) to one metric. *)

val create : unit -> t

val inc : ?n:int -> t -> string -> labels -> unit
(** Bump a counter (registered on first use). *)

val set_gauge : t -> string -> labels -> int -> unit

val max_gauge : t -> string -> labels -> int -> unit
(** Gauge tracking a high-water mark: keeps the maximum of its values. *)

val observe : ?n:int -> t -> string -> labels -> int -> unit
(** Record into a histogram (registered on first use). *)

val tick_rate : ?n:int -> t -> string -> labels -> window:int -> now:int -> unit
(** Record into a rolling-window rate (window fixed at registration). *)

val get_counter : t -> string -> labels -> int
val get_gauge : t -> string -> labels -> int

val find_hist : t -> string -> labels -> Hist.t option
(** The live histogram cell (shared, not copied) — quantile reads. Write
    through {!observe}: a {!Hist.observe} on the returned value does not
    invalidate the cell's cached snapshot fragment. *)

val merge_into : into:t -> t -> unit
(** Fold [src] into [into]: counters add, gauges keep the maximum,
    histograms merge losslessly, rates concatenate their event logs.
    Deterministic in the contents alone (iteration is name-sorted), so
    merging per-isolate registries in isolate order is byte-stable. *)

val to_prometheus : t -> string
(** Prometheus text exposition: one [# TYPE] comment per metric name,
    samples sorted by (name, labels). Histograms render cumulative
    [_bucket{le=...}] series from {!Hist.buckets} plus [_sum]/[_count];
    rates render as gauges of their current window count. Metric and
    label names are sanitized ([. -] to [_]). One walk over the sorted
    rows into one buffer. *)

type snapshot
(** The registry's state at one cycle, held as the per-metric JSON
    fragments the registry caches: consecutive snapshots of one registry
    share every fragment whose metric was not written in between. Later
    writes never change a taken snapshot. *)

val snapshot : cycle:int -> t -> snapshot
(** Take a snapshot stamped [cycle].

    Cost: what changed since the previous snapshot. Each metric caches
    its rendered JSON object until its next write ({!inc}, {!set_gauge},
    {!max_gauge}, {!observe}, {!tick_rate}, {!merge_into}), and the sorted
    row order is kept until a new metric is registered. With one metric
    written since the last call, a snapshot allocates that metric's
    fragment and one array slot per metric. *)

val snapshot_cycle : snapshot -> int

val snapshot_fragments : snapshot -> string list
(** The per-metric JSON objects, in row order (test hook: sharing is
    physical equality of these strings). *)

val snapshot_json : snapshot -> string
(** One-line JSON rendering ([vs-metrics/1]): the cycle stamp plus every
    metric with its type, labels and value (histograms include count,
    sum, min/max, p50/p95/p99 and the log-bucket projection). Sorted like
    {!to_prometheus}, so snapshots diff cleanly. Assembled at its exact
    length from the fragments: it allocates its output string and a few
    dozen words. *)

val render_top : ?title:string -> t -> string
(** The [vs-top]-style text dashboard: one aligned row per metric —
    counters and gauges print their value, rates their window count and
    per-Mcycle rate, histograms count/p50/p95/p99/max. *)
