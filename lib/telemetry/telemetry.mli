(** Lock-light, domain-safe observability for the analysis engine.

    The engine's cost structure — where cycles go between Algorithm 1
    exploration, trace flattening, the even/odd power computation and
    the peak-energy walk; how the domain pool and the single-flight
    cache behave under load — is invisible from the outside. This module
    makes it observable without perturbing it:

    - {e spans}: hierarchical wall-time intervals on the monotonic
      clock, recorded into per-domain buffers (one mutex acquisition per
      domain {e registration}, none per event);
    - {e counters}: process-wide named atomic counters (pool
      spawns/steals/joins, cache hits/misses/evictions, ...);
    - {e gauges}: process-wide named atomic current-state values
      (queue depth, inflight requests, ...);
    - {e histograms}: log2-bucketed distributions (task run times,
      single-flight wait times, queue depths);
    - {e scopes}: per-call attribution — every counter increment and
      span recorded by a thread with a bound scope is tallied into it
      and into every scope it is nested in;
    - {e snapshots}: a point-in-time copy of every counter, gauge and
      histogram, with diffs between snapshots and a Prometheus text
      exporter;
    - {e exporters}: Chrome trace-event JSON (load it in
      [chrome://tracing] or [ui.perfetto.dev]), one exporter for a sink
      and for a scope, and a compact stats summary.

    Telemetry is {e ambient}: instrumentation sites call {!span} /
    {!Counter.incr} unconditionally, and every such call is a single
    atomic load when no sink is installed — tracing off means no clock
    reads, no allocation, no contention. Instrumentation never changes
    results: bounds are bit-identical with tracing on or off, at any
    job count (asserted in the test suite). *)

(** {1 Sinks} *)

(** An event sink: per-domain span buffers plus the creation-time clock
    origin. *)
type t

(** [create ()] — a sink that retains every span event (for Chrome
    export). [create ~retain_events:false ()] enables counters,
    histograms and span aggregates but drops the per-span event list —
    the right sink for a long-lived daemon, whose event buffers would
    otherwise grow without bound. *)
val create : ?retain_events:bool -> unit -> t

(** The installed ambient sink, if any. *)
val ambient : unit -> t option

(** [set_ambient s] installs (or, with [None], removes) the process-wide
    sink. Visible to every domain. *)
val set_ambient : t option -> unit

(** [with_ambient s f] runs [f] with [s] installed, restoring the
    previous sink afterwards (also on exceptions). Calls installing the
    same sink concurrently, from several domains, share the
    installation: [s] stays installed until the last of them returns,
    which restores the sink the first one found. *)
val with_ambient : t -> (unit -> 'a) -> 'a

(** True iff a sink is installed. One atomic load. *)
val enabled : unit -> bool

(** The raw monotonic clock (ns), for instrumentation sites that need
    interval arithmetic outside {!span} (e.g. histogram observations).
    Call only behind an {!enabled} check. *)
val now_ns : unit -> int64

(** Seconds since this module was loaded — process uptime for health
    reporting. Not gated on a sink. *)
val uptime_s : unit -> float

(** {1 Spans} *)

(** [span ~cat name f] times [f ()] on the monotonic clock and records a
    complete-span event in the calling domain's buffer of the ambient
    sink; without a sink it is [f ()]. Spans nest: events carry their
    stack depth, and the Chrome exporter renders containment per
    domain ([cat] defaults to ["phase"], the category {!phase_totals}
    aggregates). Every completed span additionally feeds the
    process-wide histogram [span.<cat>.<name>_ns], which is what
    {!Snapshot.take} reports as completed-span aggregates, and is
    recorded into the calling thread's bound {!Scope} and the scopes
    enclosing it, if any. *)
val span : ?cat:string -> string -> (unit -> 'a) -> 'a

(** A recorded span. [ts_ns] is relative to the sink's creation;
    [tid] identifies the recording domain. *)
type event = {
  name : string;
  cat : string;
  tid : int;
  ts_ns : int64;
  dur_ns : int64;
  depth : int;  (** nesting depth within this domain, 1 = outermost *)
}

(** All recorded events, in timestamp order. Empty for a
    [~retain_events:false] sink. *)
val events : t -> event list

(** {1 Scopes}

    A scope attributes telemetry to one logical operation — in the
    daemon, one request; in {!Xbound.analyze} with a sink, one call.
    Binding is per {e thread} (systhread id, which is unique across
    domains: each daemon executor domain runs one thread, while the
    main domain runs the reader threads), and the domain pool
    propagates the submitting thread's binding into its workers, so
    work fanned out on behalf of a request still tallies into that
    request's scope.

    Scopes nest: a scope created while another is bound to the thread
    also records its tallies and spans into that enclosing scope (and
    its enclosing ones), so a request scope still sees the work of an
    analysis that runs in its own scope. With no scope bound anywhere
    in the process, the attribution hook in {!Counter.incr} is one
    atomic load. *)

module Scope : sig
  type s

  (** [create ~id] — a fresh scope labelled [id] (e.g. a request id),
      nested in the scope bound to the calling thread, if any. *)
  val create : id:string -> s

  val id : s -> string

  (** The scope bound to the calling thread, if any. *)
  val active : unit -> s option

  (** [with_scope s f] runs [f] with [s] bound to the calling thread,
      restoring the previous binding afterwards (also on exceptions). *)
  val with_scope : s -> (unit -> 'a) -> 'a

  (** [with_binding so f] — like {!with_scope} but can also mask an
      inherited binding with [None]. Used by the pool to install the
      {e submitting} thread's binding (or absence of one) in a worker. *)
  val with_binding : s option -> (unit -> 'a) -> 'a

  (** Counter increments tallied into this scope and the scopes nested
      in it, sorted by name; zero increments are not listed. *)
  val counter_deltas : s -> (string * int) list

  (** Spans recorded under this scope and the scopes nested in it, in
      timestamp order. *)
  val events : s -> event list

  (** Seconds per ["phase"]-category span recorded under this scope,
      sorted by descending total. *)
  val phase_totals : s -> (string * float) list

  (** The scope as a self-contained Chrome trace-event document, in
      the layout of the sink's {!Telemetry.to_chrome_json}: its spans,
      with the creating domain as the main thread, its counter deltas,
      and an ["xboundRequest"] member holding its id. *)
  val to_chrome_json : s -> string
end

(** {1 Counters} *)

module Counter : sig
  type c

  (** [make name] — the process-wide counter registered under [name]
      (interned: same name, same counter). *)
  val make : string -> c

  (** One atomic increment when a sink is installed; a no-op otherwise.
      Also tallied into the calling thread's bound {!Scope}, if any. *)
  val incr : c -> unit

  val add : c -> int -> unit
  val value : c -> int
  val name : c -> string
end

(** Snapshot of every registered counter, sorted by name. Counters are
    process-wide and monotonic; subtract two snapshots with {!diff} to
    scope them to a run. *)
val counters : unit -> (string * int) list

(** [diff ~before ~after] — per-name deltas, dropping zero entries. *)
val diff :
  before:(string * int) list -> after:(string * int) list -> (string * int) list

(** {1 Gauges} *)

module Gauge : sig
  type g

  (** [make name] — the process-wide gauge registered under [name]
      (interned: same name, same gauge). *)
  val make : string -> g

  (** Gauges track current state (queue depth, configured capacity),
      not accumulated work, so unlike counters they are {e not} gated
      on an installed sink: a snapshot taken after the fact still sees
      the truth. *)
  val set : g -> int -> unit

  val add : g -> int -> unit
  val value : g -> int
  val name : g -> string
end

(** Snapshot of every registered gauge, sorted by name. *)
val gauges : unit -> (string * int) list

(** {1 Histograms} *)

module Histogram : sig
  type h

  (** [make name] — a process-wide log2-bucketed histogram. By
      convention a name ending in [_ns] holds nanosecond observations;
      exporters render those in ms/seconds and everything else as plain
      counts. *)
  val make : string -> h

  (** Record one observation. No-op without an installed sink. *)
  val observe : h -> int64 -> unit

  (** [(count, total, max)] *)
  val totals : h -> int * int64 * int64

  (** Non-empty [(bucket_upper, count)] pairs, ascending: bucket 0
      holds observations [0..1] (upper bound [1]), bucket [i >= 1]
      holds [2^i .. 2^(i+1)-1] (upper bound [2^(i+1)-1]). The upper
      bounds are exactly the values {!percentile} reports before
      max-clamping, and what the Prometheus exporter emits as [le]
      edges. *)
  val buckets : h -> (int64 * int) list

  (** [percentile h q] ([0. <= q <= 1.]) — an upper bound on the
      q-quantile observation: the upper edge of the log2 bucket
      holding it, clamped to the recorded maximum. [0L] when empty.
      {!Snapshot} percentiles are computed the same way. *)
  val percentile : h -> float -> int64

  val name : h -> string
end

(** {1 Snapshots} *)

module Snapshot : sig
  (** One histogram at a point in time (or, after {!diff}, over a
      window): totals, percentile upper bounds, and the non-empty
      [(upper, count)] buckets. *)
  type histo = {
    hname : string;
    count : int;
    sum_ns : int64;
    max_ns : int64;
    p50 : int64;
    p90 : int64;
    p99 : int64;
    buckets : (int64 * int) list;
  }

  type snap = {
    taken_ns : int64;  (** monotonic clock at capture *)
    uptime_s : float;
        (** process uptime at capture; after {!diff}, the window
            length — rates are [delta / uptime_s] *)
    rss_bytes : int;  (** resident set size, [0] if unknown *)
    active_spans : int;  (** spans currently open, process-wide *)
    counters : (string * int) list;
    gauges : (string * int) list;
    histograms : histo list;  (** only histograms with observations *)
  }

  type t = snap

  (** Capture every registered counter, gauge and histogram. Lock-light:
      registry locks only, all values read with atomic loads. *)
  val take : unit -> t

  (** [diff ~before ~after] — counter and histogram deltas over the
      window (histogram percentiles recomputed from the bucket deltas,
      clamped to [after]'s maximum, so a window that starts empty has
      [after]'s percentiles);
      gauges, rss and active-span count are instantaneous, so the
      [after] values stand. Histograms and counters with no activity in
      the window are dropped. *)
  val diff : before:t -> after:t -> t

  (** Prometheus text exposition: each metric [# TYPE]-annotated,
      counters suffixed [_total], histograms with cumulative [le]
      buckets, [+Inf], [_sum] and [_count]. Metric names are sanitized
      and prefixed [xbound_]; [_ns] histograms are exported in seconds
      ([..._seconds]) per the Prometheus base-unit convention. *)
  val to_prometheus : t -> string
end

(** {1 Export} *)

(** The sink as a Chrome trace-event JSON document: ["M"] thread-name
    metadata per domain (the sink's creating domain named ["main ..."]),
    one ["X"] event per span in timestamp order, and one trailing ["C"]
    event per nonzero counter. A top-level ["xboundCounters"] object
    lists every registered counter, zeros included. {!Scope.to_chrome_json}
    writes the same layout. *)
val to_chrome_json : t -> string

val write_chrome : t -> file:string -> unit

(** Total seconds and call count per span name, for the given category
    (default: every category), sorted by descending total. *)
val span_totals : ?cat:string -> t -> (string * (float * int)) list

(** Seconds per ["phase"]-category span name, sorted by descending
    total — the breakdown {!Scope.phase_totals} gives per scope. *)
val phase_totals : t -> (string * float) list

(** Busy seconds per domain, from ["pool"]-category task spans. *)
val tid_busy : t -> (int * float) list

(** Human-readable summary: phase breakdown, per-domain utilization,
    counter values, histogram totals with p50/p99 percentiles —
    unit-aware ([_ns] histograms in ms, others as counts). *)
val stats_summary : t -> string
