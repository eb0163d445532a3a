(** The request-oriented wire surface of the analysis service.

    One closed request variant and one response variant, with JSON
    codecs, shared by every dispatch path: the [xbound serve] daemon
    loop, the [Serve.Client] RPC stub, and the CLI subcommands (which
    are thin builders of {!Request.t}, executed either in-process or
    over a socket — byte-identical output either way).

    The framing on the socket is length-prefixed JSON ({!Serve.Frame}):
    each request frame is the envelope
    [{"proto_version": v, "id": n, "priority": p, "request": {...}}]
    and each response frame is [{"id": n, "result": {...}}] or
    [{"id": n, "error": {"code": ..., ...}}] — errors are
    {!Xbound.Error.t} values shipped through
    {!Xbound.Error.to_wire}/[of_wire], so the client reconstructs the
    same typed value the server produced.

    Every codec here is total in both directions: [of_json (to_json v)]
    re-reads [v] exactly ({!Explain.Ejson} prints shortest
    round-tripping floats). *)

(** Bumped on any incompatible change to the envelope or the
    request/response schemas; a server rejects any other version with a
    typed [Protocol] error.

    Version 3: [Analyze]/[Explain] requests carry a required ["tier"]
    member; [Analysis] responses carry a ["tier"] member and ship
    ["peak_power_w"]/["peak_energy_j"] as {!Xbound.Bound.t} objects
    [{value, tier, analysis_version}]; [Cache_stats] responses carry a
    ["by_ns"] per-namespace breakdown. The admin ops are [Stats {fmt}],
    which returns a {!Telemetry.Snapshot} (rendered client-side, like
    every other response), [Health], a cheap liveness summary, and
    [Watch {interval_ms; count}], which makes the server stream [count]
    response frames (one initial full snapshot, then snapshot diffs per
    interval), every frame carrying the request's id. *)
val proto_version : int

(** The two scheduling classes. The serve scheduler always drains
    [Interactive] requests before [Batch] ones. *)
type priority = Interactive | Batch

val priority_to_string : priority -> string
val priority_of_string : string -> priority option

module Request : sig
  (** Report flavour for [Explain] (mirrors the CLI's [--format]). *)
  type fmt = Table | Json | Csv

  (** Exposition flavour for [Stats]. *)
  type stats_fmt = Stats_table | Stats_json | Stats_prometheus

  val stats_fmt_to_string : stats_fmt -> string
  val stats_fmt_of_string : string -> stats_fmt option

  type t =
    | Analyze of { bench : string; tier : Xbound.Tier.t }
        (** full paper flow on a bundled benchmark, at the given bound
            tier *)
    | Explain of {
        bench : string;
        fmt : fmt;
        top : int;
        min_gap : int;
        tier : Xbound.Tier.t;
      }  (** bound provenance report, rendered server-side *)
    | Run_concrete of { bench : string; seed : int }
        (** concrete simulation with the benchmark's generated inputs *)
    | Optimize of { bench : string }  (** greedy peak-power optimization *)
    | Bench_list  (** the bundled benchmark inventory *)
    | Cache_stats  (** the executing side's persistent-cache statistics *)
    | Stats of { fmt : stats_fmt }
        (** a point-in-time telemetry snapshot of the executing side *)
    | Health  (** cheap liveness check, served from the admin lane *)
    | Watch of { interval_ms : int; count : int }
        (** stream [count] snapshot frames, one per interval (daemon
            only: the in-process executor rejects it) *)

  val to_json : t -> Explain.Ejson.t

  (** [Error] carries a human-readable reason (shipped as
      [Xbound.Error.Protocol] by the server). *)
  val of_json : Explain.Ejson.t -> (t, string) result
end

module Response : sig
  type t =
    | Analysis of {
        name : string;
        tier : Xbound.Tier.t;
            (** the tier that produced the result (never [Auto]) *)
        paths : int;
        forks : int;
        dedup_hits : int;
        total_cycles : int;
        peak_power : Xbound.Bound.t;
        peak_index : int;
        peak_energy : Xbound.Bound.t;
        peak_energy_cycles : int;
        npe_j_per_cycle : float;
        power_trace_w : float array;
      }
    | Explanation of { name : string; fmt : Request.fmt; text : string }
    | Concrete of {
        name : string;
        seed : int;
        cycles : int;
        peak_w : float;
        peak_cycle : int;
        trace_w : float array;
      }
    | Optimization of {
        name : string;
        chosen : string list;
        base_peak_w : float;
        opt_peak_w : float;
        peak_reduction_pct : float;
        range_reduction_pct : float;
        perf_degradation_pct : float;
        energy_overhead_pct : float;
      }
    | Benchmarks of (string * string * bool) list
        (** (name, description, extended?) — [false] = paper suite *)
    | Cache_stats of {
        dir : string option;
        entries : int;
        bytes : int;
        by_ns : (string * (int * int)) list;
            (** per-namespace (entries, bytes) rows *)
      }
    | Stats of { fmt : Request.stats_fmt; snapshot : Telemetry.Snapshot.t }
        (** the snapshot rides the wire structurally; {!Serve.Render}
            turns it into the requested exposition format client-side.
            For [Watch], the first frame is a full snapshot and every
            further frame a {!Telemetry.Snapshot.diff} over the
            interval. *)
    | Health of {
        ok : bool;
        uptime_s : float;
        queue_len : int;
        queue_capacity : int;
        inflight : int;
        workers : int;
      }

  val to_json : t -> Explain.Ejson.t
  val of_json : Explain.Ejson.t -> (t, string) result
end

(** {1 Snapshot codec}

    A {!Telemetry.Snapshot.t} as JSON — the payload of [Stats]
    responses, also the CLI's [stats --format json] output. [taken_ns]
    is process-local monotonic time and is not shipped; it decodes
    as [0]. *)

val snapshot_to_json : Telemetry.Snapshot.t -> Explain.Ejson.t
val snapshot_of_json : Explain.Ejson.t -> (Telemetry.Snapshot.t, string) result

(** {1 Envelopes} *)

type request_frame = { id : int; priority : priority; request : Request.t }

type response_frame = {
  rid : int;
  result : (Response.t, Xbound.Error.t) Stdlib.result;
}

(** One-line JSON (no trailing newline), ready for {!Serve.Frame}. *)
val encode_request : request_frame -> string

(** Decodes and checks [proto_version]. All failures — unparsable JSON,
    missing members, version mismatch — come back as
    [Xbound.Error.Protocol]. When the envelope carried a readable [id],
    it is returned alongside the error so the server can address its
    error response. *)
val decode_request : string -> (request_frame, int option * Xbound.Error.t) result

val encode_response : response_frame -> string
val decode_response : string -> (response_frame, Xbound.Error.t) result
