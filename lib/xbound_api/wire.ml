(* Typed request/response surface of the analysis service, with JSON
   codecs. See wire.mli for the envelope grammar. *)

module J = Explain.Ejson

(* Version 3. Analyze/Explain requests name their tier, Analysis
   responses carry Bound objects and a tier, Cache_stats carries
   per-namespace rows. The admin ops are Stats {fmt} (answered with a
   Telemetry.Snapshot), Health, and Watch {interval_ms; count} (the
   server streams [count] snapshot-diff response frames, all carrying
   the request's id). *)
let proto_version = 3

type priority = Interactive | Batch

let priority_to_string = function
  | Interactive -> "interactive"
  | Batch -> "batch"

let priority_of_string = function
  | "interactive" -> Some Interactive
  | "batch" -> Some Batch
  | _ -> None

(* Shared codec helpers: every of_json path is total — a shape mismatch
   is an [Error reason], never an exception. *)
let num i = J.Num (float_of_int i)
let int_member k j = Option.map int_of_float (J.float_member k j)

let float_array_member k j =
  match Option.bind (J.member k j) J.to_list with
  | None -> None
  | Some items ->
    let floats = List.filter_map J.to_float items in
    if List.length floats = List.length items then
      Some (Array.of_list floats)
    else None

let require what = function Some v -> Ok v | None -> Error ("missing or ill-typed " ^ what)

let ( let* ) = Result.bind

(* A Bound.t ships as {value, tier, analysis_version}. *)
let bound_to_json (b : Xbound.Bound.t) =
  J.Obj
    [
      ("value", J.Num b.Xbound.Bound.value);
      ("tier", J.Str (Xbound.Tier.to_string b.Xbound.Bound.tier));
      ("analysis_version", num b.Xbound.Bound.analysis_version);
    ]

let bound_member k j =
  match J.member k j with
  | Some (J.Obj _ as o) -> (
    match
      ( J.float_member "value" o,
        J.string_member "tier" o,
        int_member "analysis_version" o )
    with
    | Some value, Some ts, Some analysis_version ->
      Option.map
        (fun tier -> { Xbound.Bound.value; tier; analysis_version })
        (Xbound.Tier.of_string ts)
    | _ -> None)
  | _ -> None

let tier_member j = Option.bind (J.string_member "tier" j) Xbound.Tier.of_string

(* Int64 over JSON numbers: bucket upper bounds can be Int64.max_int
   (the open-topped last bucket), which a float cannot represent —
   round-trip by clamping anything at or above 2^62 back to max_int. *)
let i64_to_json v = J.Num (Int64.to_float v)

let i64_of_float f =
  if f >= 4.611686018427387904e18 then Int64.max_int
  else if f <= 0. then 0L
  else Int64.of_float f

let i64_member k j = Option.map i64_of_float (J.float_member k j)

module Request = struct
  type fmt = Table | Json | Csv

  let fmt_to_string = function Table -> "table" | Json -> "json" | Csv -> "csv"

  let fmt_of_string = function
    | "table" -> Some Table
    | "json" -> Some Json
    | "csv" -> Some Csv
    | _ -> None

  type stats_fmt = Stats_table | Stats_json | Stats_prometheus

  let stats_fmt_to_string = function
    | Stats_table -> "table"
    | Stats_json -> "json"
    | Stats_prometheus -> "prometheus"

  let stats_fmt_of_string = function
    | "table" -> Some Stats_table
    | "json" -> Some Stats_json
    | "prometheus" -> Some Stats_prometheus
    | _ -> None

  type t =
    | Analyze of { bench : string; tier : Xbound.Tier.t }
    | Explain of {
        bench : string;
        fmt : fmt;
        top : int;
        min_gap : int;
        tier : Xbound.Tier.t;
      }
    | Run_concrete of { bench : string; seed : int }
    | Optimize of { bench : string }
    | Bench_list
    | Cache_stats
    | Stats of { fmt : stats_fmt }
    | Health
    | Watch of { interval_ms : int; count : int }

  let to_json = function
    | Analyze { bench; tier } ->
      J.Obj
        [
          ("op", J.Str "analyze"); ("bench", J.Str bench);
          ("tier", J.Str (Xbound.Tier.to_string tier));
        ]
    | Explain { bench; fmt; top; min_gap; tier } ->
      J.Obj
        [
          ("op", J.Str "explain"); ("bench", J.Str bench);
          ("fmt", J.Str (fmt_to_string fmt)); ("top", num top);
          ("min_gap", num min_gap);
          ("tier", J.Str (Xbound.Tier.to_string tier));
        ]
    | Run_concrete { bench; seed } ->
      J.Obj
        [ ("op", J.Str "run_concrete"); ("bench", J.Str bench);
          ("seed", num seed) ]
    | Optimize { bench } ->
      J.Obj [ ("op", J.Str "optimize"); ("bench", J.Str bench) ]
    | Bench_list -> J.Obj [ ("op", J.Str "bench_list") ]
    | Cache_stats -> J.Obj [ ("op", J.Str "cache_stats") ]
    | Stats { fmt } ->
      J.Obj [ ("op", J.Str "stats"); ("fmt", J.Str (stats_fmt_to_string fmt)) ]
    | Health -> J.Obj [ ("op", J.Str "health") ]
    | Watch { interval_ms; count } ->
      J.Obj
        [
          ("op", J.Str "watch"); ("interval_ms", num interval_ms);
          ("count", num count);
        ]

  let of_json j =
    let str k = require k (J.string_member k j) in
    let int k = require k (int_member k j) in
    match J.string_member "op" j with
    | Some "analyze" ->
      let* bench = str "bench" in
      let* tier = require "tier" (tier_member j) in
      Ok (Analyze { bench; tier })
    | Some "explain" ->
      let* bench = str "bench" in
      let* fmt_s = str "fmt" in
      let* fmt = require "fmt" (fmt_of_string fmt_s) in
      let* top = int "top" in
      let* min_gap = int "min_gap" in
      let* tier = require "tier" (tier_member j) in
      Ok (Explain { bench; fmt; top; min_gap; tier })
    | Some "run_concrete" ->
      let* bench = str "bench" in
      let* seed = int "seed" in
      Ok (Run_concrete { bench; seed })
    | Some "optimize" ->
      let* bench = str "bench" in
      Ok (Optimize { bench })
    | Some "bench_list" -> Ok Bench_list
    | Some "cache_stats" -> Ok Cache_stats
    | Some "stats" ->
      let* fmt_s = str "fmt" in
      let* fmt = require "fmt" (stats_fmt_of_string fmt_s) in
      Ok (Stats { fmt })
    | Some "health" -> Ok Health
    | Some "watch" ->
      let* interval_ms = int "interval_ms" in
      let* count = int "count" in
      Ok (Watch { interval_ms; count })
    | Some op -> Error ("unknown request op " ^ op)
    | None -> Error "missing request op"
end

(* A Telemetry.Snapshot over the wire. [taken_ns] is a process-local
   monotonic reading, meaningless to a peer — it is not shipped and
   decodes as 0. Counts survive exactly up to 2^53 (an int64 rides a
   JSON number); bucket upper bounds at Int64.max_int round-trip via
   the clamp in [i64_of_float]. *)
let snapshot_to_json (s : Telemetry.Snapshot.t) =
  let pairs l = J.Obj (List.map (fun (k, v) -> (k, num v)) l) in
  J.Obj
    [
      ("uptime_s", J.Num s.Telemetry.Snapshot.uptime_s);
      ("rss_bytes", num s.rss_bytes);
      ("active_spans", num s.active_spans);
      ("counters", pairs s.counters);
      ("gauges", pairs s.gauges);
      ( "histograms",
        J.Arr
          (List.map
             (fun (h : Telemetry.Snapshot.histo) ->
               J.Obj
                 [
                   ("name", J.Str h.hname); ("count", num h.count);
                   ("sum_ns", i64_to_json h.sum_ns);
                   ("max_ns", i64_to_json h.max_ns);
                   ("p50", i64_to_json h.p50); ("p90", i64_to_json h.p90);
                   ("p99", i64_to_json h.p99);
                   ( "buckets",
                     J.Arr
                       (List.map
                          (fun (upper, n) ->
                            J.Arr [ i64_to_json upper; num n ])
                          h.buckets) );
                 ])
             s.histograms) );
    ]

let snapshot_of_json j : (Telemetry.Snapshot.t, string) result =
  let pairs k =
    match J.member k j with
    | Some (J.Obj kvs) ->
      let rows =
        List.filter_map
          (fun (name, v) -> Option.map (fun f -> (name, int_of_float f)) (J.to_float v))
          kvs
      in
      if List.length rows = List.length kvs then Ok rows
      else Error ("ill-typed " ^ k)
    | _ -> Error ("missing or ill-typed " ^ k)
  in
  let* uptime_s = require "uptime_s" (J.float_member "uptime_s" j) in
  let* rss_bytes = require "rss_bytes" (int_member "rss_bytes" j) in
  let* active_spans = require "active_spans" (int_member "active_spans" j) in
  let* counters = pairs "counters" in
  let* gauges = pairs "gauges" in
  let* histograms =
    match Option.bind (J.member "histograms" j) J.to_list with
    | None -> Error "missing or ill-typed histograms"
    | Some items ->
      let parse h =
        let bucket = function
          | J.Arr [ u; n ] -> (
            match (J.to_float u, J.to_float n) with
            | Some u, Some n -> Some (i64_of_float u, int_of_float n)
            | _ -> None)
          | _ -> None
        in
        match
          ( J.string_member "name" h,
            int_member "count" h,
            i64_member "sum_ns" h,
            i64_member "max_ns" h,
            i64_member "p50" h,
            i64_member "p90" h,
            i64_member "p99" h,
            Option.bind (J.member "buckets" h) J.to_list )
        with
        | ( Some hname, Some count, Some sum_ns, Some max_ns, Some p50,
            Some p90, Some p99, Some bs ) ->
          let buckets = List.filter_map bucket bs in
          if List.length buckets = List.length bs then
            Some
              {
                Telemetry.Snapshot.hname; count; sum_ns; max_ns; p50; p90;
                p99; buckets;
              }
          else None
        | _ -> None
      in
      let rows = List.filter_map parse items in
      if List.length rows = List.length items then Ok rows
      else Error "ill-typed histogram entry"
  in
  Ok
    {
      Telemetry.Snapshot.taken_ns = 0L;
      uptime_s;
      rss_bytes;
      active_spans;
      counters;
      gauges;
      histograms;
    }

module Response = struct
  type t =
    | Analysis of {
        name : string;
        tier : Xbound.Tier.t;
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
    | Cache_stats of {
        dir : string option;
        entries : int;
        bytes : int;
        by_ns : (string * (int * int)) list;
            (** per-namespace (entries, bytes) rows *)
      }
    | Stats of { fmt : Request.stats_fmt; snapshot : Telemetry.Snapshot.t }
    | Health of {
        ok : bool;
        uptime_s : float;
        queue_len : int;
        queue_capacity : int;
        inflight : int;
        workers : int;
      }

  let to_json = function
    | Analysis a ->
      J.Obj
        [
          ("op", J.Str "analysis"); ("name", J.Str a.name);
          ("tier", J.Str (Xbound.Tier.to_string a.tier));
          ("paths", num a.paths); ("forks", num a.forks);
          ("dedup_hits", num a.dedup_hits);
          ("total_cycles", num a.total_cycles);
          ("peak_power_w", bound_to_json a.peak_power);
          ("peak_index", num a.peak_index);
          ("peak_energy_j", bound_to_json a.peak_energy);
          ("peak_energy_cycles", num a.peak_energy_cycles);
          ("npe_j_per_cycle", J.Num a.npe_j_per_cycle);
          ( "power_trace_w",
            J.Arr
              (Array.to_list (Array.map (fun w -> J.Num w) a.power_trace_w)) );
        ]
    | Explanation { name; fmt; text } ->
      J.Obj
        [
          ("op", J.Str "explanation"); ("name", J.Str name);
          ("fmt", J.Str (Request.fmt_to_string fmt)); ("text", J.Str text);
        ]
    | Concrete c ->
      J.Obj
        [
          ("op", J.Str "concrete"); ("name", J.Str c.name);
          ("seed", num c.seed); ("cycles", num c.cycles);
          ("peak_w", J.Num c.peak_w); ("peak_cycle", num c.peak_cycle);
          ( "trace_w",
            J.Arr (Array.to_list (Array.map (fun w -> J.Num w) c.trace_w)) );
        ]
    | Optimization o ->
      J.Obj
        [
          ("op", J.Str "optimization"); ("name", J.Str o.name);
          ("chosen", J.Arr (List.map (fun s -> J.Str s) o.chosen));
          ("base_peak_w", J.Num o.base_peak_w);
          ("opt_peak_w", J.Num o.opt_peak_w);
          ("peak_reduction_pct", J.Num o.peak_reduction_pct);
          ("range_reduction_pct", J.Num o.range_reduction_pct);
          ("perf_degradation_pct", J.Num o.perf_degradation_pct);
          ("energy_overhead_pct", J.Num o.energy_overhead_pct);
        ]
    | Benchmarks bs ->
      J.Obj
        [
          ("op", J.Str "benchmarks");
          ( "benchmarks",
            J.Arr
              (List.map
                 (fun (name, description, extended) ->
                   J.Obj
                     [
                       ("name", J.Str name);
                       ("description", J.Str description);
                       ("extended", J.Bool extended);
                     ])
                 bs) );
        ]
    | Cache_stats { dir; entries; bytes; by_ns } ->
      J.Obj
        [
          ("op", J.Str "cache_stats");
          ("dir", match dir with Some d -> J.Str d | None -> J.Null);
          ("entries", num entries); ("bytes", num bytes);
          ( "by_ns",
            J.Arr
              (List.map
                 (fun (ns, (e, b)) ->
                   J.Obj
                     [ ("ns", J.Str ns); ("entries", num e); ("bytes", num b) ])
                 by_ns) );
        ]
    | Stats { fmt; snapshot } ->
      J.Obj
        [
          ("op", J.Str "stats");
          ("fmt", J.Str (Request.stats_fmt_to_string fmt));
          ("snapshot", snapshot_to_json snapshot);
        ]
    | Health { ok; uptime_s; queue_len; queue_capacity; inflight; workers } ->
      J.Obj
        [
          ("op", J.Str "health"); ("ok", J.Bool ok);
          ("uptime_s", J.Num uptime_s); ("queue_len", num queue_len);
          ("queue_capacity", num queue_capacity); ("inflight", num inflight);
          ("workers", num workers);
        ]

  let of_json j =
    let str k = require k (J.string_member k j) in
    let int k = require k (int_member k j) in
    let flt k = require k (J.float_member k j) in
    let arr k = require k (float_array_member k j) in
    match J.string_member "op" j with
    | Some "analysis" ->
      let* name = str "name" in
      let* tier = require "tier" (tier_member j) in
      let* paths = int "paths" in
      let* forks = int "forks" in
      let* dedup_hits = int "dedup_hits" in
      let* total_cycles = int "total_cycles" in
      let* peak_power = require "peak_power_w" (bound_member "peak_power_w" j) in
      let* peak_index = int "peak_index" in
      let* peak_energy =
        require "peak_energy_j" (bound_member "peak_energy_j" j)
      in
      let* peak_energy_cycles = int "peak_energy_cycles" in
      let* npe_j_per_cycle = flt "npe_j_per_cycle" in
      let* power_trace_w = arr "power_trace_w" in
      Ok
        (Analysis
           {
             name; tier; paths; forks; dedup_hits; total_cycles; peak_power;
             peak_index; peak_energy; peak_energy_cycles; npe_j_per_cycle;
             power_trace_w;
           })
    | Some "explanation" ->
      let* name = str "name" in
      let* fmt_s = str "fmt" in
      let* fmt = require "fmt" (Request.fmt_of_string fmt_s) in
      let* text = str "text" in
      Ok (Explanation { name; fmt; text })
    | Some "concrete" ->
      let* name = str "name" in
      let* seed = int "seed" in
      let* cycles = int "cycles" in
      let* peak_w = flt "peak_w" in
      let* peak_cycle = int "peak_cycle" in
      let* trace_w = arr "trace_w" in
      Ok (Concrete { name; seed; cycles; peak_w; peak_cycle; trace_w })
    | Some "optimization" ->
      let* name = str "name" in
      let* chosen =
        match Option.bind (J.member "chosen" j) J.to_list with
        | None -> Error "missing or ill-typed chosen"
        | Some items ->
          let ss = List.filter_map J.to_str items in
          if List.length ss = List.length items then Ok ss
          else Error "missing or ill-typed chosen"
      in
      let* base_peak_w = flt "base_peak_w" in
      let* opt_peak_w = flt "opt_peak_w" in
      let* peak_reduction_pct = flt "peak_reduction_pct" in
      let* range_reduction_pct = flt "range_reduction_pct" in
      let* perf_degradation_pct = flt "perf_degradation_pct" in
      let* energy_overhead_pct = flt "energy_overhead_pct" in
      Ok
        (Optimization
           {
             name; chosen; base_peak_w; opt_peak_w; peak_reduction_pct;
             range_reduction_pct; perf_degradation_pct; energy_overhead_pct;
           })
    | Some "benchmarks" ->
      let* items =
        require "benchmarks" (Option.bind (J.member "benchmarks" j) J.to_list)
      in
      let parsed =
        List.filter_map
          (fun b ->
            match
              ( J.string_member "name" b,
                J.string_member "description" b,
                J.member "extended" b )
            with
            | Some n, Some d, Some (J.Bool e) -> Some (n, d, e)
            | _ -> None)
          items
      in
      if List.length parsed = List.length items then Ok (Benchmarks parsed)
      else Error "ill-typed benchmarks entry"
    | Some "cache_stats" ->
      let dir =
        match J.member "dir" j with Some (J.Str d) -> Some d | _ -> None
      in
      let* entries = int "entries" in
      let* bytes = int "bytes" in
      let* by_ns =
        match Option.bind (J.member "by_ns" j) J.to_list with
        | None -> Error "missing or ill-typed by_ns"
        | Some items ->
          let rows =
            List.filter_map
              (fun r ->
                match
                  ( J.string_member "ns" r,
                    int_member "entries" r,
                    int_member "bytes" r )
                with
                | Some ns, Some e, Some b -> Some (ns, (e, b))
                | _ -> None)
              items
          in
          if List.length rows = List.length items then Ok rows
          else Error "ill-typed by_ns entry"
      in
      Ok (Cache_stats { dir; entries; bytes; by_ns })
    | Some "stats" ->
      let* fmt_s = str "fmt" in
      let* fmt = require "fmt" (Request.stats_fmt_of_string fmt_s) in
      let* snapshot =
        match J.member "snapshot" j with
        | None -> Error "missing snapshot"
        | Some s -> snapshot_of_json s
      in
      Ok (Stats { fmt; snapshot })
    | Some "health" ->
      let* ok =
        match J.member "ok" j with
        | Some (J.Bool b) -> Ok b
        | _ -> Error "missing or ill-typed ok"
      in
      let* uptime_s = flt "uptime_s" in
      let* queue_len = int "queue_len" in
      let* queue_capacity = int "queue_capacity" in
      let* inflight = int "inflight" in
      let* workers = int "workers" in
      Ok (Health { ok; uptime_s; queue_len; queue_capacity; inflight; workers })
    | Some op -> Error ("unknown response op " ^ op)
    | None -> Error "missing response op"
end

(* ---------------- envelopes ---------------- *)

type request_frame = { id : int; priority : priority; request : Request.t }

type response_frame = {
  rid : int;
  result : (Response.t, Xbound.Error.t) Stdlib.result;
}

let encode_request { id; priority; request } =
  J.to_string
    (J.Obj
       [
         ("proto_version", num proto_version); ("id", num id);
         ("priority", J.Str (priority_to_string priority));
         ("request", Request.to_json request);
       ])

let decode_request text =
  match J.parse_opt text with
  | None -> Error (None, Xbound.Error.Protocol "request is not valid JSON")
  | Some j -> (
    let id = int_member "id" j in
    let fail m = Error (id, Xbound.Error.Protocol m) in
    match int_member "proto_version" j with
    | None -> fail "missing proto_version"
    | Some v when v <> proto_version ->
      fail
        (Printf.sprintf "unsupported proto_version %d (server speaks %d)" v
           proto_version)
    | Some _ -> (
      match id with
      | None -> fail "missing request id"
      | Some id -> (
        let priority =
          (* absent priority defaults to interactive; an unknown string
             is a malformed request *)
          match J.string_member "priority" j with
          | None -> Some Interactive
          | Some s -> priority_of_string s
        in
        match priority with
        | None -> fail "unknown priority"
        | Some priority -> (
          match J.member "request" j with
          | None -> fail "missing request body"
          | Some body -> (
            match Request.of_json body with
            | Ok request -> Ok { id; priority; request }
            | Error m -> fail m)))))

let encode_response { rid; result } =
  let payload =
    match result with
    | Ok r -> ("result", Response.to_json r)
    | Error e -> ("error", Xbound.Error.to_wire e)
  in
  J.to_string (J.Obj [ ("id", num rid); payload ])

let decode_response text =
  match J.parse_opt text with
  | None -> Error (Xbound.Error.Protocol "response is not valid JSON")
  | Some j -> (
    match int_member "id" j with
    | None -> Error (Xbound.Error.Protocol "missing response id")
    | Some rid -> (
      match (J.member "result" j, J.member "error" j) with
      | Some r, _ -> (
        match Response.of_json r with
        | Ok resp -> Ok { rid; result = Ok resp }
        | Error m -> Error (Xbound.Error.Protocol m))
      | None, Some e -> (
        match Xbound.Error.of_wire e with
        | Some err -> Ok { rid; result = Error err }
        | None ->
          Ok
            {
              rid;
              result =
                Error
                  (Xbound.Error.Protocol
                     ("unrecognized error payload " ^ J.to_string e));
            })
      | None, None ->
        Error (Xbound.Error.Protocol "response has neither result nor error")))
