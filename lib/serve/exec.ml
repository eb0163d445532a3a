(* Request execution against the Xbound facade. See exec.mli. *)

let ( let* ) = Result.bind

let op_name = function
  | Wire.Request.Analyze _ -> "analyze"
  | Wire.Request.Explain _ -> "explain"
  | Wire.Request.Run_concrete _ -> "run_concrete"
  | Wire.Request.Optimize _ -> "optimize"
  | Wire.Request.Bench_list -> "bench_list"
  | Wire.Request.Cache_stats -> "cache_stats"
  | Wire.Request.Stats _ -> "stats"
  | Wire.Request.Health -> "health"
  | Wire.Request.Watch _ -> "watch"

(* The tier a request asks for, where that makes sense — the tier-mix
   counters and the access log report it. *)
let tier_of_request = function
  | Wire.Request.Analyze { tier; _ } | Wire.Request.Explain { tier; _ } ->
    Some tier
  | _ -> None

(* A failure no caller is waiting for is counted and reported on
   stderr, never dropped. *)
let report_failure counter ~what e =
  Telemetry.Counter.incr counter;
  Printf.eprintf "xbound serve: %s failed: %s\n%!" what (Printexc.to_string e)

let c_background_errors = Telemetry.Counter.make "serve.background_errors"

type background = key:string -> (unit -> unit) -> unit

let guarded ~what f () =
  try f () with e -> report_failure c_background_errors ~what e

(* Auto tier under a long-lived server: when the immediate answer came
   from the static tier (the facade found exact escalation infeasible or
   failing), still attempt the exact tier as background work so the
   shared cache warms up for later requests. [background] decides where
   it runs (the daemon's scheduler, keyed by the program so one warm-up
   is pending per program); without it nothing is queued. The attempt
   self-limits via the benchmark's [max_paths]; its typed result is
   discarded, and an exception is counted and reported. *)
let warm_exact_in_background ?background ~ctx ~requested program
    (a : Xbound.analysis) =
  match background with
  | Some queue
    when requested = Xbound.Tier.Auto
         && a.Xbound.tier = Xbound.Tier.Static
         && Option.is_some ctx.Xbound.Ctx.cache ->
    queue ~key:(Cache.Key.of_value program)
      (guarded ~what:"background exact warm-up" (fun () ->
           ignore
             (Xbound.analyze
                ~ctx:{ ctx with Xbound.Ctx.tier = Xbound.Tier.Exact }
                program)))
  | _ -> ()

let analyze ?background ~ctx bench tier =
  let ctx = { ctx with Xbound.Ctx.tier } in
  let* program = Xbound.bench bench in
  let* a = Xbound.analyze ~ctx program in
  warm_exact_in_background ?background ~ctx ~requested:tier program a;
  Ok
    (Wire.Response.Analysis
       {
         name = bench;
         tier = a.Xbound.tier;
         paths = a.Xbound.paths;
         forks = a.Xbound.forks;
         dedup_hits = a.Xbound.dedup_hits;
         total_cycles = a.Xbound.total_cycles;
         peak_power = a.Xbound.peak_power;
         peak_index = a.Xbound.peak_index;
         peak_energy = a.Xbound.peak_energy;
         peak_energy_cycles = a.Xbound.peak_energy_cycles;
         npe_j_per_cycle = a.Xbound.npe_j_per_cycle;
         power_trace_w = a.Xbound.power_trace_w;
       })

(* A static-tier explanation is the per-block provenance table plus (in
   table format) the measured gap versus the exact tier. The exact run
   shares the cache, so on a warmed server this footer is cheap; when
   exact exploration is infeasible the footer degrades to n/a. *)
let static_explanation ~ctx s fmt program =
  match fmt with
  | Wire.Request.Json -> Static.Ipet.to_json s ^ "\n"
  | Wire.Request.Csv -> Static.Ipet.to_csv s
  | Wire.Request.Table ->
    let footer =
      match
        Xbound.analyze
          ~ctx:{ ctx with Xbound.Ctx.tier = Xbound.Tier.Exact }
          program
      with
      | Ok e ->
        let gap stat exact =
          if exact = 0.0 then 0.0 else (stat -. exact) /. exact *. 100.0
        in
        Printf.sprintf
          "vs exact tier: peak power +%.1f%% (%s vs %s mW), peak energy \
           +%.1f%% (%.3f vs %.3f nJ)\n"
          (gap s.Static.Ipet.s_peak_power_w (Xbound.peak_power_w e))
          (Report.Render.mw s.Static.Ipet.s_peak_power_w)
          (Report.Render.mw (Xbound.peak_power_w e))
          (gap s.Static.Ipet.s_peak_energy_j (Xbound.peak_energy_j e))
          (s.Static.Ipet.s_peak_energy_j *. 1e9)
          (Xbound.peak_energy_j e *. 1e9)
      | Error err ->
        Printf.sprintf "vs exact tier: n/a (%s)\n" (Xbound.Error.to_string err)
    in
    Static.Ipet.to_table s ^ footer

let explain ~ctx bench fmt top min_gap tier =
  let ctx = { ctx with Xbound.Ctx.tier } in
  let* program = Xbound.bench bench in
  let* a = Xbound.analyze ~ctx program in
  let text =
    Telemetry.span "render" @@ fun () ->
    match Xbound.static_detail a with
    | Some s -> static_explanation ~ctx s fmt program
    | None -> (
      let ex = Xbound.explain ~ctx ~top ~min_gap a in
      match fmt with
      | Wire.Request.Table -> Explain.Report.to_table ex
      | Wire.Request.Json -> Explain.Report.to_json_string ex ^ "\n"
      | Wire.Request.Csv -> Explain.Report.to_csv ex)
  in
  Ok (Wire.Response.Explanation { name = bench; fmt; text })

let run_concrete ~ctx bench seed =
  let* b = Xbound.find_bench bench in
  let* program = Xbound.bench bench in
  let* t =
    Xbound.run_concrete ~ctx program
      ~inputs:[ (Benchprogs.Bench.input_base, b.Benchprogs.Bench.gen_inputs ~seed) ]
  in
  Ok
    (Wire.Response.Concrete
       {
         name = bench;
         seed;
         cycles = t.Xbound.cycles;
         peak_w = t.Xbound.peak_w;
         peak_cycle = t.Xbound.peak_cycle;
         trace_w = t.Xbound.trace_w;
       })

let optimize ~ctx bench =
  let* o = Xbound.optimize ~ctx bench in
  Ok
    (Wire.Response.Optimization
       {
         name = bench;
         chosen = o.Xbound.chosen;
         base_peak_w = o.Xbound.base_peak_w;
         opt_peak_w = o.Xbound.opt_peak_w;
         peak_reduction_pct = o.Xbound.peak_reduction_pct;
         range_reduction_pct = o.Xbound.range_reduction_pct;
         perf_degradation_pct = o.Xbound.perf_degradation_pct;
         energy_overhead_pct = o.Xbound.energy_overhead_pct;
       })

let bench_list () =
  let entry extended b =
    (b.Benchprogs.Bench.name, b.Benchprogs.Bench.description, extended)
  in
  Ok
    (Wire.Response.Benchmarks
       (List.map (entry false) Benchprogs.Bench.all
       @ List.map (entry true) Benchprogs.Extended.all))

let cache_stats ~ctx () =
  match ctx.Xbound.Ctx.cache with
  | None -> Error (Xbound.Error.Cache "cache disabled (--no-cache)")
  | Some cache ->
    let by_ns = Cache.disk_stats_by_ns cache in
    let entries, bytes = Cache.sum_rows by_ns in
    Ok
      (Wire.Response.Cache_stats { dir = Cache.dir cache; entries; bytes; by_ns })

(* Stats and Health read only process-wide telemetry (the serve gauges
   are maintained by the running server, and are simply 0 in-process),
   so the same executor serves the CLI and the daemon's admin lane. *)
let stats fmt =
  Ok (Wire.Response.Stats { fmt; snapshot = Telemetry.Snapshot.take () })

let health () =
  let g name = Telemetry.Gauge.value (Telemetry.Gauge.make name) in
  Ok
    (Wire.Response.Health
       {
         ok = true;
         uptime_s = Telemetry.uptime_s ();
         queue_len = g "serve.queue_len";
         queue_capacity = g "serve.queue_capacity";
         inflight = g "serve.inflight";
         workers = g "serve.workers";
       })

let exec ?background ~ctx = function
  | Wire.Request.Analyze { bench; tier } -> analyze ?background ~ctx bench tier
  | Wire.Request.Explain { bench; fmt; top; min_gap; tier } ->
    explain ~ctx bench fmt top min_gap tier
  | Wire.Request.Run_concrete { bench; seed } -> run_concrete ~ctx bench seed
  | Wire.Request.Optimize { bench } -> optimize ~ctx bench
  | Wire.Request.Bench_list -> bench_list ()
  | Wire.Request.Cache_stats -> cache_stats ~ctx ()
  | Wire.Request.Stats { fmt } -> stats fmt
  | Wire.Request.Health -> health ()
  | Wire.Request.Watch _ ->
    (* Streaming only makes sense over a connection; the server handles
       Watch on its admin lane and never routes it here. *)
    Error (Xbound.Error.Protocol "watch requires a daemon connection")
