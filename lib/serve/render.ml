(* Response rendering. See render.mli. *)

(* Exact-tier output is byte-identical to the v1 rendering; the static
   tier has no flattened trace, so its block reads differently. *)
let analysis ~name ~tier ~paths ~forks ~dedup_hits ~total_cycles ~peak_power
    ~peak_index ~peak_energy ~peak_energy_cycles ~npe_j_per_cycle
    ~power_trace_w =
  let b = Buffer.create 512 in
  let pk_w = peak_power.Xbound.Bound.value in
  let pe_j = peak_energy.Xbound.Bound.value in
  Printf.bprintf b "%s:\n" name;
  (match tier with
  | Xbound.Tier.Static ->
    Printf.bprintf b
      "static tier: CFG + per-block characterization + IPET combiner\n";
    Printf.bprintf b "peak power bound:  %s mW [static]\n"
      (Report.Render.mw pk_w);
    Printf.bprintf b
      "peak energy bound: %.3f nJ over <=%d cycles (%s pJ/cycle) [static]\n"
      (pe_j *. 1e9) peak_energy_cycles
      (Report.Render.npe_pj npe_j_per_cycle)
  | _ ->
    Printf.bprintf b
      "symbolic execution: %d paths, %d forks, %d dedup hits, %d cycles\n"
      paths forks dedup_hits total_cycles;
    Printf.bprintf b
      "peak power bound:  %s mW (cycle %d of the flattened trace)\n"
      (Report.Render.mw pk_w) peak_index;
    Printf.bprintf b "peak energy bound: %.3f nJ over %d cycles (%s pJ/cycle)\n"
      (pe_j *. 1e9) peak_energy_cycles
      (Report.Render.npe_pj npe_j_per_cycle);
    Printf.bprintf b "trace: %s\n" (Report.Render.series power_trace_w));
  Buffer.contents b

let concrete ~name ~seed ~cycles ~peak_w ~peak_cycle ~trace_w =
  Printf.sprintf "%s seed %d: %d cycles, peak %s mW at cycle %d\n%s\n" name seed
    cycles
    (Report.Render.mw peak_w)
    peak_cycle
    (Report.Render.series trace_w)

let optimization ~name ~chosen ~base_peak_w ~opt_peak_w ~peak_reduction_pct
    ~range_reduction_pct ~perf_degradation_pct ~energy_overhead_pct =
  let b = Buffer.create 256 in
  Printf.bprintf b "%s: applied %s\n" name
    (match chosen with
    | [] -> "(no transform reduced the bound)"
    | opts -> String.concat ", " opts);
  Printf.bprintf b "  peak power: %s -> %s mW (%.1f%% reduction)\n"
    (Report.Render.mw base_peak_w)
    (Report.Render.mw opt_peak_w)
    peak_reduction_pct;
  Printf.bprintf b "  dynamic range reduction: %.1f%%\n" range_reduction_pct;
  Printf.bprintf b "  performance cost: %.2f%%, energy cost: %.2f%%\n"
    perf_degradation_pct energy_overhead_pct;
  Buffer.contents b

let benchmarks entries =
  let b = Buffer.create 512 in
  Buffer.add_string b "paper suite (Table 4.1):\n";
  List.iter
    (fun (name, descr, extended) ->
      if not extended then Printf.bprintf b "  %-10s %s\n" name descr)
    entries;
  Buffer.add_string b "extended kernels:\n";
  List.iter
    (fun (name, descr, extended) ->
      if extended then Printf.bprintf b "  %-10s %s\n" name descr)
    entries;
  Buffer.contents b

let cache_stats ~dir ~entries ~bytes ~by_ns =
  let b = Buffer.create 128 in
  Printf.bprintf b "cache directory: %s\nentries: %d\nsize: %.1f KiB\n"
    (Option.value dir ~default:"(memory only)")
    entries
    (float_of_int bytes /. 1024.);
  List.iter
    (fun (ns, (e, byt)) ->
      Printf.bprintf b "  %-12s %6d entries %10.1f KiB\n" ns e
        (float_of_int byt /. 1024.))
    by_ns;
  Buffer.contents b

(* ---------------- observability ---------------- *)

let mib n = float_of_int n /. (1024. *. 1024.)
let ms ns = Int64.to_float ns /. 1e6

(* One histogram row, unit-aware: *_ns distributions in ms, anything
   else as integer counts. Shared by the stats table and `top`. *)
let histo_row b (h : Telemetry.Snapshot.histo) =
  if String.ends_with ~suffix:"_ns" h.hname then
    Printf.bprintf b
      "  %-28s %8d obs  mean %9.3f ms  p50 %9.3f  p90 %9.3f  p99 %9.3f  max \
       %9.3f\n"
      h.hname h.count
      (Int64.to_float h.sum_ns /. 1e6 /. float_of_int h.count)
      (ms h.p50) (ms h.p90) (ms h.p99) (ms h.max_ns)
  else
    Printf.bprintf b
      "  %-28s %8d obs  mean %9.1f     p50 %9Ld  p90 %9Ld  p99 %9Ld  max \
       %9Ld\n"
      h.hname h.count
      (Int64.to_float h.sum_ns /. float_of_int h.count)
      h.p50 h.p90 h.p99 h.max_ns

let stats_table (s : Telemetry.Snapshot.t) =
  let b = Buffer.create 2048 in
  Printf.bprintf b "uptime %.3f s, rss %.1f MiB, active spans %d\n" s.uptime_s
    (mib s.rss_bytes) s.active_spans;
  (match s.gauges with
  | [] -> ()
  | gs ->
    Buffer.add_string b "gauges:\n";
    List.iter (fun (name, v) -> Printf.bprintf b "  %-28s %d\n" name v) gs);
  (match List.filter (fun (_, v) -> v <> 0) s.counters with
  | [] -> ()
  | cs ->
    Buffer.add_string b "counters:\n";
    List.iter (fun (name, v) -> Printf.bprintf b "  %-28s %d\n" name v) cs);
  (match s.histograms with
  | [] -> ()
  | hs ->
    Buffer.add_string b "histograms:\n";
    List.iter (fun h -> histo_row b h) hs);
  Buffer.contents b

let stats ~fmt ~snapshot =
  match fmt with
  | Wire.Request.Stats_table -> stats_table snapshot
  | Wire.Request.Stats_json ->
    Explain.Ejson.to_string (Wire.snapshot_to_json snapshot) ^ "\n"
  | Wire.Request.Stats_prometheus -> Telemetry.Snapshot.to_prometheus snapshot

let health ~ok ~uptime_s ~queue_len ~queue_capacity ~inflight ~workers =
  Printf.sprintf "%s: uptime %.1f s, %d workers, queue %d/%d, %d inflight\n"
    (if ok then "ok" else "degraded")
    uptime_s workers queue_len queue_capacity inflight

(* One `xbound top` frame from a snapshot diff (the Watch stream's
   per-interval payload): rates over the window, the live gauges, the
   cache hit ratio, the tier mix and per-phase latency percentiles. *)
let top (d : Telemetry.Snapshot.t) =
  let b = Buffer.create 1024 in
  let counter name =
    Option.value (List.assoc_opt name d.counters) ~default:0
  in
  let gauge name = Option.value (List.assoc_opt name d.gauges) ~default:0 in
  let histo name =
    List.find_opt
      (fun (h : Telemetry.Snapshot.histo) -> String.equal h.hname name)
      d.histograms
  in
  let window = if d.uptime_s > 0. then d.uptime_s else 1. in
  let rate n = float_of_int n /. window in
  Printf.bprintf b "xbound top — window %.1f s, rss %.1f MiB\n" d.uptime_s
    (mib d.rss_bytes);
  Printf.bprintf b
    "  requests/s %6.1f   rejected/s %6.1f   queue %d/%d   inflight %d\n"
    (rate (counter "serve.requests"))
    (rate (counter "serve.rejected"))
    (gauge "serve.queue_len")
    (gauge "serve.queue_capacity")
    (gauge "serve.inflight");
  let hits =
    counter "cache.mem_hits" + counter "cache.disk_hits"
    + counter "cache.joined"
  in
  let misses = counter "cache.misses" in
  if hits + misses > 0 then
    Printf.bprintf b "  cache hit ratio %.1f%% (%d hits, %d misses)\n"
      (100. *. float_of_int hits /. float_of_int (hits + misses))
      hits misses;
  let tiers =
    List.filter_map
      (fun (name, v) ->
        let prefix = "serve.tier." in
        if String.starts_with ~prefix name && v > 0 then
          Some
            (Printf.sprintf "%s %d"
               (String.sub name (String.length prefix)
                  (String.length name - String.length prefix))
               v)
        else None)
      d.counters
  in
  if tiers <> [] then
    Printf.bprintf b "  tier mix: %s\n" (String.concat ", " tiers);
  List.iter
    (fun name ->
      match histo name with
      | Some h ->
        Printf.bprintf b "  %-20s p50 %8.3f ms  p99 %8.3f ms  (%d obs)\n"
          (String.sub name 6 (String.length name - 6 - 3))
          (ms h.p50) (ms h.p99) h.count
      | None -> ())
    [ "serve.queue_wait_ns"; "serve.exec_ns"; "serve.latency_ns" ];
  let phases =
    List.filter
      (fun (h : Telemetry.Snapshot.histo) ->
        String.starts_with ~prefix:"span.phase." h.hname)
      d.histograms
  in
  if phases <> [] then begin
    Buffer.add_string b "  phases (p50/p99 ms):\n";
    List.iter
      (fun (h : Telemetry.Snapshot.histo) ->
        let name =
          String.sub h.hname 11 (String.length h.hname - 11 - 3)
        in
        Printf.bprintf b "    %-18s %8.3f / %8.3f  (%d)\n" name (ms h.p50)
          (ms h.p99) h.count)
      phases
  end;
  Buffer.contents b

let to_string = function
  | Wire.Response.Analysis
      {
        name;
        tier;
        paths;
        forks;
        dedup_hits;
        total_cycles;
        peak_power;
        peak_index;
        peak_energy;
        peak_energy_cycles;
        npe_j_per_cycle;
        power_trace_w;
      } ->
    analysis ~name ~tier ~paths ~forks ~dedup_hits ~total_cycles ~peak_power
      ~peak_index ~peak_energy ~peak_energy_cycles ~npe_j_per_cycle
      ~power_trace_w
  | Wire.Response.Explanation { text; _ } -> text
  | Wire.Response.Concrete { name; seed; cycles; peak_w; peak_cycle; trace_w }
    ->
    concrete ~name ~seed ~cycles ~peak_w ~peak_cycle ~trace_w
  | Wire.Response.Optimization
      {
        name;
        chosen;
        base_peak_w;
        opt_peak_w;
        peak_reduction_pct;
        range_reduction_pct;
        perf_degradation_pct;
        energy_overhead_pct;
      } ->
    optimization ~name ~chosen ~base_peak_w ~opt_peak_w ~peak_reduction_pct
      ~range_reduction_pct ~perf_degradation_pct ~energy_overhead_pct
  | Wire.Response.Benchmarks entries -> benchmarks entries
  | Wire.Response.Cache_stats { dir; entries; bytes; by_ns } ->
    cache_stats ~dir ~entries ~bytes ~by_ns
  | Wire.Response.Stats { fmt; snapshot } -> stats ~fmt ~snapshot
  | Wire.Response.Health { ok; uptime_s; queue_len; queue_capacity; inflight; workers }
    ->
    health ~ok ~uptime_s ~queue_len ~queue_capacity ~inflight ~workers
