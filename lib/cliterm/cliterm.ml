open Cmdliner

type t = {
  ctx : Xbound.Ctx.t;
  trace_file : string option;
  stats : bool;
}

let ctx c = c.ctx
let cache c = c.ctx.Xbound.Ctx.cache
let tier c = c.ctx.Xbound.Ctx.tier

let jobs_arg =
  let doc =
    "Number of worker domains for parallel analysis (default: the machine's \
     recommended domain count; 1 = fully sequential). Results are \
     bit-identical at any job count."
  in
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let cache_dir_arg =
  let doc =
    "Directory for the persistent analysis cache (default: \
     \\$XBOUND_CACHE_DIR, else \\$XDG_CACHE_HOME/xbound, else \
     ~/.cache/xbound)."
  in
  Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR" ~doc)

let no_cache_arg =
  let doc = "Disable the analysis cache (memory and disk) for this run." in
  Arg.(value & flag & info [ "no-cache" ] ~doc)

let trace_arg =
  let doc =
    "Record telemetry for the whole command and write it as a Chrome \
     trace-event JSON file (open in chrome://tracing or ui.perfetto.dev): \
     hierarchical phase spans per worker domain, plus pool and cache \
     counters. Tracing never changes results."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let stats_arg =
  let doc =
    "Print a telemetry summary (phase breakdown, per-domain utilization, \
     pool/cache counters) to stderr when the command finishes."
  in
  Arg.(value & flag & info [ "stats" ] ~doc)

let tier_arg =
  let doc =
    "Bound tier: $(b,exact) runs Algorithm 1 whole-program symbolic \
     exploration (the tight bound), $(b,static) runs the CFG + per-block \
     characterization + IPET combiner (always terminates, dominates the \
     exact bound), $(b,auto) tries static first and escalates to exact when \
     the static cycle bound says exploration is feasible."
  in
  let tier_conv =
    Arg.conv ~docv:"TIER"
      ( (fun s ->
          match Xbound.Tier.of_string s with
          | Some t -> Ok t
          | None ->
            Error (`Msg (Printf.sprintf "unknown tier %S (expected %s)" s
                           (String.concat "|"
                              (List.map Xbound.Tier.to_string Xbound.Tier.all))))),
        fun fmt t -> Format.pp_print_string fmt (Xbound.Tier.to_string t) )
  in
  Arg.(
    value
    & opt tier_conv Xbound.Tier.Exact
    & info [ "tier" ] ~docv:"TIER" ~doc)

let make jobs cache_dir no_cache trace_file stats tier =
  (match jobs with None -> () | Some j -> Parallel.set_default_jobs j);
  let cache =
    if no_cache then None
    else
      Some
        (Cache.create
           ~dir:(Option.value cache_dir ~default:(Cache.default_dir ()))
           ())
  in
  let telemetry =
    if trace_file = None && not stats then None
    else begin
      let s = Telemetry.create () in
      Telemetry.set_ambient (Some s);
      (* at_exit runs LIFO, and this hook is registered before any worker
         pool exists: the pool's own shutdown hook (which joins the
         domains) runs first, so every per-domain buffer is complete by
         the time the trace is exported. Exporting in at_exit also
         covers the error paths that leave via [exit 1]. *)
      at_exit (fun () ->
          Telemetry.set_ambient None;
          Option.iter
            (fun file ->
              Telemetry.write_chrome s ~file;
              Printf.eprintf "wrote trace to %s\n%!" file)
            trace_file;
          if stats then prerr_string (Telemetry.stats_summary s));
      Some s
    end
  in
  {
    ctx = { Xbound.Ctx.cache; jobs; telemetry; tier };
    trace_file;
    stats;
  }

let term =
  Term.(
    const make $ jobs_arg $ cache_dir_arg $ no_cache_arg $ trace_arg
    $ stats_arg $ tier_arg)
