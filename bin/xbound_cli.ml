(* xbound — determine application-specific peak power and energy
   requirements for the bundled ULP processor.

   Subcommands: list, netlist, analyze, analyze-file, profile, coi,
   explain, optimize, disasm, trace, wcec, stressmark, cache, serve,
   export-*.

   The request-oriented subcommands (list, analyze, explain, trace,
   optimize, cache stats) are thin builders of [Wire.Request.t]
   values: each builds a request, dispatches it — in-process through
   [Serve.Exec], or to a running [xbound serve] daemon with
   [--connect ADDR] — and prints the decoded response through
   [Serve.Render]. Output is byte-identical on both paths.

   All heavy subcommands share one set of knobs, defined once in
   [Cliterm]: -j/--jobs, --cache-dir, --no-cache, --trace, --stats
   (plus --seed where concrete inputs are generated). User-facing
   failures are typed [Xbound.Error.t] values rendered as one-line
   diagnostics with a nonzero exit code. Telemetry output (the Chrome
   trace file, the --stats summary) never touches stdout, so reported
   bounds are byte-identical with tracing on or off. *)

open Cmdliner

(* The one --seed flag, shared by every subcommand that generates
   concrete input sets. *)
let seed_term =
  let doc = "Input-set seed for concrete input generation." in
  Arg.(value & opt int 8 & info [ "seed" ] ~docv:"SEED" ~doc)

(* The benchmark name, as a positional argument or --bench NAME —
   the two spellings are equivalent. *)
let bench_term =
  let pos =
    let doc = "Benchmark name (try: xbound list)." in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"BENCH" ~doc)
  in
  let named =
    let doc = "Benchmark name (equivalent to the positional argument)." in
    Arg.(value & opt (some string) None & info [ "bench" ] ~docv:"BENCH" ~doc)
  in
  let pick named pos =
    match (named, pos) with
    | Some n, _ -> Ok n
    | None, Some p -> Ok p
    | None, None ->
      Error (`Msg "required benchmark name: a BENCH argument or --bench")
  in
  Term.term_result ~usage:true Term.(const pick $ named $ pos)

(* Render a typed error as a clean diagnostic and a nonzero exit. *)
let handle = function
  | Ok () -> ()
  | Error e ->
    Printf.eprintf "xbound: %s\n" (Xbound.Error.to_string e);
    exit 1

let ( let* ) = Result.bind

let report_ctx c = Report.Context.create ?cache:(Cliterm.cache c) ()

(* ---------------- request dispatch ---------------- *)

(* The one --connect flag: dispatch the request to a daemon instead of
   executing in-process. *)
let connect_term =
  let doc =
    "Send the request to a running $(b,xbound serve) daemon at $(docv) \
     (a unix socket path, or HOST:PORT for --tcp daemons) instead of \
     executing in-process. Output is byte-identical either way."
  in
  Arg.(value & opt (some string) None & info [ "connect" ] ~docv:"ADDR" ~doc)

let dispatch ~ctx connect req =
  match connect with
  | None -> Serve.Exec.exec ~ctx req
  | Some addr -> (
    match Serve.Client.connect (Serve.Addr.of_string addr) with
    | Error m -> Error (Xbound.Error.Protocol m)
    | Ok client ->
      Fun.protect
        ~finally:(fun () -> Serve.Client.close client)
        (fun () -> Serve.Client.rpc client req))

(* Build, dispatch, render: the whole life of a request-oriented
   subcommand. *)
let run_request ~ctx connect req =
  handle
    (let* resp = dispatch ~ctx connect req in
     Telemetry.span "render" @@ fun () ->
     print_string (Serve.Render.to_string resp);
     Ok ())

(* ---------------- light subcommands ---------------- *)

let list_cmd =
  let run connect =
    run_request ~ctx:Xbound.Ctx.default connect Wire.Request.Bench_list
  in
  Cmd.v (Cmd.info "list" ~doc:"List the bundled benchmark applications")
    Term.(const run $ connect_term)

let netlist_cmd =
  let run c =
    let ctx = report_ctx c in
    let stats = Netlist.Stats.compute ctx.Report.Context.cpu.Cpu.netlist in
    Format.printf "%a" Netlist.Stats.pp stats;
    Printf.printf "base power: %s mW (leakage + clock tree)\n"
      (Report.Render.mw (Poweran.base_power ctx.Report.Context.pa));
    Printf.printf "design-tool rated peak: %s mW\n"
      (Report.Render.mw (Report.Context.design_peak ctx))
  in
  Cmd.v
    (Cmd.info "netlist" ~doc:"Show the processor netlist statistics")
    Term.(const run $ Cliterm.term)

(* ---------------- analysis subcommands (via the Xbound facade) ------- *)

let analyze_cmd =
  let run c connect name =
    run_request ~ctx:(Cliterm.ctx c) connect
      (Wire.Request.Analyze { bench = name; tier = Cliterm.tier c })
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Peak power and energy bounds for a benchmark (exact symbolic \
          execution, or the static CFG/IPET tier with --tier)")
    Term.(const run $ Cliterm.term $ connect_term $ bench_term)

let analyze_file_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE.s" ~doc:"MSP430-subset assembly source file.")
  in
  let run c path =
    handle
      (let text = In_channel.with_open_text path In_channel.input_all in
       let* program = Xbound.of_source ~name:path text in
       let* a = Xbound.analyze ~ctx:(Cliterm.ctx c) program in
       Printf.printf "%s:\n" path;
       (match a.Xbound.tier with
       | Xbound.Tier.Static ->
         Printf.printf "static tier: CFG/IPET bound over <=%d cycles\n"
           a.Xbound.peak_energy_cycles
       | _ ->
         Printf.printf "symbolic execution: %d paths, %d forks, %d cycles\n"
           a.Xbound.paths a.Xbound.forks a.Xbound.total_cycles);
       Printf.printf "peak power bound:  %s mW\n"
         (Report.Render.mw (Xbound.peak_power_w a));
       Printf.printf "peak energy bound: %.3f nJ (%s pJ/cycle)\n"
         (Xbound.peak_energy_j a *. 1e9)
         (Report.Render.npe_pj a.Xbound.npe_j_per_cycle);
       Ok ())
  in
  Cmd.v
    (Cmd.info "analyze-file"
       ~doc:"Assemble an .s source file and bound its peak power/energy")
    Term.(const run $ Cliterm.term $ file_arg)

let coi_cmd =
  let run c name =
    handle
      (let* program = Xbound.bench name in
       let* a = Xbound.analyze ~ctx:(Cliterm.ctx c) program in
       List.iter
         (fun coi -> Format.printf "%a" Xbound.pp_coi coi)
         (Xbound.cois ~top:4 ~min_gap:4 a);
       Ok ())
  in
  Cmd.v
    (Cmd.info "coi" ~doc:"Report the cycles of interest (peak power spikes)")
    Term.(const run $ Cliterm.term $ bench_term)

let explain_cmd =
  let format_arg =
    let doc =
      "Report format: $(b,table) (human-readable), $(b,json) (everything, \
       including the per-cycle X-density series), or $(b,csv) (per-COI \
       module attribution rows)."
    in
    Arg.(
      value
      & opt (enum [ ("table", `Table); ("json", `Json); ("csv", `Csv) ]) `Table
      & info [ "format" ] ~docv:"FMT" ~doc)
  in
  let out_arg =
    let doc = "Write the report to $(docv) instead of stdout." in
    Arg.(value & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE" ~doc)
  in
  let top_arg =
    let doc = "Number of cycles of interest to attribute." in
    Arg.(value & opt int 4 & info [ "top" ] ~docv:"N" ~doc)
  in
  let min_gap_arg =
    let doc = "Minimum cycle distance between reported COIs." in
    Arg.(value & opt int 5 & info [ "min-gap" ] ~docv:"N" ~doc)
  in
  let run c connect name fmt out top min_gap =
    let fmt =
      match fmt with
      | `Table -> Wire.Request.Table
      | `Json -> Wire.Request.Json
      | `Csv -> Wire.Request.Csv
    in
    handle
      (let* resp =
         dispatch ~ctx:(Cliterm.ctx c) connect
           (Wire.Request.Explain
              { bench = name; fmt; top; min_gap; tier = Cliterm.tier c })
       in
       let text = Serve.Render.to_string resp in
       (match out with
       | None -> print_string text
       | Some file ->
         Out_channel.with_open_text file (fun oc -> output_string oc text);
         Printf.eprintf "wrote %s\n" file);
       Ok ())
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Bound provenance: per-COI module/gate-class power attribution and \
          execution-tree observability (X-density, fork/merge and seen-set \
          statistics)")
    Term.(
      const run $ Cliterm.term $ connect_term $ bench_term $ format_arg
      $ out_arg $ top_arg $ min_gap_arg)

let optimize_cmd =
  let run c connect name =
    run_request ~ctx:(Cliterm.ctx c) connect
      (Wire.Request.Optimize { bench = name })
  in
  Cmd.v
    (Cmd.info "optimize"
       ~doc:"Apply the peak-power software optimizations to a benchmark")
    Term.(const run $ Cliterm.term $ connect_term $ bench_term)

let trace_cmd =
  let run c connect name seed =
    run_request ~ctx:(Cliterm.ctx c) connect
      (Wire.Request.Run_concrete { bench = name; seed })
  in
  Cmd.v
    (Cmd.info "trace" ~doc:"Concrete power trace of a benchmark run")
    Term.(const run $ Cliterm.term $ connect_term $ bench_term $ seed_term)

(* ---------------- report-layer subcommands ---------------- *)

let profile_cmd =
  let run c name =
    handle
      (let* b = Xbound.find_bench name in
       let ctx = report_ctx c in
       let p = Report.Context.profile ctx b in
       Printf.printf "%s input-based profiling over %d input sets:\n" name
         (List.length p.Baselines.Profiling.peaks);
       Printf.printf "  peak power: %s .. %s mW  (guardbanded: %s mW)\n"
         (Report.Render.mw p.Baselines.Profiling.min_peak)
         (Report.Render.mw p.Baselines.Profiling.max_peak)
         (Report.Render.mw p.Baselines.Profiling.gb_peak);
       Printf.printf "  NPE: %s .. %s pJ/cycle (guardbanded: %s)\n"
         (Report.Render.npe_pj p.Baselines.Profiling.min_npe)
         (Report.Render.npe_pj p.Baselines.Profiling.max_npe)
         (Report.Render.npe_pj p.Baselines.Profiling.gb_npe);
       Ok ())
  in
  Cmd.v
    (Cmd.info "profile" ~doc:"Input-based profiling baseline for a benchmark")
    Term.(const run $ Cliterm.term $ bench_term)

let wcec_cmd =
  let run c name seed =
    handle
      (let* b = Xbound.find_bench name in
       let ctx = report_ctx c in
       let img = Benchprogs.Bench.assemble b in
       let w =
         Baselines.Wcec.of_program ctx.Report.Context.pa img
           ~input_sets:
             [
               b.Benchprogs.Bench.gen_inputs ~seed:2;
               b.Benchprogs.Bench.gen_inputs ~seed;
             ]
       in
       let a = Report.Context.analysis ctx b in
       let x_npe = a.Core.Analyze.peak_energy.Core.Peak_energy.npe in
       Printf.printf
         "%s: instruction-level WCEC model %s pJ/cycle vs gate-level bound %s \
          pJ/cycle (%.1f%% tighter)\n"
         name
         (Report.Render.npe_pj w.Baselines.Wcec.npe)
         (Report.Render.npe_pj x_npe)
         (100. *. (1. -. (x_npe /. w.Baselines.Wcec.npe)));
       Ok ())
  in
  Cmd.v
    (Cmd.info "wcec"
       ~doc:"Compare the instruction-level WCEC model with the gate-level bound")
    Term.(const run $ Cliterm.term $ bench_term $ seed_term)

let stressmark_cmd =
  let run c =
    let ctx = report_ctx c in
    let s = Report.Context.stressmark_peak ctx in
    Printf.printf
      "GA stressmark (peak-power fitness): %s mW peak, %s mW average, %d \
       evaluations\n"
      (Report.Render.mw s.Baselines.Stressmark.peak_power)
      (Report.Render.mw s.Baselines.Stressmark.avg_power)
      s.Baselines.Stressmark.evaluations;
    print_endline "best genome as assembly:";
    List.iter
      (function
        | Isa.Asm.I i -> Printf.printf "  %s\n" (Isa.Insn.to_string i)
        | Isa.Asm.Label l -> Printf.printf "%s:\n" l
        | _ -> ())
      (Baselines.Stressmark.phenotype Baselines.Stressmark.default_config
         s.Baselines.Stressmark.best_genome)
  in
  Cmd.v
    (Cmd.info "stressmark"
       ~doc:"Run the genetic stressmark search and print the result")
    Term.(const run $ Cliterm.term)

(* ---------------- cache management ---------------- *)

let cache_stats_cmd =
  let run c connect =
    run_request ~ctx:(Cliterm.ctx c) connect Wire.Request.Cache_stats
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Show persistent cache location, entry count and size (the \
          daemon's cache with --connect)")
    Term.(const run $ Cliterm.term $ connect_term)

let cache_clear_cmd =
  let run c =
    match Cliterm.cache c with
    | None -> handle (Error (Xbound.Error.Cache "cache disabled (--no-cache)"))
    | Some cache ->
      let entries, _ = Cache.disk_stats cache in
      Cache.clear cache;
      Printf.printf "removed %d cache entr%s from %s\n" entries
        (if entries = 1 then "y" else "ies")
        (Option.value (Cache.dir cache) ~default:"(memory)")
  in
  Cmd.v
    (Cmd.info "clear" ~doc:"Delete every persistent cache entry")
    Term.(const run $ Cliterm.term)

let cache_cmd =
  Cmd.group
    (Cmd.info "cache" ~doc:"Inspect or clear the persistent analysis cache")
    [ cache_stats_cmd; cache_clear_cmd ]

(* ---------------- the daemon ---------------- *)

let serve_cmd =
  let socket_arg =
    let doc =
      "Unix-domain socket path to listen on (default: xbound.sock in the \
       system temporary directory)."
    in
    Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)
  in
  let tcp_arg =
    let doc = "Listen on TCP $(docv) instead of a unix socket." in
    Arg.(
      value & opt (some string) None & info [ "tcp" ] ~docv:"HOST:PORT" ~doc)
  in
  let workers_arg =
    let doc =
      "Executor domains: how many requests run concurrently, each on its \
       own domain (each still parallelizes internally across the -j \
       worker domains)."
    in
    Arg.(value & opt int 2 & info [ "workers" ] ~docv:"N" ~doc)
  in
  let queue_arg =
    let doc =
      "Admission bound: requests beyond $(docv) queued are rejected with a \
       typed overloaded error instead of queuing without limit."
    in
    Arg.(value & opt int 64 & info [ "queue-capacity" ] ~docv:"N" ~doc)
  in
  let access_log_arg =
    let doc =
      "Append one JSONL entry per finished request (id, client, op, tier, \
       priority, queue wait, exec time, per-request counters, outcome) to \
       $(docv)."
    in
    Arg.(
      value
      & opt (some string) None
      & info [ "access-log" ] ~docv:"FILE" ~doc)
  in
  let slow_ms_arg =
    let doc =
      "Log requests slower than $(docv) milliseconds at warn level with \
       their per-phase timings (0 disables)."
    in
    Arg.(value & opt int 0 & info [ "slow-ms" ] ~docv:"MS" ~doc)
  in
  let trace_sample_arg =
    let doc =
      "Dump a Chrome trace of every $(docv)-th request into the trace \
       spool directory (0 disables)."
    in
    Arg.(value & opt int 0 & info [ "trace-sample" ] ~docv:"N" ~doc)
  in
  let trace_dir_arg =
    let doc = "Spool directory for sampled request traces." in
    Arg.(
      value
      & opt string "xbound-traces"
      & info [ "trace-dir" ] ~docv:"DIR" ~doc)
  in
  let run c socket tcp workers queue_capacity access_log slow_ms trace_sample
      trace_dir =
    let listen =
      match (tcp, socket) with
      | Some hp, _ -> (
        match Serve.Addr.of_string hp with
        | Serve.Addr.Tcp _ as a -> Ok a
        | Serve.Addr.Unix_sock _ ->
          Error (Printf.sprintf "--tcp expects HOST:PORT, got %s" hp))
      | None, Some path -> Ok (Serve.Addr.Unix_sock path)
      | None, None ->
        Ok
          (Serve.Addr.Unix_sock
             (Filename.concat (Filename.get_temp_dir_name ()) "xbound.sock"))
    in
    match listen with
    | Error m ->
      Printf.eprintf "xbound: %s\n" m;
      exit 1
    | Ok listen -> (
      let config =
        Serve.Server.config ~workers ~queue_capacity ?access_log ~slow_ms
          ~trace_sample ~trace_dir ~listen ~ctx:(Cliterm.ctx c) ()
      in
      match Serve.Server.start config with
      | Error m ->
        Printf.eprintf "xbound: %s\n" m;
        exit 1
      | Ok server ->
        Printf.eprintf "xbound serve: listening on %s (%d worker(s), queue %d)\n%!"
          (Serve.Addr.to_string listen) (max 1 workers) (max 1 queue_capacity);
        (* Run until SIGINT/SIGTERM, then stop gracefully — through a
           normal exit, so Cliterm's at_exit trace/stats export runs. *)
        let stop = Atomic.make false in
        let on_signal _ = Atomic.set stop true in
        List.iter
          (fun s ->
            try Sys.set_signal s (Sys.Signal_handle on_signal)
            with Invalid_argument _ | Sys_error _ -> ())
          [ Sys.sigint; Sys.sigterm ];
        while not (Atomic.get stop) do
          Unix.sleepf 0.2
        done;
        prerr_endline "xbound serve: shutting down";
        Serve.Server.stop server)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the long-lived analysis daemon: a socket server scheduling \
          requests across shared worker domains with one shared cache, so \
          repeated and concurrent analyses cost one execution")
    Term.(
      const run $ Cliterm.term $ socket_arg $ tcp_arg $ workers_arg
      $ queue_arg $ access_log_arg $ slow_ms_arg $ trace_sample_arg
      $ trace_dir_arg)

(* ---------------- observability subcommands ---------------- *)

let stats_fmt_term =
  let doc =
    "Exposition format: $(b,table) (human-readable), $(b,json) \
     (structured snapshot) or $(b,prometheus) (text exposition for \
     scrapers)."
  in
  let fmt_conv =
    Arg.conv ~docv:"FMT"
      ( (fun s ->
          match Wire.Request.stats_fmt_of_string s with
          | Some f -> Ok f
          | None ->
            Error (`Msg (Printf.sprintf "unknown stats format %S" s))),
        fun ppf f ->
          Format.pp_print_string ppf (Wire.Request.stats_fmt_to_string f) )
  in
  Arg.(
    value
    & opt fmt_conv Wire.Request.Stats_table
    & info [ "format" ] ~docv:"FMT" ~doc)

let stats_cmd =
  let run c connect fmt =
    run_request ~ctx:(Cliterm.ctx c) connect (Wire.Request.Stats { fmt })
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Point-in-time telemetry snapshot: counters, gauges and latency \
          histograms — of a running daemon with --connect, or of this \
          process otherwise (mostly useful with --connect)")
    Term.(const run $ Cliterm.term $ connect_term $ stats_fmt_term)

let health_cmd =
  let run connect =
    run_request ~ctx:Xbound.Ctx.default connect Wire.Request.Health
  in
  Cmd.v
    (Cmd.info "health"
       ~doc:
         "Cheap daemon liveness check (served from the admin lane, so it \
          answers even when the work queue is full)")
    Term.(const run $ connect_term)

let top_cmd =
  let interval_arg =
    let doc = "Refresh interval in milliseconds." in
    Arg.(value & opt int 1000 & info [ "interval-ms" ] ~docv:"MS" ~doc)
  in
  let count_arg =
    let doc = "Stop after $(docv) frames (0 = run until interrupted)." in
    Arg.(value & opt int 0 & info [ "count" ] ~docv:"N" ~doc)
  in
  let run connect interval_ms count =
    match connect with
    | None ->
      Printf.eprintf "xbound: top requires --connect ADDR\n";
      exit 1
    | Some addr -> (
      match Serve.Client.connect (Serve.Addr.of_string addr) with
      | Error m ->
        Printf.eprintf "xbound: %s\n" m;
        exit 1
      | Ok client ->
        (* Ctrl-C must restore the terminal state cleanly: cmdliner
           installs nothing, so default SIGINT termination is fine —
           each frame is written whole, starting with a clear. *)
        let n = ref 0 in
        let on_frame resp =
          (match resp with
          | Wire.Response.Stats { snapshot; _ } ->
            incr n;
            (* First frame is the full snapshot since daemon start;
               later frames are per-interval diffs — rates only make
               sense for the latter, but the header works for both. *)
            print_string "\027[2J\027[H";
            print_string (Serve.Render.top snapshot);
            flush stdout
          | _ -> ());
          true
        in
        let r =
          Fun.protect
            ~finally:(fun () -> Serve.Client.close client)
            (fun () -> Serve.Client.watch client ~interval_ms ~count ~on_frame)
        in
        handle r)
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live daemon view: poll a running daemon's Watch stream and \
          redraw requests/s, queue depth, inflight, cache hit ratio, tier \
          mix and per-phase latency percentiles every interval")
    Term.(const run $ connect_term $ interval_arg $ count_arg)

(* ---------------- export subcommands ---------------- *)

let disasm_cmd =
  let run name =
    handle
      (let* b = Xbound.find_bench name in
       print_string (Isa.Listing.to_string (Benchprogs.Bench.assemble b));
       Ok ())
  in
  Cmd.v
    (Cmd.info "disasm" ~doc:"Disassembly listing of a benchmark image")
    Term.(const run $ bench_term)

let export_verilog_cmd =
  let run () =
    let cpu = Cpu.build () in
    print_string (Verilog_export.file_text cpu.Cpu.netlist)
  in
  Cmd.v
    (Cmd.info "export-verilog"
       ~doc:"Dump the processor as flat gate-level Verilog")
    Term.(const run $ const ())

let export_liberty_cmd =
  let run () = print_string (Stdcell.liberty_text Stdcell.default) in
  Cmd.v
    (Cmd.info "export-liberty"
       ~doc:"Dump the synthetic standard-cell library in Liberty format")
    Term.(const run $ const ())

let () =
  let info =
    Cmd.info "xbound" ~version:"1.2.0"
      ~doc:
        "Application-specific peak power and energy requirements for \
         ultra-low-power processors (ASPLOS'17 reproduction)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            list_cmd; netlist_cmd; analyze_cmd; analyze_file_cmd; profile_cmd;
            coi_cmd; explain_cmd; optimize_cmd; disasm_cmd; trace_cmd;
            wcec_cmd; stressmark_cmd; cache_cmd; serve_cmd; stats_cmd;
            health_cmd; top_cmd; export_verilog_cmd; export_liberty_cmd;
          ]))
