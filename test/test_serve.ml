(* The serve stack: error wire codes, request/response codecs, framing,
   the admission scheduler, and an end-to-end daemon over a unix socket
   (protocol robustness, cross-client single-flight, admission
   rejection, CLI-vs-daemon byte identity). *)

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

(* ---------------- error wire codes ---------------- *)

(* One value per constructor. Adding a constructor without extending
   this list fails the exhaustiveness check below. *)
let error_samples =
  [
    ( "parse",
      Xbound.Error.Parse { file = "f.s"; line = 3; message = "bad operand" } );
    ( "assembly",
      Xbound.Error.Assembly { program = "p"; message = "undefined symbol" } );
    ("netlist", Xbound.Error.Netlist "elaboration failed");
    ( "analysis",
      Xbound.Error.Analysis { program = "p"; message = "path limit" } );
    ( "static-cfg",
      Xbound.Error.Static_cfg
        { program = "p"; message = "indirect branch at e012" } );
    ("cache", Xbound.Error.Cache "cache dir unusable");
    ( "unknown-benchmark",
      Xbound.Error.Unknown_benchmark
        { name = "tee8"; available = [ "tea8"; "div" ] } );
    ("overloaded", Xbound.Error.Overloaded { queued = 64; capacity = 64 });
    ("protocol", Xbound.Error.Protocol "bad frame");
  ]

let test_error_codes () =
  List.iter
    (fun (code, e) ->
      checks ("code " ^ code) code (Xbound.Error.code e);
      match Xbound.Error.of_wire (Xbound.Error.to_wire e) with
      | Some e' -> checkb ("round-trip " ^ code) true (e = e')
      | None -> Alcotest.failf "of_wire failed for %s" code)
    error_samples;
  (* Exhaustive: every constructor appears in the samples. *)
  let covered e =
    List.exists (fun (_, s) -> Xbound.Error.code s = Xbound.Error.code e)
      error_samples
  in
  List.iter
    (fun (_, e) -> checkb "covered" true (covered e))
    error_samples;
  (* Garbage degrades to None, not an exception. *)
  checkb "unknown code" true
    (Xbound.Error.of_wire
       (Explain.Ejson.Obj [ ("code", Explain.Ejson.Str "nonsense") ])
    = None);
  checkb "missing fields" true
    (Xbound.Error.of_wire
       (Explain.Ejson.Obj [ ("code", Explain.Ejson.Str "parse") ])
    = None);
  checkb "not an object" true (Xbound.Error.of_wire (Explain.Ejson.Num 3.) = None)

(* ---------------- request/response codecs ---------------- *)

let request_samples =
  [
    Wire.Request.Analyze { bench = "tea8"; tier = Xbound.Tier.Exact };
    Wire.Request.Analyze { bench = "tea8"; tier = Xbound.Tier.Static };
    Wire.Request.Analyze { bench = "div"; tier = Xbound.Tier.Auto };
    Wire.Request.Explain
      {
        bench = "div";
        fmt = Wire.Request.Json;
        top = 4;
        min_gap = 5;
        tier = Xbound.Tier.Exact;
      };
    Wire.Request.Explain
      {
        bench = "div";
        fmt = Wire.Request.Csv;
        top = 1;
        min_gap = 0;
        tier = Xbound.Tier.Static;
      };
    Wire.Request.Run_concrete { bench = "mult"; seed = 42 };
    Wire.Request.Optimize { bench = "tea8" };
    Wire.Request.Bench_list;
    Wire.Request.Cache_stats;
    Wire.Request.Stats { fmt = Wire.Request.Stats_table };
    Wire.Request.Stats { fmt = Wire.Request.Stats_json };
    Wire.Request.Stats { fmt = Wire.Request.Stats_prometheus };
    Wire.Request.Health;
    Wire.Request.Watch { interval_ms = 500; count = 10 };
    Wire.Request.Watch { interval_ms = 1000; count = 0 };
  ]

(* taken_ns is process-local monotonic time: the codec does not ship it
   (it decodes as 0), so wire samples carry 0 to round-trip exactly. *)
let sample_snapshot =
  {
    Telemetry.Snapshot.taken_ns = 0L;
    uptime_s = 12.5;
    rss_bytes = 1_048_576;
    active_spans = 2;
    counters = [ ("serve.requests", 42); ("cache.misses", 7) ];
    gauges = [ ("serve.inflight", 1); ("serve.queue_len", 3) ];
    histograms =
      [
        {
          Telemetry.Snapshot.hname = "serve.exec_ns";
          count = 3;
          sum_ns = 3000L;
          max_ns = 2000L;
          p50 = 1023L;
          p90 = 2000L;
          p99 = 2000L;
          buckets = [ (1023L, 2); (2047L, 1) ];
        };
      ];
  }

let response_samples =
  [
    Wire.Response.Analysis
      {
        name = "tea8";
        tier = Xbound.Tier.Exact;
        paths = 1;
        forks = 0;
        dedup_hits = 2;
        total_cycles = 1234;
        peak_power = Xbound.Bound.exact 2.6375e-3;
        peak_index = 17;
        peak_energy = Xbound.Bound.exact 1.25e-9;
        peak_energy_cycles = 16;
        npe_j_per_cycle = 0.81e-12;
        power_trace_w = [| 1.0e-3; 2.5e-3; 0.3e-3 |];
      };
    Wire.Response.Analysis
      {
        name = "tea8";
        tier = Xbound.Tier.Static;
        paths = 0;
        forks = 0;
        dedup_hits = 0;
        total_cycles = 4096;
        peak_power = Xbound.Bound.static 3.1e-3;
        peak_index = 0;
        peak_energy = Xbound.Bound.static 2.5e-9;
        peak_energy_cycles = 4096;
        npe_j_per_cycle = 0.61e-12;
        power_trace_w = [||];
      };
    Wire.Response.Explanation
      { name = "tea8"; fmt = Wire.Request.Table; text = "line1\nline2\n" };
    Wire.Response.Concrete
      {
        name = "div";
        seed = 8;
        cycles = 100;
        peak_w = 2.2e-3;
        peak_cycle = 31;
        trace_w = [| 0.5e-3; 2.2e-3 |];
      };
    Wire.Response.Optimization
      {
        name = "tea8";
        chosen = [ "strength-reduce"; "nop-pad" ];
        base_peak_w = 2.6e-3;
        opt_peak_w = 2.1e-3;
        peak_reduction_pct = 19.2;
        range_reduction_pct = 7.5;
        perf_degradation_pct = 0.8;
        energy_overhead_pct = 1.1;
      };
    Wire.Response.Optimization
      {
        name = "x";
        chosen = [];
        base_peak_w = 1.;
        opt_peak_w = 1.;
        peak_reduction_pct = 0.;
        range_reduction_pct = 0.;
        perf_degradation_pct = 0.;
        energy_overhead_pct = 0.;
      };
    Wire.Response.Benchmarks
      [ ("tea8", "TEA cipher", false); ("fancy", "extended", true) ];
    Wire.Response.Cache_stats
      {
        dir = Some "/tmp/c";
        entries = 12;
        bytes = 4096;
        by_ns = [ ("analysis", (4, 1024)); ("block", (8, 3072)) ];
      };
    Wire.Response.Cache_stats { dir = None; entries = 0; bytes = 0; by_ns = [] };
    Wire.Response.Stats
      { fmt = Wire.Request.Stats_prometheus; snapshot = sample_snapshot };
    Wire.Response.Stats
      {
        fmt = Wire.Request.Stats_json;
        snapshot =
          {
            sample_snapshot with
            Telemetry.Snapshot.counters = [];
            gauges = [];
            histograms = [];
          };
      };
    Wire.Response.Health
      {
        ok = true;
        uptime_s = 3.25;
        queue_len = 2;
        queue_capacity = 64;
        inflight = 1;
        workers = 2;
      };
  ]

let test_request_codec () =
  List.iter
    (fun r ->
      match Wire.Request.of_json (Wire.Request.to_json r) with
      | Ok r' -> checkb "request round-trip" true (r = r')
      | Error m -> Alcotest.failf "request codec: %s" m)
    request_samples;
  checkb "bad op" true
    (Result.is_error
       (Wire.Request.of_json
          (Explain.Ejson.Obj [ ("op", Explain.Ejson.Str "nonsense") ])))

let test_response_codec () =
  List.iter
    (fun r ->
      match Wire.Response.of_json (Wire.Response.to_json r) with
      | Ok r' -> checkb "response round-trip" true (r = r')
      | Error m -> Alcotest.failf "response codec: %s" m)
    response_samples

(* The server speaks exactly [Wire.proto_version]: older envelopes are
   refused with a typed protocol error that still echoes their id, and
   the older body shapes (no "tier", bare-number bounds, no "by_ns") are
   malformed rather than defaulted. *)
let test_wire_v1_compat () =
  let refused what frame =
    match Wire.decode_request frame with
    | Error (Some 5, Xbound.Error.Protocol _) -> ()
    | Error (id, e) ->
      Alcotest.failf "%s: id=%s %s" what
        (match id with Some i -> string_of_int i | None -> "none")
        (Xbound.Error.to_string e)
    | Ok _ -> Alcotest.failf "%s accepted" what
  in
  List.iter
    (fun v ->
      refused
        (Printf.sprintf "v%d envelope" v)
        (Printf.sprintf
           {|{"proto_version": %d, "id": 5, "request": {"op": "analyze", "bench": "tea8", "tier": "exact"}}|}
           v))
    [ 1; 2 ];
  refused "analyze without tier"
    (Printf.sprintf
       {|{"proto_version": %d, "id": 5, "request": {"op": "analyze", "bench": "tea8"}}|}
       Wire.proto_version);
  (* An unknown tier string is malformed, not silently exact. *)
  checkb "bad tier rejected" true
    (Result.is_error
       (Wire.Request.of_json
          (Explain.Ejson.parse
             {|{"op": "analyze", "bench": "tea8", "tier": "psychic"}|})));
  let response_refused what body =
    match Wire.decode_response (Printf.sprintf {|{"id": 5, "result": %s}|} body) with
    | Error (Xbound.Error.Protocol _) -> ()
    | Error e -> Alcotest.failf "%s: %s" what (Xbound.Error.to_string e)
    | Ok _ -> Alcotest.failf "%s accepted" what
  in
  response_refused "bare-number peak_power_w"
    {|{"op": "analysis", "name": "tea8", "tier": "exact", "paths": 1,
       "forks": 0, "dedup_hits": 2, "total_cycles": 10,
       "peak_power_w": 0.002, "peak_index": 3,
       "peak_energy_j": {"value": 1e-9, "tier": "exact", "analysis_version": 1},
       "peak_energy_cycles": 8, "npe_j_per_cycle": 1e-13,
       "power_trace_w": [0.001, 0.002]}|};
  response_refused "cache_stats without by_ns"
    {|{"op": "cache_stats", "dir": "/tmp/c", "entries": 3, "bytes": 99}|}

let test_envelopes () =
  let rf =
    {
      Wire.id = 7;
      priority = Wire.Batch;
      request = Wire.Request.Analyze { bench = "tea8"; tier = Xbound.Tier.Exact };
    }
  in
  (match Wire.decode_request (Wire.encode_request rf) with
  | Ok rf' ->
    checki "id" 7 rf'.Wire.id;
    checkb "priority" true (rf'.Wire.priority = Wire.Batch);
    checkb "request" true (rf'.Wire.request = rf.Wire.request)
  | Error (_, e) -> Alcotest.fail (Xbound.Error.to_string e));
  (* Version mismatch is a typed protocol error that still reports the
     envelope id, so the server can address its reply. *)
  (match
     Wire.decode_request
       {|{"proto_version": 999, "id": 3, "request": {"op": "bench_list"}}|}
   with
  | Error (Some 3, Xbound.Error.Protocol _) -> ()
  | Error (id, e) ->
    Alcotest.failf "unexpected: id=%s %s"
      (match id with Some i -> string_of_int i | None -> "none")
      (Xbound.Error.to_string e)
  | Ok _ -> Alcotest.fail "bad version accepted");
  (* Unparsable JSON: protocol error, no id. *)
  (match Wire.decode_request "{nope" with
  | Error (None, Xbound.Error.Protocol _) -> ()
  | _ -> Alcotest.fail "garbage accepted");
  List.iter
    (fun result ->
      let f = { Wire.rid = 9; result } in
      match Wire.decode_response (Wire.encode_response f) with
      | Ok f' ->
        checki "rid" 9 f'.Wire.rid;
        checkb "result" true (f'.Wire.result = result)
      | Error e -> Alcotest.fail (Xbound.Error.to_string e))
    [
      Ok (Wire.Response.Benchmarks [ ("a", "b", false) ]);
      Error (Xbound.Error.Overloaded { queued = 1; capacity = 1 });
    ]

(* ---------------- framing ---------------- *)

let with_socketpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () -> f a b)

let test_frame_roundtrip () =
  with_socketpair @@ fun a b ->
  let payload = String.init 1000 (fun i -> Char.chr (i mod 256)) in
  Serve.Frame.write a payload;
  Serve.Frame.write a "";
  (match Serve.Frame.read b with
  | Ok p -> checks "payload" payload p
  | Error e -> Alcotest.fail (Serve.Frame.read_error_to_string e));
  (match Serve.Frame.read b with
  | Ok p -> checks "empty payload" "" p
  | Error e -> Alcotest.fail (Serve.Frame.read_error_to_string e));
  Unix.close a;
  match Serve.Frame.read b with
  | Error Serve.Frame.Eof -> ()
  | _ -> Alcotest.fail "expected Eof after close"

let test_frame_truncated () =
  with_socketpair @@ fun a b ->
  (* A length prefix promising 100 bytes, then only 10, then close. *)
  let buf = Bytes.create 4 in
  Bytes.set_int32_be buf 0 100l;
  ignore (Unix.write a buf 0 4);
  ignore (Unix.write_substring a "0123456789" 0 10);
  Unix.close a;
  (match Serve.Frame.read b with
  | Error Serve.Frame.Truncated -> ()
  | _ -> Alcotest.fail "expected Truncated");
  (* A partial prefix alone is also a truncation, not an Eof. *)
  with_socketpair @@ fun a b ->
  ignore (Unix.write_substring a "\x00\x00" 0 2);
  Unix.close a;
  match Serve.Frame.read b with
  | Error Serve.Frame.Truncated -> ()
  | _ -> Alcotest.fail "expected Truncated on partial prefix"

let test_frame_oversized () =
  with_socketpair @@ fun a b ->
  let buf = Bytes.create 4 in
  Bytes.set_int32_be buf 0 0x7fff_ffffl;
  ignore (Unix.write a buf 0 4);
  match Serve.Frame.read b with
  | Error (Serve.Frame.Oversized n) ->
    checkb "reported length" true (n > Serve.Frame.max_payload)
  | _ -> Alcotest.fail "expected Oversized"

(* ---------------- scheduler ---------------- *)

let test_scheduler_admission () =
  let s = Serve.Scheduler.create ~capacity:2 in
  let submit p = Serve.Scheduler.submit s { Serve.Scheduler.priority = p; run = ignore } in
  checkb "1st admitted" true (submit Wire.Batch = Ok ());
  checkb "2nd admitted" true (submit Wire.Interactive = Ok ());
  (match submit Wire.Interactive with
  | Error depth -> checki "rejection reports depth" 2 depth
  | Ok () -> Alcotest.fail "over-capacity submit admitted");
  checki "depth" 2 (Serve.Scheduler.depth s);
  checki "capacity" 2 (Serve.Scheduler.capacity s);
  (* Interactive drains before the earlier-submitted batch job. *)
  (match Serve.Scheduler.next s with
  | Some j -> checkb "interactive first" true (j.Serve.Scheduler.priority = Wire.Interactive)
  | None -> Alcotest.fail "empty");
  (match Serve.Scheduler.next s with
  | Some j -> checkb "then batch" true (j.Serve.Scheduler.priority = Wire.Batch)
  | None -> Alcotest.fail "empty");
  Serve.Scheduler.stop s;
  checkb "stopped next" true (Serve.Scheduler.next s = None);
  checkb "stopped submit" true (Result.is_error (submit Wire.Interactive))

(* ---------------- failures nobody waits for ---------------- *)

let counter name = Telemetry.Counter.value (Telemetry.Counter.make name)

(* An exception in a background job or in an executor's job is counted
   (each in its own counter, and reported on stderr), and the executor
   survives it to run the next job. *)
let test_failure_counts () =
  Telemetry.with_ambient (Telemetry.create ~retain_events:false ())
  @@ fun () ->
  let bg0 = counter "serve.background_errors" in
  let ex0 = counter "serve.executor_errors" in
  let s = Serve.Scheduler.create ~capacity:4 in
  let ran_after = ref false in
  let submit priority run =
    match Serve.Scheduler.submit s { Serve.Scheduler.priority; run } with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "submit rejected"
  in
  checkb "background job queued" true
    (Serve.Scheduler.submit_background s ~key:"injected"
       (Serve.Exec.guarded ~what:"injected background job" (fun () ->
            failwith "injected")));
  submit Wire.Interactive (fun () -> failwith "injected");
  submit Wire.Batch (fun () ->
      ran_after := true;
      Serve.Scheduler.stop s);
  Serve.Server.executor_loop s;
  checki "background failure counted" (bg0 + 1)
    (counter "serve.background_errors");
  checki "executor failure counted" (ex0 + 1) (counter "serve.executor_errors");
  checkb "executor ran the next job" true !ran_after

(* Two identical Auto requests that answer from the static tier queue
   one background exact warm-up between them, as batch work; its key is
   released when it has run, and a full queue drops it. crc16's static
   cycle bound is above the Auto escalation threshold. *)
let test_warmup_dedup () =
  let s = Serve.Scheduler.create ~capacity:8 in
  let queued = ref 0 in
  let background ~key run =
    if Serve.Scheduler.submit_background s ~key run then incr queued
  in
  let ctx = Xbound.Ctx.create ~cache:(Cache.create ()) () in
  let auto () =
    match
      Serve.Exec.exec ~background ~ctx
        (Wire.Request.Analyze { bench = "crc16"; tier = Xbound.Tier.Auto })
    with
    | Ok (Wire.Response.Analysis { tier; _ }) ->
      checkb "answered from the static tier" true (tier = Xbound.Tier.Static)
    | Ok _ -> Alcotest.fail "expected an analysis"
    | Error e -> Alcotest.fail (Xbound.Error.to_string e)
  in
  auto ();
  auto ();
  checki "one warm-up queued" 1 !queued;
  checki "queue depth" 1 (Serve.Scheduler.depth s);
  (match Serve.Scheduler.next s with
  | Some j ->
    checkb "batch class" true (j.Serve.Scheduler.priority = Wire.Batch);
    j.Serve.Scheduler.run ()
  | None -> Alcotest.fail "no warm-up job");
  auto ();
  checki "queued again once the first has run" 2 !queued;
  let full = Serve.Scheduler.create ~capacity:1 in
  checkb "first background job queued" true
    (Serve.Scheduler.submit_background full ~key:"a" ignore);
  checkb "dropped when the queue is full" false
    (Serve.Scheduler.submit_background full ~key:"b" ignore);
  Serve.Scheduler.stop full;
  Serve.Scheduler.stop s

(* cache_stats walks the disk once: its totals are the sums of the
   per-namespace rows it returns. *)
let test_cache_stats_sums () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "xbound-test-stats-%d-%d" (Unix.getpid ())
         (Random.int 100000))
  in
  let cache = Cache.create ~dir () in
  Fun.protect ~finally:(fun () -> Cache.clear cache) @@ fun () ->
  let ctx = Xbound.Ctx.create ~cache () in
  List.iter
    (fun tier ->
      match
        Serve.Exec.exec ~ctx (Wire.Request.Analyze { bench = "mult"; tier })
      with
      | Ok _ -> ()
      | Error e -> Alcotest.fail (Xbound.Error.to_string e))
    [ Xbound.Tier.Exact; Xbound.Tier.Static ];
  match Serve.Exec.exec ~ctx Wire.Request.Cache_stats with
  | Ok (Wire.Response.Cache_stats { entries; bytes; by_ns; _ }) ->
    let sum f = List.fold_left (fun acc (_, row) -> acc + f row) 0 by_ns in
    checkb "several namespaces" true (List.length by_ns >= 2);
    checkb "entries on disk" true (entries > 0);
    checki "entries = sum of rows" (sum fst) entries;
    checki "bytes = sum of rows" (sum snd) bytes
  | Ok _ -> Alcotest.fail "expected cache stats"
  | Error e -> Alcotest.fail (Xbound.Error.to_string e)

(* ---------------- end-to-end daemon ---------------- *)

let fresh_sock () =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "xbound-test-serve-%d-%d.sock" (Unix.getpid ())
       (Random.int 100000))

let with_server ?(workers = 2) ?(queue_capacity = 64) ?access_log ?slow_ms
    ?trace_sample ?trace_dir ?ctx f =
  let ctx = match ctx with Some c -> c | None -> Xbound.Ctx.default in
  let sock = fresh_sock () in
  let server =
    match
      Serve.Server.start
        (Serve.Server.config ~workers ~queue_capacity ?access_log ?slow_ms
           ?trace_sample ?trace_dir ~listen:(Serve.Addr.Unix_sock sock) ~ctx
           ())
    with
    | Ok s -> s
    | Error m -> Alcotest.fail m
  in
  Fun.protect
    ~finally:(fun () ->
      Serve.Server.stop server;
      try Sys.remove sock with Sys_error _ -> ())
    (fun () -> f (Serve.Addr.Unix_sock sock))

let with_client addr f =
  match Serve.Client.connect addr with
  | Error m -> Alcotest.fail m
  | Ok c -> Fun.protect ~finally:(fun () -> Serve.Client.close c) (fun () -> f c)

(* [stop] removes the telemetry sink [start] installed, so a process
   embedding the server is back to untraced once it stops; a sink the
   embedder installed itself stays. *)
let test_serve_stop_removes_sink () =
  let before = Telemetry.ambient () in
  Fun.protect ~finally:(fun () -> Telemetry.set_ambient before) @@ fun () ->
  Telemetry.set_ambient None;
  with_server (fun _ -> checkb "start installs a sink" true (Telemetry.enabled ()));
  checkb "stop removes it" false (Telemetry.enabled ());
  let mine = Telemetry.create () in
  Telemetry.set_ambient (Some mine);
  with_server (fun _ -> ());
  checkb "the embedder's sink stays" true
    (match Telemetry.ambient () with Some s -> s == mine | None -> false)

let test_serve_basic () =
  with_server @@ fun addr ->
  with_client addr @@ fun c ->
  (match Serve.Client.rpc c Wire.Request.Bench_list with
  | Ok (Wire.Response.Benchmarks bs) ->
    checkb "has tea8" true (List.exists (fun (n, _, _) -> n = "tea8") bs)
  | Ok _ -> Alcotest.fail "wrong response shape"
  | Error e -> Alcotest.fail (Xbound.Error.to_string e));
  (* A typed error crosses the wire as the same typed value. *)
  match
    Serve.Client.rpc c
      (Wire.Request.Analyze { bench = "no-such"; tier = Xbound.Tier.Exact })
  with
  | Error (Xbound.Error.Unknown_benchmark { name; _ }) ->
    checks "error name" "no-such" name
  | Error e -> Alcotest.fail ("wrong error: " ^ Xbound.Error.to_string e)
  | Ok _ -> Alcotest.fail "bogus benchmark analyzed"

let test_serve_protocol_errors () =
  with_server @@ fun addr ->
  match Serve.Addr.connect addr with
  | Error m -> Alcotest.fail m
  | Ok fd ->
    Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    @@ fun () ->
    (* Bad JSON in a well-formed frame: typed error, connection lives. *)
    Serve.Frame.write fd "{this is not json";
    (match Serve.Frame.read fd with
    | Ok reply -> (
      match Wire.decode_response reply with
      | Ok { Wire.result = Error (Xbound.Error.Protocol _); _ } -> ()
      | Ok _ -> Alcotest.fail "expected a protocol error"
      | Error e -> Alcotest.fail (Xbound.Error.to_string e))
    | Error e -> Alcotest.fail (Serve.Frame.read_error_to_string e));
    (* Valid JSON, wrong shape: same story, and the id is echoed. *)
    Serve.Frame.write fd
      (Printf.sprintf
         {|{"proto_version": %d, "id": 41, "request": {"op": "launch_missiles"}}|}
         Wire.proto_version);
    (match Serve.Frame.read fd with
    | Ok reply -> (
      match Wire.decode_response reply with
      | Ok { Wire.rid = 41; result = Error (Xbound.Error.Protocol _) } -> ()
      | Ok _ -> Alcotest.fail "expected protocol error with id 41"
      | Error e -> Alcotest.fail (Xbound.Error.to_string e))
    | Error e -> Alcotest.fail (Serve.Frame.read_error_to_string e));
    (* An older protocol version: refused the same way. *)
    Serve.Frame.write fd
      {|{"proto_version": 2, "id": 43, "request": {"op": "bench_list"}}|};
    (match Serve.Frame.read fd with
    | Ok reply -> (
      match Wire.decode_response reply with
      | Ok { Wire.rid = 43; result = Error (Xbound.Error.Protocol _) } -> ()
      | Ok _ -> Alcotest.fail "expected protocol error with id 43"
      | Error e -> Alcotest.fail (Xbound.Error.to_string e))
    | Error e -> Alcotest.fail (Serve.Frame.read_error_to_string e));
    (* The connection survived them all: a real request still works. *)
    Serve.Frame.write fd
      (Wire.encode_request
         { Wire.id = 42; priority = Wire.Interactive;
           request = Wire.Request.Bench_list });
    (match Serve.Frame.read fd with
    | Ok reply -> (
      match Wire.decode_response reply with
      | Ok { Wire.rid = 42; result = Ok (Wire.Response.Benchmarks _) } -> ()
      | Ok _ -> Alcotest.fail "expected benchmarks after protocol errors"
      | Error e -> Alcotest.fail (Xbound.Error.to_string e))
    | Error e -> Alcotest.fail (Serve.Frame.read_error_to_string e))

let test_serve_oversized_closes () =
  with_server @@ fun addr ->
  match Serve.Addr.connect addr with
  | Error m -> Alcotest.fail m
  | Ok fd ->
    Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    @@ fun () ->
    (* A nonsense length prefix breaks framing: one final protocol
       error, then the server closes the connection. *)
    let buf = Bytes.create 4 in
    Bytes.set_int32_be buf 0 0x7fff_ffffl;
    ignore (Unix.write fd buf 0 4);
    (match Serve.Frame.read fd with
    | Ok reply -> (
      match Wire.decode_response reply with
      | Ok { Wire.result = Error (Xbound.Error.Protocol _); _ } -> ()
      | _ -> Alcotest.fail "expected protocol error")
    | Error e -> Alcotest.fail (Serve.Frame.read_error_to_string e));
    match Serve.Frame.read fd with
    | Error Serve.Frame.Eof -> ()
    | Ok _ -> Alcotest.fail "server kept a broken connection open"
    | Error _ -> ()

(* Two clients ask the identical question concurrently: the shared
   cache's single-flight table must compute it once: the concurrent
   pair produces exactly as many misses as one solo analysis (one
   "analysis" entry), not twice as many. *)
let test_serve_single_flight () =
  let solo_misses =
    let cache = Cache.create () in
    (match
       Serve.Exec.exec
         ~ctx:(Xbound.Ctx.create ~cache ~jobs:2 ())
         (Wire.Request.Analyze { bench = "tea8"; tier = Xbound.Tier.Exact })
     with
    | Ok _ -> ()
    | Error e -> Alcotest.fail (Xbound.Error.to_string e));
    (Cache.counters cache).Cache.misses
  in
  checkb "solo analysis misses" true (solo_misses >= 1);
  let cache = Cache.create () in
  let ctx = Xbound.Ctx.create ~cache ~jobs:2 () in
  with_server ~ctx @@ fun addr ->
  let results = Array.make 2 None in
  let drive i =
    with_client addr @@ fun c ->
    results.(i) <- Some (Serve.Client.rpc c (Wire.Request.Analyze { bench = "tea8"; tier = Xbound.Tier.Exact }))
  in
  let ths = List.init 2 (fun i -> Thread.create drive i) in
  List.iter Thread.join ths;
  let texts =
    Array.to_list results
    |> List.map (function
         | Some (Ok r) -> Serve.Render.to_string r
         | Some (Error e) -> Alcotest.fail (Xbound.Error.to_string e)
         | None -> Alcotest.fail "client did not run")
  in
  (match texts with
  | [ a; b ] -> checks "identical results" a b
  | _ -> assert false);
  let c = Cache.counters cache in
  checki "computed once across clients" solo_misses c.Cache.misses;
  checkb "second request joined or hit" true
    (c.Cache.joined + c.Cache.mem_hits >= 1)

(* workers=1 and capacity=1: with one request running and one queued,
   the third is rejected with the typed 429. *)
let test_serve_admission_reject () =
  let cache = Cache.create () in
  let ctx = Xbound.Ctx.create ~cache ~jobs:2 () in
  with_server ~workers:1 ~queue_capacity:1 ~ctx @@ fun addr ->
  match Serve.Addr.connect addr with
  | Error m -> Alcotest.fail m
  | Ok fd ->
    Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    @@ fun () ->
    (* Three different analyses so single-flight cannot collapse them.
       The first (div, the slow fork-heavy one) gets a head start so it
       is dequeued and occupying the one worker; then the second fills
       the one queue slot and the third must be rejected. *)
    let send_request i request =
      Serve.Frame.write fd
        (Wire.encode_request { Wire.id = i; priority = Wire.Batch; request })
    in
    let send i bench =
      send_request i (Wire.Request.Analyze { bench; tier = Xbound.Tier.Exact })
    in
    send 1 "div";
    Unix.sleepf 0.3;
    send 2 "tea8";
    send 3 "mult";
    let replies = List.init 3 (fun _ ->
        match Serve.Frame.read fd with
        | Ok r -> (
          match Wire.decode_response r with
          | Ok f -> f
          | Error e -> Alcotest.fail (Xbound.Error.to_string e))
        | Error e -> Alcotest.fail (Serve.Frame.read_error_to_string e))
    in
    let rejected =
      List.filter
        (fun f ->
          match f.Wire.result with
          | Error (Xbound.Error.Overloaded { capacity; _ }) ->
            checki "capacity reported" 1 capacity;
            true
          | _ -> false)
        replies
    in
    let succeeded =
      List.filter (fun f -> Result.is_ok f.Wire.result) replies
    in
    checki "one rejection" 1 (List.length rejected);
    checki "two successes" 2 (List.length succeeded);
    (* The rejected one is the last-submitted request. *)
    match rejected with
    | [ f ] -> checki "rejected id" 3 f.Wire.rid
    | _ -> assert false

(* The acceptance criterion in one test: render(exec(req)) in-process
   and render(rpc(req)) through the daemon are the same bytes. *)
let test_serve_byte_identical () =
  let cache = Cache.create () in
  let ctx = Xbound.Ctx.create ~cache ~jobs:2 () in
  let exact_explain fmt =
    Wire.Request.Explain
      { bench = "tea8"; fmt; top = 4; min_gap = 5; tier = Xbound.Tier.Exact }
  in
  let requests =
    [
      Wire.Request.Analyze { bench = "tea8"; tier = Xbound.Tier.Exact };
      Wire.Request.Analyze { bench = "tea8"; tier = Xbound.Tier.Static };
      exact_explain Wire.Request.Csv;
      exact_explain Wire.Request.Table;
      exact_explain Wire.Request.Json;
      Wire.Request.Explain
        {
          bench = "tea8";
          fmt = Wire.Request.Table;
          top = 4;
          min_gap = 5;
          tier = Xbound.Tier.Static;
        };
      Wire.Request.Run_concrete { bench = "mult"; seed = 8 };
      Wire.Request.Bench_list;
    ]
  in
  (* The in-process CLI renders without a sink (no --trace or --stats),
     while the daemon always keeps one, possibly left by an earlier
     server in this process. *)
  let sink = Telemetry.ambient () in
  Telemetry.set_ambient None;
  let local =
    List.map
      (fun r ->
        match Serve.Exec.exec ~ctx r with
        | Ok resp -> Serve.Render.to_string resp
        | Error e -> Alcotest.fail (Xbound.Error.to_string e))
      requests
  in
  Telemetry.set_ambient sink;
  with_server ~ctx @@ fun addr ->
  with_client addr @@ fun c ->
  List.iter2
    (fun r expected ->
      match Serve.Client.rpc c r with
      | Ok resp -> checks "byte-identical" expected (Serve.Render.to_string resp)
      | Error e -> Alcotest.fail (Xbound.Error.to_string e))
    requests local

(* ---------------- the admin lane ---------------- *)

(* Health and Stats are served inline on the reader thread, never
   through the scheduler: with one worker wedged on a slow analysis and
   the one queue slot taken, batch work is rejected with Overloaded —
   and the admin ops still answer. *)
let test_serve_admin_lane () =
  let cache = Cache.create () in
  let ctx = Xbound.Ctx.create ~cache ~jobs:2 () in
  with_server ~workers:1 ~queue_capacity:1 ~ctx @@ fun addr ->
  match Serve.Addr.connect addr with
  | Error m -> Alcotest.fail m
  | Ok fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    @@ fun () ->
    let send_request i request =
      Serve.Frame.write fd
        (Wire.encode_request { Wire.id = i; priority = Wire.Batch; request })
    in
    let send i bench =
      send_request i (Wire.Request.Analyze { bench; tier = Xbound.Tier.Exact })
    in
    with_client addr @@ fun admin ->
    let health () =
      match Serve.Client.rpc admin Wire.Request.Health with
      | Ok
          (Wire.Response.Health
             { ok; uptime_s; queue_len; queue_capacity; inflight; workers })
        ->
        (ok, uptime_s, queue_len, queue_capacity, inflight, workers)
      | Ok _ -> Alcotest.fail "wrong response shape"
      | Error e -> Alcotest.fail (Xbound.Error.to_string e)
    in
    (* Health is served by a different reader thread than the one
       admitting requests, so poll until it shows [until]. *)
    let poll until =
      let deadline = Unix.gettimeofday () +. 5. in
      let rec go () =
        let h = health () in
        if until h || Unix.gettimeofday () > deadline then h
        else begin
          Thread.yield ();
          go ()
        end
      in
      go ()
    in
    (* Wedge: optimizing div (a few exact analyses of it) occupies the
       worker, tea8 fills the queue slot. tea8 is sent as soon as the
       wedge has left the queue, so the queue stays full for the
       wedge's whole run. *)
    send_request 1 (Wire.Request.Optimize { bench = "div" });
    ignore
      (poll (fun (_, _, queue_len, _, inflight, _) ->
           queue_len = 0 && inflight = 1));
    send 2 "tea8";
    (* The scheduler is now saturated; the admin lane must not care. *)
    let ok, uptime_s, queue_len, queue_capacity, _, workers =
      poll (fun (_, _, queue_len, _, _, _) -> queue_len = 1)
    in
    checkb "ok" true ok;
    checki "workers" 1 workers;
    checki "capacity" 1 queue_capacity;
    checki "queue full" 1 queue_len;
    checkb "uptime sane" true (uptime_s > 0.);
    (match
       Serve.Client.rpc admin
         (Wire.Request.Stats { fmt = Wire.Request.Stats_prometheus })
     with
    | Ok (Wire.Response.Stats { snapshot; _ } as resp) ->
      let body = Serve.Render.to_string resp in
      checkb "prometheus body" true
        (String.length body > 0 && String.starts_with ~prefix:"# " body);
      checkb "gauge present" true
        (List.mem_assoc "serve.queue_len" snapshot.Telemetry.Snapshot.gauges)
    | Ok _ -> Alcotest.fail "wrong response shape"
    | Error e -> Alcotest.fail (Xbound.Error.to_string e));
    (* ... while batch work is genuinely being rejected. *)
    send 3 "mult";
    let replies =
      List.init 3 (fun _ ->
          match Serve.Frame.read fd with
          | Ok r -> (
            match Wire.decode_response r with
            | Ok f -> f
            | Error e -> Alcotest.fail (Xbound.Error.to_string e))
          | Error e -> Alcotest.fail (Serve.Frame.read_error_to_string e))
    in
    checki "one rejection" 1
      (List.length
         (List.filter
            (fun f ->
              match f.Wire.result with
              | Error (Xbound.Error.Overloaded _) -> true
              | _ -> false)
            replies))

(* A bounded Watch delivers exactly count frames: a full snapshot, then
   diffs. *)
let test_serve_watch_bounded () =
  with_server @@ fun addr ->
  with_client addr @@ fun c ->
  let frames = ref 0 in
  match
    Serve.Client.watch c ~interval_ms:20 ~count:3 ~on_frame:(fun resp ->
        (match resp with
        | Wire.Response.Stats { snapshot; _ } ->
          incr frames;
          checkb "window length sane" true
            (snapshot.Telemetry.Snapshot.uptime_s >= 0.)
        | _ -> Alcotest.fail "non-stats frame in watch stream");
        true)
  with
  | Ok () -> checki "exactly three frames" 3 !frames
  | Error e -> Alcotest.fail (Xbound.Error.to_string e)

(* An unbounded Watch ends cleanly when the client hangs up — and the
   server keeps serving other connections afterwards. *)
let test_serve_watch_client_disconnect () =
  with_server @@ fun addr ->
  (match Serve.Client.connect addr with
  | Error m -> Alcotest.fail m
  | Ok c ->
    let frames = ref 0 in
    let watcher =
      Thread.create
        (fun () ->
          ignore
            (Serve.Client.watch c ~interval_ms:20 ~count:0
               ~on_frame:(fun _ ->
                 incr frames;
                 true)))
        ()
    in
    let deadline = Unix.gettimeofday () +. 5. in
    while !frames < 2 && Unix.gettimeofday () < deadline do
      Thread.yield ()
    done;
    checkb "stream was flowing" true (!frames >= 2);
    Serve.Client.close c;
    Thread.join watcher);
  (* The server shrugged off the disconnect. *)
  with_client addr @@ fun c2 ->
  match Serve.Client.rpc c2 Wire.Request.Health with
  | Ok (Wire.Response.Health _) -> ()
  | Ok _ -> Alcotest.fail "wrong response shape"
  | Error e -> Alcotest.fail (Xbound.Error.to_string e)

(* An unbounded Watch also ends cleanly (Ok, not an error) when the
   server shuts down mid-stream. *)
let test_serve_watch_server_stop () =
  let result = ref None in
  let frames = ref 0 in
  let watcher = ref None in
  with_server (fun addr ->
      match Serve.Client.connect addr with
      | Error m -> Alcotest.fail m
      | Ok c ->
        watcher :=
          Some
            ( c,
              Thread.create
                (fun () ->
                  result :=
                    Some
                      (Serve.Client.watch c ~interval_ms:20 ~count:0
                         ~on_frame:(fun _ ->
                           incr frames;
                           true)))
                () );
        let deadline = Unix.gettimeofday () +. 5. in
        while !frames < 1 && Unix.gettimeofday () < deadline do
          Thread.yield ()
        done;
        checkb "stream started" true (!frames >= 1));
  (* with_server has stopped the daemon; the stream must have ended
     with Ok. *)
  match !watcher with
  | None -> Alcotest.fail "no watcher"
  | Some (c, th) ->
    Thread.join th;
    Serve.Client.close c;
    (match !result with
    | Some (Ok ()) -> ()
    | Some (Error e) ->
      Alcotest.fail ("watch errored on shutdown: " ^ Xbound.Error.to_string e)
    | None -> Alcotest.fail "watch did not return")

(* ---------------- access log exactness ---------------- *)

(* Per-request attribution is exact, not sampled: for a single client,
   the access log's exec-time and cache counter columns sum to the
   process-wide snapshot diff over the same window. *)
let test_serve_access_log_exact () =
  let log = Filename.temp_file "xbound-test-alog" ".jsonl" in
  let cache = Cache.create () in
  let ctx = Xbound.Ctx.create ~cache ~jobs:2 () in
  with_server ~access_log:log ~ctx @@ fun addr ->
  with_client addr @@ fun c ->
  let snap () =
    match
      Serve.Client.rpc c (Wire.Request.Stats { fmt = Wire.Request.Stats_json })
    with
    | Ok (Wire.Response.Stats { snapshot; _ }) -> snapshot
    | Ok _ -> Alcotest.fail "wrong response shape"
    | Error e -> Alcotest.fail (Xbound.Error.to_string e)
  in
  let before = snap () in
  for _ = 1 to 3 do
    match
      Serve.Client.rpc c
        (Wire.Request.Analyze { bench = "tea8"; tier = Xbound.Tier.Exact })
    with
    | Ok _ -> ()
    | Error e -> Alcotest.fail (Xbound.Error.to_string e)
  done;
  let after = snap () in
  let d = Telemetry.Snapshot.diff ~before ~after in
  let entries =
    In_channel.with_open_text log In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
    |> List.map Explain.Ejson.parse
  in
  checki "one entry per request" 3 (List.length entries);
  List.iter
    (fun e ->
      Alcotest.(check (option string))
        "op" (Some "analyze")
        (Explain.Ejson.string_member "op" e);
      Alcotest.(check (option string))
        "outcome" (Some "ok")
        (Explain.Ejson.string_member "outcome" e);
      Alcotest.(check (option string))
        "tier" (Some "exact")
        (Explain.Ejson.string_member "tier" e);
      checkb "has id" true (Explain.Ejson.string_member "id" e <> None))
    entries;
  (* the log's exec times are the very values observed into the
     serve.exec_ns histogram — equal sums, not approximately *)
  let logged_exec_ns =
    List.fold_left
      (fun acc e ->
        match Explain.Ejson.float_member "exec_ns" e with
        | Some v -> Int64.add acc (Int64.of_float v)
        | None -> Alcotest.fail "entry without exec_ns")
      0L entries
  in
  (match
     List.find_opt
       (fun (h : Telemetry.Snapshot.histo) -> h.hname = "serve.exec_ns")
       d.Telemetry.Snapshot.histograms
   with
  | Some h ->
    checki "exec observations" 3 h.Telemetry.Snapshot.count;
    check Alcotest.int64 "exec time attribution is exact"
      h.Telemetry.Snapshot.sum_ns logged_exec_ns
  | None -> Alcotest.fail "no serve.exec_ns in the window");
  (* every process-wide cache counter move in the window is accounted
     to some request's scope tally *)
  let logged_counter name =
    List.fold_left
      (fun acc e ->
        match Explain.Ejson.member "counters" e with
        | Some cs ->
          acc
          + int_of_float
              (Option.value ~default:0.
                 (Explain.Ejson.float_member name cs))
        | None -> acc)
      0 entries
  in
  let cache_counters =
    List.filter
      (fun (name, _) -> String.starts_with ~prefix:"cache." name)
      d.Telemetry.Snapshot.counters
  in
  checkb "window saw cache traffic" true (cache_counters <> []);
  List.iter
    (fun (name, total) ->
      checki ("exact attribution for " ^ name) total (logged_counter name))
    cache_counters

(* ---------------- observability does not perturb bounds ---------- *)

(* The second acceptance criterion: with the access log and 1-in-1
   trace sampling on, rendered bounds are byte-identical to the plain
   in-process run — and the spool dir actually received traces. *)
let test_serve_observability_byte_identical () =
  let cache = Cache.create () in
  let ctx = Xbound.Ctx.create ~cache ~jobs:2 () in
  let requests =
    [
      Wire.Request.Analyze { bench = "tea8"; tier = Xbound.Tier.Exact };
      Wire.Request.Analyze { bench = "tea8"; tier = Xbound.Tier.Static };
      Wire.Request.Run_concrete { bench = "mult"; seed = 8 };
    ]
  in
  let plain =
    List.map
      (fun r ->
        match Serve.Exec.exec ~ctx r with
        | Ok resp -> Serve.Render.to_string resp
        | Error e -> Alcotest.fail (Xbound.Error.to_string e))
      requests
  in
  let log = Filename.temp_file "xbound-test-alog2" ".jsonl" in
  let trace_dir = Filename.temp_file "xbound-test-traces" "" in
  Sys.remove trace_dir;
  with_server ~access_log:log ~slow_ms:1 ~trace_sample:1 ~trace_dir ~ctx
  @@ fun addr ->
  with_client addr @@ fun c ->
  List.iter2
    (fun r expected ->
      match Serve.Client.rpc c r with
      | Ok resp ->
        checks "byte-identical under full observability" expected
          (Serve.Render.to_string resp)
      | Error e -> Alcotest.fail (Xbound.Error.to_string e))
    requests plain;
  let traces = Sys.readdir trace_dir in
  checki "every request sampled" (List.length requests)
    (Array.length traces);
  Array.iter
    (fun f ->
      let body =
        In_channel.with_open_text (Filename.concat trace_dir f)
          In_channel.input_all
      in
      checkb (f ^ " looks like a chrome trace") true
        (String.length body > 0 && body.[0] = '{'))
    traces

let () =
  Alcotest.run "serve"
    [
      ( "wire",
        [
          Alcotest.test_case "error codes" `Quick test_error_codes;
          Alcotest.test_case "request codec" `Quick test_request_codec;
          Alcotest.test_case "response codec" `Quick test_response_codec;
          Alcotest.test_case "v1 compat" `Quick test_wire_v1_compat;
          Alcotest.test_case "envelopes" `Quick test_envelopes;
        ] );
      ( "frame",
        [
          Alcotest.test_case "round-trip" `Quick test_frame_roundtrip;
          Alcotest.test_case "truncated" `Quick test_frame_truncated;
          Alcotest.test_case "oversized" `Quick test_frame_oversized;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "admission" `Quick test_scheduler_admission;
          Alcotest.test_case "failure counts" `Quick test_failure_counts;
          Alcotest.test_case "auto warm-up queued once" `Quick test_warmup_dedup;
          Alcotest.test_case "cache stats sums its rows" `Quick
            test_cache_stats_sums;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "basic rpc" `Quick test_serve_basic;
          Alcotest.test_case "protocol errors" `Quick test_serve_protocol_errors;
          Alcotest.test_case "oversized closes" `Quick test_serve_oversized_closes;
          Alcotest.test_case "single flight" `Quick test_serve_single_flight;
          Alcotest.test_case "admission reject" `Quick test_serve_admission_reject;
          Alcotest.test_case "byte identical" `Quick test_serve_byte_identical;
          Alcotest.test_case "stop removes its sink" `Quick
            test_serve_stop_removes_sink;
        ] );
      ( "observability",
        [
          Alcotest.test_case "admin lane under saturation" `Quick
            test_serve_admin_lane;
          Alcotest.test_case "watch bounded" `Quick test_serve_watch_bounded;
          Alcotest.test_case "watch client disconnect" `Quick
            test_serve_watch_client_disconnect;
          Alcotest.test_case "watch server stop" `Quick
            test_serve_watch_server_stop;
          Alcotest.test_case "access log exactness" `Quick
            test_serve_access_log_exact;
          Alcotest.test_case "byte identical under observability" `Quick
            test_serve_observability_byte_identical;
        ] );
    ]
