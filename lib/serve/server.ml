(* The serve daemon loop. See server.mli. *)

module J = Explain.Ejson

type config = {
  listen : Addr.t;
  workers : int;
  queue_capacity : int;
  ctx : Xbound.Ctx.t;
  access_log : string option;
  slow_ms : int;
  trace_sample : int;
  trace_dir : string;
}

let config ?(workers = 1) ?(queue_capacity = 64) ?access_log ?(slow_ms = 0)
    ?(trace_sample = 0) ?(trace_dir = "xbound-traces") ~listen ~ctx () =
  {
    listen;
    workers;
    queue_capacity;
    ctx;
    access_log;
    slow_ms;
    trace_sample;
    trace_dir;
  }

type conn = {
  fd : Unix.file_descr;
  peer : string;
  wm : Mutex.t;  (* serializes response frames on the socket *)
  cm : Mutex.t;  (* guards the three fields below *)
  mutable inflight : int;
  mutable eof : bool;
  mutable closed : bool;
}

type t = {
  config : config;
  listen_fd : Unix.file_descr;
  sched : Scheduler.t;
  conns : (Unix.file_descr, conn) Hashtbl.t;
  conns_m : Mutex.t;
  alog : Accesslog.t option;
  seq : int Atomic.t;  (* request sequence — the stable request ids *)
  mutable accept_thread : Thread.t option;
  mutable executors : unit Domain.t list;
  mutable readers : Thread.t list;
  stopping : bool Atomic.t;
  own_sink : Telemetry.t option;  (* the sink [start] installed, if any *)
}

let c_requests = Telemetry.Counter.make "serve.requests"
let c_admin_requests = Telemetry.Counter.make "serve.admin_requests"
let c_rejected = Telemetry.Counter.make "serve.rejected"
let c_connections = Telemetry.Counter.make "serve.connections"
let c_protocol_errors = Telemetry.Counter.make "serve.protocol_errors"
let c_traces_sampled = Telemetry.Counter.make "serve.traces_sampled"
let h_queue_depth = Telemetry.Histogram.make "serve.queue_depth"
let h_queue_wait = Telemetry.Histogram.make "serve.queue_wait_ns"
let h_exec = Telemetry.Histogram.make "serve.exec_ns"
let h_latency = Telemetry.Histogram.make "serve.latency_ns"
let g_inflight = Telemetry.Gauge.make "serve.inflight"
let g_workers = Telemetry.Gauge.make "serve.workers"
let g_queue_capacity = Telemetry.Gauge.make "serve.queue_capacity"

let addr t = t.config.listen

(* ---------------- connection lifecycle ---------------- *)

let close_conn t c =
  Mutex.lock c.cm;
  let was_closed = c.closed in
  c.closed <- true;
  Mutex.unlock c.cm;
  if not was_closed then begin
    (try Unix.shutdown c.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    (try Unix.close c.fd with Unix.Unix_error _ -> ());
    Mutex.lock t.conns_m;
    Hashtbl.remove t.conns c.fd;
    Mutex.unlock t.conns_m
  end

let conn_closed c =
  Mutex.lock c.cm;
  let r = c.closed in
  Mutex.unlock c.cm;
  r

(* A write failure means the client is gone: drop the connection. *)
let send t c frame =
  let payload = Wire.encode_response frame in
  Mutex.lock c.wm;
  let ok =
    try
      Frame.write c.fd payload;
      true
    with Unix.Unix_error _ | Sys_error _ -> false
  in
  Mutex.unlock c.wm;
  if not ok then close_conn t c

(* Called when a request finishes (or is rejected) — once the reader
   has hit EOF and nothing is in flight, the connection is done. *)
let finish t c =
  Telemetry.Gauge.add g_inflight (-1);
  Mutex.lock c.cm;
  c.inflight <- c.inflight - 1;
  let done_ = c.eof && c.inflight = 0 in
  Mutex.unlock c.cm;
  if done_ then close_conn t c

(* ---------------- per-request observability ---------------- *)

(* One JSONL entry per finished (or rejected) request. The [exec_ns]
   and counter values are the exact values fed to the process-wide
   histograms/counters, so for a single client the column sums equal
   the snapshot diff over the run — per-request attribution is exact,
   not sampled. Slow requests (exec above [slow_ms]) are logged at
   warn with their per-phase timings inline. *)
let log_access t ~req_id ~peer ~(frame : Wire.request_frame) ~queue_wait_ns
    ~exec_ns ~outcome ~scope =
  match t.alog with
  | None -> ()
  | Some log ->
    let slow =
      t.config.slow_ms > 0
      && Int64.to_float exec_ns /. 1e6 >= float_of_int t.config.slow_ms
    in
    let counters =
      match scope with
      | None -> []
      | Some s -> Telemetry.Scope.counter_deltas s
    in
    let fields =
      [
        ("ts", J.Num (Unix.gettimeofday ()));
        ("level", J.Str (if slow then "warn" else "info"));
        ("id", J.Str req_id);
        ("client", J.Str peer);
        ("op", J.Str (Exec.op_name frame.request));
        ( "tier",
          match Exec.tier_of_request frame.request with
          | Some tier -> J.Str (Xbound.Tier.to_string tier)
          | None -> J.Null );
        ("priority", J.Str (Wire.priority_to_string frame.priority));
        ("queue_wait_ns", J.Num (Int64.to_float queue_wait_ns));
        ("exec_ns", J.Num (Int64.to_float exec_ns));
        ("outcome", J.Str outcome);
        ( "counters",
          J.Obj
            (List.map (fun (k, v) -> (k, J.Num (float_of_int v))) counters) );
      ]
    in
    let fields =
      if not slow then fields
      else
        fields
        @ [
            ( "phases_s",
              J.Obj
                (List.map
                   (fun (k, v) -> (k, J.Num v))
                   (match scope with
                   | None -> []
                   | Some s -> Telemetry.Scope.phase_totals s)) );
          ]
    in
    Accesslog.write log (J.Obj fields)

(* Every [trace_sample]-th request dumps its scope as a standalone
   Chrome trace under the spool dir. *)
let maybe_dump_trace t ~seq ~op ~scope =
  let n = t.config.trace_sample in
  if n > 0 && seq mod n = 0 then begin
    (try Unix.mkdir t.config.trace_dir 0o755
     with Unix.Unix_error (Unix.EEXIST, _, _) -> () | Unix.Unix_error _ -> ());
    let file =
      Filename.concat t.config.trace_dir
        (Printf.sprintf "req-%d-%s.json" seq op)
    in
    (try
       Out_channel.with_open_text file (fun oc ->
           output_string oc (Telemetry.Scope.to_chrome_json scope))
     with Sys_error _ -> ());
    Telemetry.Counter.incr c_traces_sampled
  end

(* The Auto tier's background exact warm-up is batch work for the
   executors like any request: it waits behind interactive work, is
   dropped when the queue is full, and at most one per program is
   queued or running. *)
let background t ~key run = ignore (Scheduler.submit_background t.sched ~key run)

let execute t c (frame : Wire.request_frame) ~admitted_ns ~seq =
  let req_id = Printf.sprintf "r%d" seq in
  let started_ns = Telemetry.now_ns () in
  let queue_wait_ns = Int64.sub started_ns admitted_ns in
  if Telemetry.enabled () then
    Telemetry.Histogram.observe h_queue_wait queue_wait_ns;
  let scope = Telemetry.Scope.create ~id:req_id in
  let result =
    try
      Telemetry.Scope.with_scope scope @@ fun () ->
      Telemetry.span ~cat:"serve" (Exec.op_name frame.request) @@ fun () ->
      Exec.exec ~background:(background t) ~ctx:t.config.ctx frame.request
    with e ->
      Error
        (Xbound.Error.Analysis
           { program = "(serve)"; message = Printexc.to_string e })
  in
  let finished_ns = Telemetry.now_ns () in
  let exec_ns = Int64.sub finished_ns started_ns in
  if Telemetry.enabled () then begin
    Telemetry.Histogram.observe h_exec exec_ns;
    Telemetry.Histogram.observe h_latency (Int64.sub finished_ns admitted_ns)
  end;
  log_access t ~req_id ~peer:c.peer ~frame ~queue_wait_ns ~exec_ns
    ~outcome:(match result with Ok _ -> "ok" | Error _ -> "error")
    ~scope:(Some scope);
  maybe_dump_trace t ~seq ~op:(Exec.op_name frame.request) ~scope;
  send t c { Wire.rid = frame.id; result };
  finish t c

(* ---------------- admin lane ---------------- *)

(* Stats, Health and Watch never enter the scheduler: they run inline
   on the connection's own reader thread, so they answer even when the
   queue is full and rejecting batch work with Overloaded — a health
   check that can be starved by load is not a health check. They are
   counted separately (serve.admin_requests) to keep serve.requests an
   accurate measure of analysis traffic. *)

let watch_loop t c ~rid ~interval_ms ~count =
  let interval_ms = max 10 interval_ms in
  let alive () = (not (Atomic.get t.stopping)) && not (conn_closed c) in
  (* Sleep in short slices so server stop and client disconnect both
     end the stream within ~50 ms. *)
  let rec sleep ms =
    if ms > 0 && alive () then begin
      let chunk = min 50 ms in
      Thread.delay (float_of_int chunk /. 1000.);
      sleep (ms - chunk)
    end
  in
  let send_snap snapshot =
    send t c
      {
        Wire.rid;
        result =
          Ok (Wire.Response.Stats { fmt = Wire.Request.Stats_table; snapshot });
      }
  in
  let prev = ref (Telemetry.Snapshot.take ()) in
  send_snap !prev;
  let remaining = ref (if count <= 0 then -1 else count - 1) in
  while !remaining <> 0 && alive () do
    sleep interval_ms;
    if alive () then begin
      let now = Telemetry.Snapshot.take () in
      send_snap (Telemetry.Snapshot.diff ~before:!prev ~after:now);
      prev := now;
      if !remaining > 0 then decr remaining
    end
  done

let handle_admin t c (frame : Wire.request_frame) =
  Telemetry.Counter.incr c_admin_requests;
  match frame.request with
  | Wire.Request.Watch { interval_ms; count } ->
    watch_loop t c ~rid:frame.id ~interval_ms ~count
  | req ->
    let result = Exec.exec ~ctx:t.config.ctx req in
    send t c { Wire.rid = frame.id; result }

(* ---------------- reader thread ---------------- *)

let handle_payload t c payload =
  match Wire.decode_request payload with
  | Error (id, err) ->
    Telemetry.Counter.incr c_protocol_errors;
    send t c { Wire.rid = Option.value id ~default:0; result = Error err };
    `Continue
  | Ok frame -> (
    match frame.request with
    | Wire.Request.Stats _ | Wire.Request.Health | Wire.Request.Watch _ ->
      handle_admin t c frame;
      `Continue
    | _ ->
      Telemetry.Counter.incr c_requests;
      (match Exec.tier_of_request frame.request with
      | Some tier ->
        Telemetry.Counter.incr
          (Telemetry.Counter.make
             ("serve.tier." ^ Xbound.Tier.to_string tier))
      | None -> ());
      if Telemetry.enabled () then
        Telemetry.Histogram.observe h_queue_depth
          (Int64.of_int (Scheduler.depth t.sched));
      let admitted_ns = Telemetry.now_ns () in
      let seq = Atomic.fetch_and_add t.seq 1 in
      Mutex.lock c.cm;
      c.inflight <- c.inflight + 1;
      Mutex.unlock c.cm;
      Telemetry.Gauge.add g_inflight 1;
      let job =
        {
          Scheduler.priority = frame.priority;
          run = (fun () -> execute t c frame ~admitted_ns ~seq);
        }
      in
      (match Scheduler.submit t.sched job with
      | Ok () -> ()
      | Error queued ->
        Telemetry.Counter.incr c_rejected;
        log_access t
          ~req_id:(Printf.sprintf "r%d" seq)
          ~peer:c.peer ~frame ~queue_wait_ns:0L ~exec_ns:0L
          ~outcome:"rejected" ~scope:None;
        send t c
          {
            Wire.rid = frame.id;
            result =
              Error
                (Xbound.Error.Overloaded
                   { queued; capacity = Scheduler.capacity t.sched });
          };
        finish t c);
      `Continue)

let reader t c =
  let rec loop () =
    match Frame.read c.fd with
    | exception (Unix.Unix_error _ | Sys_error _) -> `Eof
    | Error Frame.Eof -> `Eof
    | Error e ->
      (* Framing is lost: answer once, then drop the connection. *)
      Telemetry.Counter.incr c_protocol_errors;
      send t c
        {
          Wire.rid = 0;
          result =
            Error (Xbound.Error.Protocol (Frame.read_error_to_string e));
        };
      `Close
    | Ok payload -> (
      match handle_payload t c payload with `Continue -> loop ())
  in
  match loop () with
  | `Close -> close_conn t c
  | `Eof ->
    (* Keep the connection open for responses still in flight. *)
    Mutex.lock c.cm;
    c.eof <- true;
    let idle = c.inflight = 0 in
    Mutex.unlock c.cm;
    if idle then close_conn t c

(* ---------------- accept thread / executor domains ---------------- *)

let peer_string fd =
  match Unix.getpeername fd with
  | Unix.ADDR_UNIX _ -> "unix"
  | Unix.ADDR_INET (a, p) ->
    Printf.sprintf "%s:%d" (Unix.string_of_inet_addr a) p
  | exception Unix.Unix_error _ -> "?"

let rec accept_loop t =
  match Unix.accept t.listen_fd with
  | fd, _ when Atomic.get t.stopping ->
    (try Unix.close fd with Unix.Unix_error _ -> ())
  | fd, _ ->
    Telemetry.Counter.incr c_connections;
    let c =
      {
        fd;
        peer = peer_string fd;
        wm = Mutex.create ();
        cm = Mutex.create ();
        inflight = 0;
        eof = false;
        closed = false;
      }
    in
    Mutex.lock t.conns_m;
    Hashtbl.replace t.conns fd c;
    t.readers <- Thread.create (fun () -> reader t c) () :: t.readers;
    Mutex.unlock t.conns_m;
    accept_loop t
  | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) ->
    accept_loop t
  | exception (Unix.Unix_error _ | Sys_error _) ->
    (* stop closed the listening socket — or it broke; either way the
       accept loop is over. *)
    ()

let c_executor_errors = Telemetry.Counter.make "serve.executor_errors"

(* [execute] already turns an analysis exception into an error response;
   whatever still escapes a job (logging, sending) is counted, and the
   executor goes on to the next job. *)
let rec executor_loop sched =
  match Scheduler.next sched with
  | None -> ()
  | Some job ->
    (try job.Scheduler.run ()
     with e -> Exec.report_failure c_executor_errors ~what:"request executor" e);
    executor_loop sched

(* ---------------- start / stop ---------------- *)

(* Every minor collection stops every domain, and a stop waits for any
   domain the OS has descheduled. Executors allocate fast (concrete
   traces, explain reports, response encoding), so each gets a minor
   heap of 1 Mi words (8 MB, four times the default) to make the stops
   rarer. On a 2-core machine this moved serve-warm p99 from 57-64 ms
   to 46-48 ms (from 241-246 ms to 101-103 ms with one core kept busy
   by another process), for a peak RSS of 273-284 MB instead of
   252-256 MB. *)
let executor_minor_heap_words = 1 lsl 20

(* Uninstall the sink [start] installed, unless another has replaced it
   since. *)
let remove_sink = function
  | Some s -> (
    match Telemetry.ambient () with
    | Some cur when cur == s -> Telemetry.set_ambient None
    | Some _ | None -> ())
  | None -> ()

let start config =
  (* A client vanishing mid-write must not kill the process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  (* A long-lived daemon needs counters/histograms live for Stats and
     Watch, but must not accumulate span events forever: install an
     event-dropping sink unless the operator already installed one
     (e.g. --trace, which wants the events). [stop] removes it again. *)
  let own_sink =
    if Telemetry.enabled () then None
    else begin
      let s = Telemetry.create ~retain_events:false () in
      Telemetry.set_ambient (Some s);
      Some s
    end
  in
  Telemetry.Gauge.set g_workers (max 1 config.workers);
  Telemetry.Gauge.set g_queue_capacity (max 1 config.queue_capacity);
  let open_alog () =
    match config.access_log with
    | None -> Ok None
    | Some path -> (
      match Accesslog.open_ path with
      | Ok log -> Ok (Some log)
      | Error m -> Error ("cannot open access log: " ^ m))
  in
  match open_alog () with
  | Error _ as e ->
    remove_sink own_sink;
    e
  | Ok alog -> (
    match Addr.listen config.listen with
    | Error _ as e ->
      Option.iter Accesslog.close alog;
      remove_sink own_sink;
      e
    | Ok listen_fd ->
      let t =
        {
          config;
          listen_fd;
          sched = Scheduler.create ~capacity:(max 1 config.queue_capacity);
          conns = Hashtbl.create 16;
          conns_m = Mutex.create ();
          alog;
          seq = Atomic.make 1;
          accept_thread = None;
          executors = [];
          readers = [];
          stopping = Atomic.make false;
          own_sink;
        }
      in
      (* Each executor runs on a domain of its own, so a request never
         waits for another executor's domain lock, and takes its own
         slot in the worker pool (sized by the context's job count, as
         every request will size it) before its first job. *)
      Option.iter Parallel.set_default_jobs config.ctx.Xbound.Ctx.jobs;
      t.executors <-
        List.init (max 1 config.workers) (fun _ ->
            Domain.spawn (fun () ->
                Gc.set
                  {
                    (Gc.get ()) with
                    Gc.minor_heap_size = executor_minor_heap_words;
                  };
                Option.iter Parallel.Pool.register (Parallel.auto ());
                executor_loop t.sched));
      t.accept_thread <- Some (Thread.create (fun () -> accept_loop t) ());
      Ok t)

let stop t =
  if not (Atomic.exchange t.stopping true) then begin
    (* Wake the accept thread. Closing a listening fd does not wake a
       thread blocked in accept(2) on Linux; shutdown does on most
       setups, and the self-connect covers the rest (the accept loop
       re-checks [stopping] on every wakeup). *)
    (try Unix.shutdown t.listen_fd Unix.SHUTDOWN_ALL
     with Unix.Unix_error _ -> ());
    (match Addr.connect t.config.listen with
    | Ok fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
    | Error _ -> ());
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    (match t.config.listen with
    | Addr.Unix_sock path -> ( try Sys.remove path with Sys_error _ -> ())
    | Addr.Tcp _ -> ());
    (* Wake the executors; queued jobs are dropped. *)
    Scheduler.stop t.sched;
    (* Wake every blocked reader (this also ends Watch streams: their
       [alive] check sees [stopping] within one 50 ms slice). *)
    Mutex.lock t.conns_m;
    let conns = Hashtbl.fold (fun _ c acc -> c :: acc) t.conns [] in
    Mutex.unlock t.conns_m;
    List.iter (fun c -> close_conn t c) conns;
    Option.iter Thread.join t.accept_thread;
    List.iter Domain.join t.executors;
    (* The readers list is only ever appended under conns_m and accept
       has joined, so this snapshot is complete. *)
    Mutex.lock t.conns_m;
    let readers = t.readers in
    t.readers <- [];
    Mutex.unlock t.conns_m;
    List.iter Thread.join readers;
    Option.iter Accesslog.close t.alog;
    remove_sink t.own_sink
  end
