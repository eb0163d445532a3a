(* Ambient, domain-safe telemetry: spans into per-domain buffers,
   process-wide atomic counters/gauges/histograms, request-scoped
   attribution, snapshots and Chrome trace-event / Prometheus export.
   See telemetry.mli for the contract.

   Lock discipline: the per-sink mutex is taken once per (domain, sink)
   pair, when the domain's buffer is first registered. Recording an
   event is a cons onto a domain-private list; counters and histogram
   buckets are single atomic RMWs. Scope attribution adds one atomic
   load per counter increment when no scope is bound anywhere, and a
   short critical section on the mutex of the bound scope and of each
   scope enclosing it when one is. Every
   instrumentation site is behind one atomic load of the ambient sink,
   so disabled telemetry costs exactly that load. *)

type event = {
  name : string;
  cat : string;
  tid : int;
  ts_ns : int64;
  dur_ns : int64;
  depth : int;
}

(* One per (domain, sink): domain-private, so no lock on record. *)
type buffer = {
  tid : int;
  mutable evs : event list;
  mutable depth : int;
}

type t = {
  id : int;
  origin : int64;  (* monotonic ns at creation *)
  retain_events : bool;
  m : Mutex.t;
  mutable buffers : buffer list;
  main_tid : int;
  (* Concurrent [with_ambient] calls installing this sink, and the
     ambient the first of them found; both under [install_m]. *)
  mutable installs : int;
  mutable before : t option;
}

let ids = Atomic.make 0

(* Module-load clock origin: process uptime for snapshots. *)
let process_origin = Monotonic_clock.now ()

let create ?(retain_events = true) () =
  {
    id = Atomic.fetch_and_add ids 1;
    origin = Monotonic_clock.now ();
    retain_events;
    m = Mutex.create ();
    buffers = [];
    main_tid = (Domain.self () :> int);
    installs = 0;
    before = None;
  }

let now_ns () = Monotonic_clock.now ()

let uptime_s () =
  Int64.to_float (Int64.sub (Monotonic_clock.now ()) process_origin) /. 1e9

let the_ambient : t option Atomic.t = Atomic.make None
let ambient () = Atomic.get the_ambient
let set_ambient s = Atomic.set the_ambient s
let enabled () = Atomic.get the_ambient <> None

(* Concurrent calls with one sink (two requests of a daemon sharing its
   sink) share one installation: the ambient found by the first comes
   back only when the last returns, whatever the order they return in. *)
let install_m = Mutex.create ()

let with_ambient s f =
  Mutex.protect install_m (fun () ->
      if s.installs = 0 then s.before <- Atomic.get the_ambient;
      s.installs <- s.installs + 1;
      Atomic.set the_ambient (Some s));
  Fun.protect f ~finally:(fun () ->
      Mutex.protect install_m (fun () ->
          s.installs <- s.installs - 1;
          if s.installs = 0 then begin
            Atomic.set the_ambient s.before;
            s.before <- None
          end))

(* sink id -> buffer, per domain (a domain can record into several
   sinks over its lifetime). *)
let buffers_key : (int * buffer) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let buffer_for t =
  let r = Domain.DLS.get buffers_key in
  match List.assq_opt t.id !r with
  | Some b -> b
  | None ->
    let b = { tid = (Domain.self () :> int); evs = []; depth = 0 } in
    r := (t.id, b) :: !r;
    Mutex.lock t.m;
    t.buffers <- b :: t.buffers;
    Mutex.unlock t.m;
    b

(* Spans currently open across every domain and thread. *)
let active_spans = Atomic.make 0

(* ---------------- registries ---------------- *)

(* Name -> handle, interned under one mutex: counters, gauges and
   histograms each keep one. *)
module Registry = struct
  type 'a t = { tbl : (string, 'a) Hashtbl.t; m : Mutex.t }

  let create () = { tbl = Hashtbl.create 32; m = Mutex.create () }

  let intern r fresh name =
    Mutex.protect r.m (fun () ->
        match Hashtbl.find_opt r.tbl name with
        | Some h -> h
        | None ->
          let h = fresh name in
          Hashtbl.add r.tbl name h;
          h)

  (* Every registered handle, sorted by name. *)
  let all r =
    Mutex.protect r.m (fun () ->
        Hashtbl.fold (fun name h acc -> (name, h) :: acc) r.tbl [])
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
end

(* ---------------- event lists: sort, fold, export ---------------- *)

let json_escape s =
  let b = Buffer.create (String.length s + 4) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let us ns = Int64.to_float ns /. 1e3
let secs ns = Int64.to_float ns /. 1e9

let sort_events evs =
  List.sort
    (fun a b ->
      match Int64.compare a.ts_ns b.ts_ns with
      | 0 -> compare (a.tid, a.depth) (b.tid, b.depth)
      | c -> c)
    evs

(* Seconds and span count per [key], skipping events keyed [None];
   unordered. *)
let fold_spans key evs =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun e ->
      match key e with
      | None -> ()
      | Some k ->
        let s, n = Option.value (Hashtbl.find_opt tbl k) ~default:(0., 0) in
        Hashtbl.replace tbl k (s +. secs e.dur_ns, n + 1))
    evs;
  Hashtbl.fold (fun k sn acc -> (k, sn) :: acc) tbl []

let span_totals_of ?cat evs =
  fold_spans
    (fun e ->
      match cat with
      | Some c when not (String.equal c e.cat) -> None
      | _ -> Some e.name)
    evs
  |> List.sort (fun (an, (a, _)) (bn, (b, _)) ->
         match Float.compare b a with 0 -> String.compare an bn | c -> c)

let phase_totals_of evs =
  List.map (fun (name, (s, _)) -> (name, s)) (span_totals_of ~cat:"phase" evs)

(* Chrome trace-event format (the JSON-array flavour inside an object):
   https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
   [main_tid] names the recording's main domain. The summary object
   lists every counter given, zeros included: "pool.spawn": 0 is
   information (nothing ran in parallel), absence is not. *)
let chrome_json ~main_tid ?request evs counters =
  let evs = sort_events evs in
  let thread tid =
    Printf.sprintf
      "  {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": %d, \
       \"args\": {\"name\": \"%s\"}}"
      tid
      (if tid = main_tid then Printf.sprintf "main (domain %d)" tid
       else Printf.sprintf "domain %d" tid)
  in
  let span e =
    Printf.sprintf
      "  {\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"pid\": 1, \
       \"tid\": %d, \"ts\": %.3f, \"dur\": %.3f}"
      (json_escape e.name) (json_escape e.cat) e.tid (us e.ts_ns) (us e.dur_ns)
  in
  let last_ts =
    List.fold_left (fun acc e -> Int64.max acc (Int64.add e.ts_ns e.dur_ns)) 0L
      evs
  in
  let counter (name, v) =
    if v = 0 then None
    else
      Some
        (Printf.sprintf
           "  {\"name\": \"%s\", \"cat\": \"counter\", \"ph\": \"C\", \"pid\": \
            1, \"tid\": %d, \"ts\": %.3f, \"args\": {\"value\": %d}}"
           (json_escape name) main_tid (us last_ts) v)
  in
  let tids =
    List.sort_uniq compare (main_tid :: List.map (fun (e : event) -> e.tid) evs)
  in
  String.concat ""
    [
      "{\"traceEvents\": [\n";
      String.concat ",\n"
        (List.map thread tids @ List.map span evs
        @ List.filter_map counter counters);
      "\n],\n\"displayTimeUnit\": \"ms\",\n";
      (match request with
      | Some id ->
        Printf.sprintf "\"xboundRequest\": \"%s\",\n" (json_escape id)
      | None -> "");
      "\"xboundCounters\": {";
      String.concat ", "
        (List.map
           (fun (name, v) -> Printf.sprintf "\"%s\": %d" (json_escape name) v)
           counters);
      "}}\n";
    ]

(* ---------------- scopes ---------------- *)

module Scope = struct
  type s = {
    sid : string;
    stid : int;  (* the creating domain: the export's main thread *)
    parent : s option;  (* the scope active where this one was created *)
    sm : Mutex.t;
    tally_tbl : (string, int) Hashtbl.t;
    mutable sevs : event list;
  }

  (* Number of (thread -> scope) bindings alive anywhere in the
     process: the fast-path gate for counter attribution. *)
  let live = Atomic.make 0

  (* Thread.id -> scope. Keyed on systhread ids, not Domain.DLS: the
     daemon's executor domains and the pool workers are each the main
     thread of their own domain, while a domain may also run several
     threads (the daemon's reader threads share the main domain). Thread
     ids are unique across domains, so they distinguish all of them. *)
  let bindings : (int, s) Hashtbl.t = Hashtbl.create 16
  let bm = Mutex.create ()
  let self_id () = Thread.id (Thread.self ())

  let active () =
    if Atomic.get live = 0 then None
    else
      let tid = self_id () in
      Mutex.protect bm (fun () -> Hashtbl.find_opt bindings tid)

  let create ~id =
    {
      sid = id;
      stid = (Domain.self () :> int);
      parent = active ();
      sm = Mutex.create ();
      tally_tbl = Hashtbl.create 16;
      sevs = [];
    }

  let id s = s.sid

  (* [f] under the lock of the active scope and of every scope
     enclosing it, innermost first. *)
  let each_active f =
    let rec go s =
      Mutex.lock s.sm;
      f s;
      Mutex.unlock s.sm;
      Option.iter go s.parent
    in
    Option.iter go (active ())

  let tally name n =
    if n <> 0 then
      each_active (fun s ->
          Hashtbl.replace s.tally_tbl name
            (Option.value (Hashtbl.find_opt s.tally_tbl name) ~default:0 + n))

  let record e = each_active (fun s -> s.sevs <- e :: s.sevs)

  let set_binding tid so =
    Mutex.lock bm;
    let had = Hashtbl.mem bindings tid in
    (match so with
    | Some s ->
      Hashtbl.replace bindings tid s;
      if not had then Atomic.incr live
    | None ->
      if had then begin
        Hashtbl.remove bindings tid;
        Atomic.decr live
      end);
    Mutex.unlock bm

  let with_binding so f =
    match (so, Atomic.get live) with
    | None, 0 -> f ()
    | _ ->
      let tid = self_id () in
      let prev = Mutex.protect bm (fun () -> Hashtbl.find_opt bindings tid) in
      set_binding tid so;
      Fun.protect f ~finally:(fun () -> set_binding tid prev)

  let with_scope s f = with_binding (Some s) f

  let counter_deltas s =
    Mutex.protect s.sm (fun () ->
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) s.tally_tbl [])
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)

  let raw_events s = Mutex.protect s.sm (fun () -> s.sevs)
  let events s = sort_events (raw_events s)
  let phase_totals s = phase_totals_of (raw_events s)

  let to_chrome_json s =
    chrome_json ~main_tid:s.stid ~request:s.sid (raw_events s)
      (counter_deltas s)
end

(* ---------------- counters ---------------- *)

module Counter = struct
  type c = { cname : string; v : int Atomic.t }

  let registry = Registry.create ()
  let make =
    Registry.intern registry (fun cname -> { cname; v = Atomic.make 0 })

  let add c n =
    if enabled () then begin
      ignore (Atomic.fetch_and_add c.v n);
      Scope.tally c.cname n
    end

  let incr c = add c 1
  let value c = Atomic.get c.v
  let name c = c.cname
end

let counters () =
  List.map
    (fun (name, c) -> (name, Counter.value c))
    (Registry.all Counter.registry)

let diff ~before ~after =
  List.filter_map
    (fun (name, v) ->
      let v0 = Option.value (List.assoc_opt name before) ~default:0 in
      if v - v0 <> 0 then Some (name, v - v0) else None)
    after

(* ---------------- gauges ---------------- *)

module Gauge = struct
  type g = { gname : string; v : int Atomic.t }

  let registry = Registry.create ()
  let make =
    Registry.intern registry (fun gname -> { gname; v = Atomic.make 0 })

  (* Gauges are current state, not accumulated work: they stay live
     even without an ambient sink so a snapshot taken later still sees
     the true queue depth / worker count. *)
  let set g n = Atomic.set g.v n
  let add g n = ignore (Atomic.fetch_and_add g.v n)
  let value g = Atomic.get g.v
  let name g = g.gname
end

let gauges () =
  List.map
    (fun (name, g) -> (name, Gauge.value g))
    (Registry.all Gauge.registry)

(* ---------------- histograms ---------------- *)

(* The q-quantile of a log2 histogram given as its ascending non-empty
   [(upper, count)] buckets: the upper edge of the bucket holding the
   rank-th observation, clamped to [max_ns] — an upper bound on the
   true percentile, tight to within the bucket's 2x resolution. [0L]
   when empty. *)
let bucket_percentile ~max_ns buckets q =
  let count = List.fold_left (fun acc (_, n) -> acc + n) 0 buckets in
  let rank = max 1 (int_of_float (Float.round (q *. float_of_int count))) in
  let rec go seen = function
    | [] -> max_ns
    | (upper, n) :: tl ->
      if seen + n >= rank then Int64.min upper max_ns else go (seen + n) tl
  in
  if count = 0 then 0L else go 0 buckets

module Histogram = struct
  type h = {
    hname : string;
    bucket : int Atomic.t array;  (* index = log2 of the observation *)
    count : int Atomic.t;
    sum_ns : int Atomic.t;
    max_ns : int Atomic.t;
  }

  let registry = Registry.create ()

  let make =
    Registry.intern registry (fun hname ->
        {
          hname;
          bucket = Array.init 64 (fun _ -> Atomic.make 0);
          count = Atomic.make 0;
          sum_ns = Atomic.make 0;
          max_ns = Atomic.make 0;
        })

  let name h = h.hname

  let log2i n =
    let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
    go 0 n

  let rec store_max a v =
    let cur = Atomic.get a in
    if v > cur && not (Atomic.compare_and_set a cur v) then store_max a v

  let observe h ns =
    if enabled () then begin
      let n = Int64.to_int (Int64.max 0L ns) in
      Atomic.incr h.bucket.(log2i n);
      Atomic.incr h.count;
      ignore (Atomic.fetch_and_add h.sum_ns n);
      store_max h.max_ns n
    end

  let totals h =
    ( Atomic.get h.count,
      Int64.of_int (Atomic.get h.sum_ns),
      Int64.of_int (Atomic.get h.max_ns) )

  (* Inclusive upper edge of bucket [i] = 2^(i+1)-1: bucket 0 holds
     observations 0..1, bucket i>=1 holds 2^i..2^(i+1)-1. *)
  let bucket_upper i =
    if i >= 62 then Int64.max_int
    else Int64.sub (Int64.shift_left 1L (i + 1)) 1L

  let buckets h =
    let acc = ref [] in
    for i = Array.length h.bucket - 1 downto 0 do
      let n = Atomic.get h.bucket.(i) in
      if n > 0 then acc := (bucket_upper i, n) :: !acc
    done;
    !acc

  let percentile h q =
    bucket_percentile ~max_ns:(Int64.of_int (Atomic.get h.max_ns)) (buckets h) q

  let all () = List.map snd (Registry.all registry)
end

(* ---------------- spans ---------------- *)

let span ?(cat = "phase") name f =
  match Atomic.get the_ambient with
  | None -> f ()
  | Some t ->
    let buf = buffer_for t in
    let t0 = Monotonic_clock.now () in
    buf.depth <- buf.depth + 1;
    let depth = buf.depth in
    Atomic.incr active_spans;
    Fun.protect f ~finally:(fun () ->
        let t1 = Monotonic_clock.now () in
        buf.depth <- buf.depth - 1;
        Atomic.decr active_spans;
        let dur_ns = Int64.sub t1 t0 in
        let e =
          { name; cat; tid = buf.tid; ts_ns = Int64.sub t0 t.origin; dur_ns;
            depth }
        in
        if t.retain_events then buf.evs <- e :: buf.evs;
        Scope.record e;
        (* Completed-span aggregate: what snapshots report even when the
           sink drops events (the long-lived daemon). *)
        Histogram.observe
          (Histogram.make (Printf.sprintf "span.%s.%s_ns" cat name))
          dur_ns)

let raw_events t =
  let bufs = Mutex.protect t.m (fun () -> t.buffers) in
  List.concat_map (fun b -> b.evs) bufs

let events t = sort_events (raw_events t)

(* ---------------- export ---------------- *)

let to_chrome_json t =
  chrome_json ~main_tid:t.main_tid (raw_events t) (counters ())

let write_chrome t ~file =
  Out_channel.with_open_text file (fun oc ->
      output_string oc (to_chrome_json t))

let span_totals ?cat t = span_totals_of ?cat (raw_events t)
let phase_totals t = phase_totals_of (raw_events t)

let tid_busy t =
  fold_spans
    (fun e -> if String.equal e.cat "pool" then Some e.tid else None)
    (raw_events t)
  |> List.map (fun (tid, (s, _)) -> (tid, s))
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let stats_summary t =
  let b = Buffer.create 1024 in
  let wall = secs (Int64.sub (Monotonic_clock.now ()) t.origin) in
  Buffer.add_string b (Printf.sprintf "telemetry (wall %.3f s)\n" wall);
  (match span_totals t with
  | [] -> ()
  | totals ->
    Buffer.add_string b "  spans (total s, count):\n";
    List.iter
      (fun (name, (s, n)) ->
        Buffer.add_string b (Printf.sprintf "    %-32s %9.4f  %6d\n" name s n))
      totals);
  (match tid_busy t with
  | [] -> ()
  | busy ->
    Buffer.add_string b "  pool busy per domain:\n";
    List.iter
      (fun (tid, s) ->
        Buffer.add_string b
          (Printf.sprintf "    domain %-4d %9.4f s (%.0f%%)\n" tid s
             (if wall > 0. then 100. *. s /. wall else 0.)))
      busy);
  (match List.filter (fun (_, v) -> v <> 0) (counters ()) with
  | [] -> ()
  | cs ->
    Buffer.add_string b "  counters:\n";
    List.iter
      (fun (name, v) ->
        Buffer.add_string b (Printf.sprintf "    %-32s %d\n" name v))
      cs);
  (* Unit-aware histogram lines: *_ns histograms are nanosecond
     distributions (printed in ms); anything else is a count
     distribution (printed as integers). *)
  List.iter
    (fun h ->
      let count, sum, mx = Histogram.totals h in
      if count > 0 then
        let hname = h.Histogram.hname in
        if String.ends_with ~suffix:"_ns" hname then
          let ms ns = Int64.to_float ns /. 1e6 in
          Buffer.add_string b
            (Printf.sprintf
               "  histogram %-24s %d obs, mean %.3f ms, p50 %.3f ms, p99 %.3f \
                ms, max %.3f ms\n"
               hname count
               (Int64.to_float sum /. 1e6 /. float_of_int count)
               (ms (Histogram.percentile h 0.50))
               (ms (Histogram.percentile h 0.99))
               (ms mx))
        else
          Buffer.add_string b
            (Printf.sprintf
               "  histogram %-24s %d obs, mean %.1f, p50 %Ld, p99 %Ld, max \
                %Ld (count)\n"
               hname count
               (Int64.to_float sum /. float_of_int count)
               (Histogram.percentile h 0.50)
               (Histogram.percentile h 0.99)
               mx))
    (Histogram.all ());
  Buffer.contents b

(* ---------------- snapshots ---------------- *)

let rss_bytes () =
  match
    In_channel.with_open_text "/proc/self/status" In_channel.input_all
  with
  | exception _ -> 0
  | s ->
    let line =
      List.find_opt
        (fun l -> String.length l >= 6 && String.sub l 0 6 = "VmRSS:")
        (String.split_on_char '\n' s)
    in
    (match line with
    | None -> 0
    | Some l -> (
      try Scanf.sscanf l "VmRSS: %d kB" (fun kb -> kb * 1024)
      with _ -> 0))

module Snapshot = struct
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
    taken_ns : int64;
    uptime_s : float;
    rss_bytes : int;
    active_spans : int;
    counters : (string * int) list;
    gauges : (string * int) list;
    histograms : histo list;
  }

  type t = snap

  let histo ~hname ~count ~sum_ns ~max_ns buckets =
    let p = bucket_percentile ~max_ns buckets in
    { hname; count; sum_ns; max_ns; p50 = p 0.50; p90 = p 0.90; p99 = p 0.99;
      buckets }

  let take () =
    let histograms =
      List.filter_map
        (fun h ->
          let count, sum_ns, max_ns = Histogram.totals h in
          if count = 0 then None
          else
            Some
              (histo ~hname:(Histogram.name h) ~count ~sum_ns ~max_ns
                 (Histogram.buckets h)))
        (Histogram.all ())
    in
    let now = Monotonic_clock.now () in
    {
      taken_ns = now;
      uptime_s = secs (Int64.sub now process_origin);
      rss_bytes = rss_bytes ();
      active_spans = Atomic.get active_spans;
      counters = counters ();
      gauges = gauges ();
      histograms;
    }

  (* Counter and histogram deltas over the window; gauges, rss and
     active-span count are instantaneous so the [after] values stand.
     [uptime_s] of a diff is the window length, so rates are
     [delta / uptime_s]. The window's percentiles are clamped to the
     cumulative maximum, the only maximum a snapshot knows. *)
  let diff ~before ~after =
    let counters = diff ~before:before.counters ~after:after.counters in
    let histograms =
      List.filter_map
        (fun ha ->
          let h0 =
            List.find_opt (fun h -> String.equal h.hname ha.hname)
              before.histograms
          in
          let count0, sum0, buckets0 =
            match h0 with
            | None -> (0, 0L, [])
            | Some h -> (h.count, h.sum_ns, h.buckets)
          in
          let count = ha.count - count0 in
          if count <= 0 then None
          else
            Some
              (histo ~hname:ha.hname ~count ~sum_ns:(Int64.sub ha.sum_ns sum0)
                 ~max_ns:ha.max_ns
                 (List.filter_map
                    (fun (u, n) ->
                      let n0 =
                        Option.value (List.assoc_opt u buckets0) ~default:0
                      in
                      if n - n0 > 0 then Some (u, n - n0) else None)
                    ha.buckets)))
        after.histograms
    in
    {
      taken_ns = after.taken_ns;
      uptime_s = after.uptime_s -. before.uptime_s;
      rss_bytes = after.rss_bytes;
      active_spans = after.active_spans;
      counters;
      gauges = after.gauges;
      histograms;
    }

  (* Prometheus text exposition: a sanitized [xbound_]-prefixed metric
     per counter (`_total`), gauge, and histogram (cumulative `le`
     buckets + `_sum`/`_count`; nanosecond histograms exported in
     seconds per Prometheus base-unit convention). *)
  let metric_name s =
    let b = Bytes.of_string s in
    Bytes.iteri
      (fun i c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> ()
        | _ -> Bytes.set b i '_')
      b;
    "xbound_" ^ Bytes.to_string b

  let to_prometheus t =
    let b = Buffer.create 4096 in
    let gauge name v =
      Buffer.add_string b (Printf.sprintf "# TYPE %s gauge\n%s %s\n" name name v)
    in
    gauge "xbound_uptime_seconds" (Printf.sprintf "%.6f" t.uptime_s);
    gauge "xbound_rss_bytes" (string_of_int t.rss_bytes);
    gauge "xbound_active_spans" (string_of_int t.active_spans);
    List.iter
      (fun (name, v) ->
        let m = metric_name name ^ "_total" in
        Buffer.add_string b
          (Printf.sprintf "# TYPE %s counter\n%s %d\n" m m v))
      t.counters;
    List.iter
      (fun (name, v) -> gauge (metric_name name) (string_of_int v))
      t.gauges;
    List.iter
      (fun h ->
        let in_seconds = String.ends_with ~suffix:"_ns" h.hname in
        let m =
          if in_seconds then
            metric_name
              (String.sub h.hname 0 (String.length h.hname - 3) ^ "_seconds")
          else metric_name h.hname
        in
        Buffer.add_string b (Printf.sprintf "# TYPE %s histogram\n" m);
        let le upper =
          if in_seconds then
            Printf.sprintf "%.9g" (Int64.to_float upper /. 1e9)
          else Int64.to_string upper
        in
        let cum = ref 0 in
        List.iter
          (fun (upper, n) ->
            cum := !cum + n;
            Buffer.add_string b
              (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" m (le upper) !cum))
          h.buckets;
        Buffer.add_string b
          (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" m h.count);
        if in_seconds then
          Buffer.add_string b
            (Printf.sprintf "%s_sum %.9f\n" m
               (Int64.to_float h.sum_ns /. 1e9))
        else
          Buffer.add_string b (Printf.sprintf "%s_sum %Ld\n" m h.sum_ns);
        Buffer.add_string b (Printf.sprintf "%s_count %d\n" m h.count))
      t.histograms;
    Buffer.contents b
end
