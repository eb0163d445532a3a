(* Content-addressed, two-layer (memory LRU + disk) result cache with
   single-flight memoization. See cache.mli for the contract. *)

module Key = struct
  type t = string

  let of_string s = Digest.to_hex (Digest.string s)
  let of_value v = Digest.to_hex (Digest.string (Marshal.to_string v []))
  let combine parts = of_string (String.concat "\x00" parts)
end

let format_version = 1
let magic = "XBCACHE\x01"

(* Telemetry mirrors of the per-cache counters (process-wide, no-ops
   unless a sink is installed), plus a histogram of how long callers
   block on another domain's in-flight computation. *)
let c_mem_hits = Telemetry.Counter.make "cache.mem_hits"
let c_disk_hits = Telemetry.Counter.make "cache.disk_hits"
let c_misses = Telemetry.Counter.make "cache.misses"
let c_stores = Telemetry.Counter.make "cache.stores"
let c_evictions = Telemetry.Counter.make "cache.evictions"
let c_corrupt = Telemetry.Counter.make "cache.corrupt"
let c_store_errors = Telemetry.Counter.make "cache.store_errors"
let c_joined = Telemetry.Counter.make "cache.joined"
let h_wait = Telemetry.Histogram.make "cache.wait_ns"

type counters = {
  mutable mem_hits : int;
  mutable disk_hits : int;
  mutable misses : int;
  mutable stores : int;
  mutable evictions : int;
  mutable corrupt : int;
  mutable store_errors : int;
  mutable joined : int;
}

(* Intrusive doubly-linked LRU list; [head] is most recently used. *)
type entry = {
  ekey : string;
  value : Obj.t;
  mutable prev : entry option;  (* toward head *)
  mutable next : entry option;  (* toward tail *)
}

type slot = Ready of entry | In_flight

type t = {
  dir_ : string option;
  capacity : int;
  table : (string, slot) Hashtbl.t;
  mutable head : entry option;
  mutable tail : entry option;
  mutable count : int;
  m : Mutex.t;
  cv : Condition.t;
  c : counters;
}

let create ?dir ?(mem_entries = 64) () =
  {
    dir_ = dir;
    capacity = max 1 mem_entries;
    table = Hashtbl.create 64;
    head = None;
    tail = None;
    count = 0;
    m = Mutex.create ();
    cv = Condition.create ();
    c =
      {
        mem_hits = 0;
        disk_hits = 0;
        misses = 0;
        stores = 0;
        evictions = 0;
        corrupt = 0;
        store_errors = 0;
        joined = 0;
      };
  }

let dir t = t.dir_
let counters t = t.c

(* One event, in the cache's counters and their telemetry mirror. *)
let bump t incr ctr =
  Mutex.lock t.m;
  incr t.c;
  Mutex.unlock t.m;
  Telemetry.Counter.incr ctr

let reset_counters t =
  Mutex.lock t.m;
  t.c.mem_hits <- 0;
  t.c.disk_hits <- 0;
  t.c.misses <- 0;
  t.c.stores <- 0;
  t.c.evictions <- 0;
  t.c.corrupt <- 0;
  t.c.store_errors <- 0;
  t.c.joined <- 0;
  Mutex.unlock t.m

let default_dir () =
  match Sys.getenv_opt "XBOUND_CACHE_DIR" with
  | Some d when d <> "" -> d
  | _ -> (
    match Sys.getenv_opt "XDG_CACHE_HOME" with
    | Some d when d <> "" -> Filename.concat d "xbound"
    | _ -> (
      match Sys.getenv_opt "HOME" with
      | Some h when h <> "" -> Filename.concat (Filename.concat h ".cache") "xbound"
      | _ -> "_xbound_cache"))

(* ---------------- LRU list (all under t.m) ---------------- *)

let unlink t e =
  (match e.prev with Some p -> p.next <- e.next | None -> t.head <- e.next);
  (match e.next with Some n -> n.prev <- e.prev | None -> t.tail <- e.prev);
  e.prev <- None;
  e.next <- None

let push_front t e =
  e.prev <- None;
  e.next <- t.head;
  (match t.head with Some h -> h.prev <- Some e | None -> t.tail <- Some e);
  t.head <- Some e

let touch t e =
  if t.head != Some e then begin
    unlink t e;
    push_front t e
  end

let insert_ready t full_key v =
  let e = { ekey = full_key; value = v; prev = None; next = None } in
  Hashtbl.replace t.table full_key (Ready e);
  push_front t e;
  t.count <- t.count + 1;
  while t.count > t.capacity do
    match t.tail with
    | None -> t.count <- t.capacity (* unreachable *)
    | Some victim ->
      unlink t victim;
      Hashtbl.remove t.table victim.ekey;
      t.count <- t.count - 1;
      t.c.evictions <- t.c.evictions + 1;
      Telemetry.Counter.incr c_evictions
  done

(* ---------------- disk layer ---------------- *)

let rec mkdir_p d =
  if d = "" || d = "/" || d = "." || Sys.file_exists d then ()
  else begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ -> ()
  end

(* Entries are sharded by the first two hex digits of the key
   (dir/ab/<ns>.abcd....v1), so 256 concurrent writers rename into 256
   directories instead of contending on one. *)
let shard_of key = if String.length key >= 2 then String.sub key 0 2 else "00"

let entry_name ~ns ~key = Printf.sprintf "%s.%s.v%d" ns key format_version

let entry_file dir ~ns ~key =
  Filename.concat (Filename.concat dir (shard_of key)) (entry_name ~ns ~key)

(* An on-disk entry is: magic, namespace (length-prefixed), the MD5 of
   the payload, then the marshaled payload. Anything that fails to read
   back — wrong magic, wrong namespace, digest mismatch, truncation,
   Marshal failure — is a miss; the bad file is deleted. *)
let disk_load t ~ns ~key =
  match t.dir_ with
  | None -> None
  | Some dir -> (
    let file = entry_file dir ~ns ~key in
    if not (Sys.file_exists file) then None
    else
      let parse ic =
        let len = in_channel_length ic in
        let m = really_input_string ic (String.length magic) in
        if m <> magic then failwith "bad magic";
        let nslen = input_binary_int ic in
        if nslen <> String.length ns then failwith "bad ns";
        let file_ns = really_input_string ic nslen in
        if file_ns <> ns then failwith "bad ns";
        let digest = really_input_string ic 16 in
        let header = String.length magic + 4 + nslen + 16 in
        let payload = really_input_string ic (len - header) in
        if Digest.string payload <> digest then failwith "bad digest";
        Marshal.from_string payload 0
      in
      match
        Telemetry.span ~cat:"cache" "cache.disk_load" (fun () ->
            In_channel.with_open_bin file parse)
      with
      | v -> Some v
      | exception _ ->
        (try Sys.remove file with Sys_error _ -> ());
        bump t (fun c -> c.corrupt <- c.corrupt + 1) c_corrupt;
        None)

(* Atomic publish: write the full entry to a temp file in the same
   directory, then rename over the final name. A concurrent reader sees
   either no file or a complete one. A full disk or an unwritable
   directory degrades to no persistence: the failure is counted in
   [store_errors] and the temp file removed. *)
let disk_store t ~ns ~key v =
  match t.dir_ with
  | None -> ()
  | Some dir -> (
    try
      Telemetry.span ~cat:"cache" "cache.disk_store" (fun () ->
          let file = entry_file dir ~ns ~key in
          let shard_dir = Filename.dirname file in
          mkdir_p shard_dir;
          let payload = Marshal.to_string v [] in
          let tmp = Filename.temp_file ~temp_dir:shard_dir "xbcache" ".tmp" in
          try
            Out_channel.with_open_bin tmp (fun oc ->
                output_string oc magic;
                output_binary_int oc (String.length ns);
                output_string oc ns;
                output_string oc (Digest.string payload);
                output_string oc payload);
            Sys.rename tmp file
          with e ->
            (try Sys.remove tmp with Sys_error _ -> ());
            raise e);
      bump t (fun c -> c.stores <- c.stores + 1) c_stores
    with Sys_error _ | Sys_blocked_io ->
      bump t (fun c -> c.store_errors <- c.store_errors + 1) c_store_errors)

let is_hex s =
  String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) s

let is_entry_name name =
  (* <ns>.<32-hex>.v<version> for the current format version *)
  match String.split_on_char '.' name with
  | [ _ns; digest; v ] ->
    v = Printf.sprintf "v%d" format_version
    && String.length digest = 32
    && is_hex digest
  | _ -> false

let is_shard_name name = String.length name = 2 && is_hex name

(* Every entry directory this cache format owns: the two-hex-digit
   shard subdirectories. *)
let entry_dirs dir =
  if not (Sys.file_exists dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter_map (fun name ->
           let sub = Filename.concat dir name in
           if
             is_shard_name name
             && (try Sys.is_directory sub with Sys_error _ -> false)
           then Some sub
           else None)

(* One row per entry kind ("analysis", "block"), keyed by the namespace
   component of the entry name, so `cache stats` can show where the
   bytes live and namespace-scoped semantics stay auditable. *)
let disk_stats_by_ns t =
  match t.dir_ with
  | None -> []
  | Some dir ->
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun d ->
        Array.iter
          (fun name ->
            if is_entry_name name then
              match String.split_on_char '.' name with
              | ns :: _ ->
                let sz =
                  try
                    In_channel.with_open_bin (Filename.concat d name)
                      in_channel_length
                  with Sys_error _ -> 0
                in
                let n0, b0 =
                  Option.value (Hashtbl.find_opt tbl ns) ~default:(0, 0)
                in
                Hashtbl.replace tbl ns (n0 + 1, b0 + sz)
              | [] -> ())
          (Sys.readdir d))
      (entry_dirs dir);
    Hashtbl.fold (fun ns stats acc -> (ns, stats) :: acc) tbl []
    |> List.sort compare

let sum_rows rows =
  List.fold_left
    (fun (n, bytes) (_, (n', bytes')) -> (n + n', bytes + bytes'))
    (0, 0) rows

let disk_stats t = sum_rows (disk_stats_by_ns t)

let clear t =
  (match t.dir_ with
  | Some dir ->
    List.iter
      (fun d ->
        Array.iter
          (fun name ->
            if is_entry_name name then
              try Sys.remove (Filename.concat d name) with Sys_error _ -> ())
          (Sys.readdir d);
        (* drop shard directories once empty *)
        try Sys.rmdir d with Sys_error _ -> ())
      (entry_dirs dir)
  | None -> ());
  Mutex.lock t.m;
  Hashtbl.reset t.table;
  t.head <- None;
  t.tail <- None;
  t.count <- 0;
  Mutex.unlock t.m

(* ---------------- memoization ---------------- *)

(* Under t.m: either return the ready value, or claim the key for this
   caller (returns None), waiting out any other domain's in-flight
   computation first. *)
let acquire t full_key =
  let waited = ref false in
  let wait_t0 = ref 0L in
  let observe_wait () =
    if !waited && Telemetry.enabled () then
      Telemetry.Histogram.observe h_wait (Int64.sub (Telemetry.now_ns ()) !wait_t0)
  in
  let rec go () =
    match Hashtbl.find_opt t.table full_key with
    | Some (Ready e) ->
      touch t e;
      (* a caller that waited is already counted in [joined]; the
         counters partition memo calls *)
      if not !waited then begin
        t.c.mem_hits <- t.c.mem_hits + 1;
        Telemetry.Counter.incr c_mem_hits
      end
      else observe_wait ();
      Some e.value
    | Some In_flight ->
      if not !waited then begin
        waited := true;
        if Telemetry.enabled () then wait_t0 := Telemetry.now_ns ();
        t.c.joined <- t.c.joined + 1;
        Telemetry.Counter.incr c_joined
      end;
      Condition.wait t.cv t.m;
      go ()
    | None ->
      observe_wait ();
      Hashtbl.replace t.table full_key In_flight;
      None
  in
  go ()

let publish t full_key v =
  Mutex.lock t.m;
  (* In_flight -> Ready; count the slot only once. *)
  (match Hashtbl.find_opt t.table full_key with
  | Some In_flight -> Hashtbl.remove t.table full_key
  | _ -> ());
  insert_ready t full_key v;
  Condition.broadcast t.cv;
  Mutex.unlock t.m

let abandon t full_key =
  Mutex.lock t.m;
  (match Hashtbl.find_opt t.table full_key with
  | Some In_flight -> Hashtbl.remove t.table full_key
  | _ -> ());
  Condition.broadcast t.cv;
  Mutex.unlock t.m

let memo t ~ns ~key f =
  let full_key = ns ^ ":" ^ key in
  Mutex.lock t.m;
  match acquire t full_key with
  | Some v ->
    Mutex.unlock t.m;
    Obj.obj v
  | None -> (
    Mutex.unlock t.m;
    match disk_load t ~ns ~key with
    | Some v ->
      bump t (fun c -> c.disk_hits <- c.disk_hits + 1) c_disk_hits;
      publish t full_key (Obj.repr v);
      v
    | None -> (
      bump t (fun c -> c.misses <- c.misses + 1) c_misses;
      match f () with
      | v ->
        disk_store t ~ns ~key v;
        publish t full_key (Obj.repr v);
        v
      | exception e ->
        abandon t full_key;
        raise e))
