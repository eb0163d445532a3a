(* Domain pool with per-slot work-stealing deques and helping futures.

   Design notes:
   - Each slot owns a deque. Slot 0 is the creating domain, slots
     [1, size) are the worker domains, and every other domain that
     submits or awaits gets a slot of its own on first use (the daemon's
     executor domains register as they start). No two domains share a
     slot, so slot-indexed scratch state (Gatesim.Sym's engines) is only
     ever touched by one domain. Workers steal from every slot.
   - The owner pushes and pops at the tail (LIFO — depth-first,
     cache-warm); thieves steal at the head (FIFO — the oldest task is
     the biggest unexplored subtree). A plain mutex per deque is fine:
     one lock acquisition costs nanoseconds against the microseconds to
     milliseconds of simulating even one gate-level cycle.
   - [await] helps: while its future is pending it pops/steals and runs
     other tasks, so nested fork/join (a task awaiting its own spawned
     subtasks) can never deadlock and idle time goes to useful work.
   - A worker with an empty deque and nothing to steal sleeps on the
     pool condvar; [submit] signals it. The [pending] counter is the
     sleep/wake predicate, so a task can never be queued while every
     worker sleeps. *)

type task = unit -> unit

(* Pool observability (all no-ops unless a Telemetry sink is installed):
   spawn = task queued, steal = task taken from another worker's deque,
   join = an [await] satisfied, inline = sequential-fallback execution.
   Each executed task is additionally recorded as a "pool"-category span,
   which is what per-domain utilization is derived from. *)
let c_spawn = Telemetry.Counter.make "pool.spawn"
let c_steal = Telemetry.Counter.make "pool.steal"
let c_join = Telemetry.Counter.make "pool.join"
let c_inline = Telemetry.Counter.make "pool.inline"
let run_task t = Telemetry.span ~cat:"pool" "task" t

module Deque = struct
  type t = {
    mutable buf : task option array;  (* circular, power-of-two length *)
    mutable head : int;  (* next steal slot; monotonically increasing *)
    mutable tail : int;  (* next push slot *)
    lock : Mutex.t;
  }

  let create () =
    { buf = Array.make 64 None; head = 0; tail = 0; lock = Mutex.create () }

  let grow d =
    let n = Array.length d.buf in
    let nb = Array.make (2 * n) None in
    for i = d.head to d.tail - 1 do
      nb.(i land ((2 * n) - 1)) <- d.buf.(i land (n - 1))
    done;
    d.buf <- nb

  let push d t =
    Mutex.lock d.lock;
    if d.tail - d.head = Array.length d.buf then grow d;
    d.buf.(d.tail land (Array.length d.buf - 1)) <- Some t;
    d.tail <- d.tail + 1;
    Mutex.unlock d.lock

  (* Owner end: newest task. *)
  let pop d =
    Mutex.lock d.lock;
    let r =
      if d.tail = d.head then None
      else begin
        d.tail <- d.tail - 1;
        let i = d.tail land (Array.length d.buf - 1) in
        let t = d.buf.(i) in
        d.buf.(i) <- None;
        t
      end
    in
    Mutex.unlock d.lock;
    r

  (* Thief end: oldest task. *)
  let steal d =
    Mutex.lock d.lock;
    let r =
      if d.tail = d.head then None
      else begin
        let i = d.head land (Array.length d.buf - 1) in
        let t = d.buf.(i) in
        d.buf.(i) <- None;
        d.head <- d.head + 1;
        t
      end
    in
    Mutex.unlock d.lock;
    r
end

module Pool = struct
  type t = {
    id : int;
    size : int;
    slots : Deque.t array Atomic.t;
        (* one deque per slot; only ever replaced by a longer copy that
           keeps every existing deque, under [reg] *)
    reg : Mutex.t;
    mutable domains : unit Domain.t array;
    m : Mutex.t;
    cv : Condition.t;
    pending : int Atomic.t;  (* queued (not yet dequeued) tasks *)
    running : int Atomic.t;  (* dequeued tasks currently executing *)
    stop : bool Atomic.t;
  }

  let ids = Atomic.make 0

  (* Which slot of which pool the current domain occupies. A domain can
     appear in several pools (the main domain creates them all), hence
     an assoc list keyed by pool id. *)
  let slot_key : (int * int) list ref Domain.DLS.key =
    Domain.DLS.new_key (fun () -> ref [])

  let bind pool idx =
    let r = Domain.DLS.get slot_key in
    r := (pool.id, idx) :: !r

  let own_slot pool = List.assoc_opt pool.id !(Domain.DLS.get slot_key)

  (* The calling domain's slot, appending a fresh deque the first time
     this domain touches the pool. *)
  let slot pool =
    match own_slot pool with
    | Some i -> i
    | None ->
      let i =
        Mutex.protect pool.reg (fun () ->
            let ds = Atomic.get pool.slots in
            Atomic.set pool.slots (Array.append ds [| Deque.create () |]);
            Array.length ds)
      in
      bind pool i;
      i

  let register pool = ignore (slot pool)

  let worker_index pool =
    match own_slot pool with
    | Some i -> i
    | None ->
      invalid_arg
        "Parallel.Pool.worker_index: the calling domain has no slot in this \
         pool"

  let size t = t.size
  let slots t = Array.length (Atomic.get t.slots)
  let queued t = Atomic.get t.pending
  let busy t = Atomic.get t.running

  (* Every dequeued task runs through here, whether a worker took it or
     an [await] helped with it, so [busy] counts them all. *)
  let run_counted pool run_task t =
    Atomic.incr pool.running;
    Fun.protect ~finally:(fun () -> Atomic.decr pool.running) (fun () ->
        run_task t)

  (* Own deque first (LIFO), then sweep every other slot (FIFO steal). *)
  let find_task pool me =
    let ds = Atomic.get pool.slots in
    let t =
      match Deque.pop ds.(me) with
      | Some _ as t -> t
      | None ->
        let n = Array.length ds in
        let rec scan k =
          if k = n then None
          else
            match Deque.steal ds.((me + k) mod n) with
            | Some _ as t ->
              Telemetry.Counter.incr c_steal;
              t
            | None -> scan (k + 1)
        in
        scan 1
    in
    (match t with Some _ -> Atomic.decr pool.pending | None -> ());
    t

  let worker pool idx () =
    bind pool idx;
    let rec loop () =
      match find_task pool idx with
      | Some t ->
        (try run_counted pool run_task t with _ -> ());
        loop ()
      | None ->
        if not (Atomic.get pool.stop) then begin
          Mutex.lock pool.m;
          while (not (Atomic.get pool.stop)) && Atomic.get pool.pending = 0 do
            Condition.wait pool.cv pool.m
          done;
          Mutex.unlock pool.m;
          loop ()
        end
    in
    loop ()

  let shutdown pool =
    if not (Atomic.get pool.stop) then begin
      Atomic.set pool.stop true;
      Mutex.lock pool.m;
      Condition.broadcast pool.cv;
      Mutex.unlock pool.m;
      Array.iter Domain.join pool.domains;
      pool.domains <- [||]
    end

  let create ~jobs =
    let size = max 1 jobs in
    let pool =
      {
        id = Atomic.fetch_and_add ids 1;
        size;
        slots = Atomic.make (Array.init size (fun _ -> Deque.create ()));
        reg = Mutex.create ();
        domains = [||];
        m = Mutex.create ();
        cv = Condition.create ();
        pending = Atomic.make 0;
        running = Atomic.make 0;
        stop = Atomic.make false;
      }
    in
    bind pool 0;
    if size > 1 then
      pool.domains <-
        Array.init (size - 1) (fun i -> Domain.spawn (worker pool (i + 1)));
    (* Workers must be joined before the runtime tears down. *)
    at_exit (fun () -> shutdown pool);
    pool

  type 'a state =
    | Pending
    | Done of 'a
    | Err of exn * Printexc.raw_backtrace

  type 'a future = { mutable st : 'a state; fm : Mutex.t; fc : Condition.t }

  let fulfil fut st =
    Mutex.lock fut.fm;
    fut.st <- st;
    Condition.broadcast fut.fc;
    Mutex.unlock fut.fm

  let submit pool task =
    Telemetry.Counter.incr c_spawn;
    (* Carry the submitting thread's request scope (or its absence)
       into whichever worker runs the task, so telemetry fired on
       behalf of a request stays attributed to it — and a helping
       worker's own scope never bleeds into someone else's task. *)
    let binding = Telemetry.Scope.active () in
    let task () = Telemetry.Scope.with_binding binding task in
    let me = slot pool in
    Deque.push (Atomic.get pool.slots).(me) task;
    Atomic.incr pool.pending;
    Mutex.lock pool.m;
    Condition.signal pool.cv;
    Mutex.unlock pool.m

  let run_to_state f =
    try Done (f ()) with e -> Err (e, Printexc.get_raw_backtrace ())

  let async pool f =
    if pool.size <= 1 then begin
      (* Sequential fallback: run inline and eagerly, preserving the
         exact side-effect order of the unparallelized code. *)
      Telemetry.Counter.incr c_inline;
      { st = run_to_state f; fm = Mutex.create (); fc = Condition.create () }
    end
    else begin
      let fut = { st = Pending; fm = Mutex.create (); fc = Condition.create () } in
      submit pool (fun () -> fulfil fut (run_to_state f));
      fut
    end

  let is_pending fut = match fut.st with Pending -> true | _ -> false

  let rec await_loop pool fut =
    match fut.st with
    (* Unsynchronized peek: a stale [Pending] just sends us through the
       locked path below. *)
    | Done v -> v
    | Err (e, bt) -> Printexc.raise_with_backtrace e bt
    | Pending -> (
      match find_task pool (slot pool) with
      | Some t ->
        run_counted pool run_task t;
        await_loop pool fut
      | None ->
        (* Nothing to help with. The future's own task is necessarily
           held by another worker (it was in our deque or stolen), so
           blocking is deadlock-free. *)
        Mutex.lock fut.fm;
        while is_pending fut do
          Condition.wait fut.fc fut.fm
        done;
        Mutex.unlock fut.fm;
        await_loop pool fut)

  let await pool fut =
    Telemetry.Counter.incr c_join;
    await_loop pool fut

  let both pool fa fb =
    let fut = async pool fa in
    let b = fb () in
    let a = await pool fut in
    (a, b)

  let map_array pool f xs =
    if pool.size <= 1 then Array.map f xs
    else begin
      let futs = Array.map (fun x -> async pool (fun () -> f x)) xs in
      Array.map (fun fut -> await pool fut) futs
    end

  let map_list pool f xs =
    if pool.size <= 1 then List.map f xs
    else begin
      let futs = List.map (fun x -> async pool (fun () -> f x)) xs in
      List.map (fun fut -> await pool fut) futs
    end

  let init_chunked pool ~chunk n f =
    let chunk = max 1 chunk in
    if pool.size <= 1 || n <= chunk then Array.init n f
    else begin
      let nchunks = (n + chunk - 1) / chunk in
      let parts =
        map_array pool
          (fun ci ->
            let lo = ci * chunk in
            let hi = min n (lo + chunk) in
            Array.init (hi - lo) (fun k -> f (lo + k)))
          (Array.init nchunks (fun i -> i))
      in
      Array.concat (Array.to_list parts)
    end
end

(* ---- process-wide default pool ---- *)

(* Executor domains ask for the pool on their first requests at once:
   creation and replacement happen under [default_m], so exactly one
   pool is ever live and none leaks its worker domains. Reads stay
   lock-free. *)
let default_m = Mutex.create ()
let requested_jobs : int option Atomic.t = Atomic.make None
let the_pool : Pool.t option Atomic.t = Atomic.make None

let default_jobs () =
  match Atomic.get requested_jobs with
  | Some j -> j
  | None -> Domain.recommended_domain_count ()

let set_default_jobs j =
  let j = max 1 j in
  let stale =
    Mutex.protect default_m (fun () ->
        Atomic.set requested_jobs (Some j);
        match Atomic.get the_pool with
        | Some p when Pool.size p <> j ->
          Atomic.set the_pool None;
          Some p
        | _ -> None)
  in
  (* Joined outside the lock: a task still draining on the old pool may
     itself ask for the default pool. *)
  Option.iter Pool.shutdown stale

let default_pool () =
  match Atomic.get the_pool with
  | Some p -> p
  | None ->
    Mutex.protect default_m (fun () ->
        match Atomic.get the_pool with
        | Some p -> p
        | None ->
          let p = Pool.create ~jobs:(default_jobs ()) in
          Atomic.set the_pool (Some p);
          p)

let auto () =
  if default_jobs () <= 1 then None
  else
    let p = default_pool () in
    if Pool.size p > 1 then Some p else None

let both_auto fa fb =
  match auto () with
  | Some p -> Pool.both p fa fb
  | None ->
    let a = fa () in
    let b = fb () in
    (a, b)

let map_list_auto f xs =
  match auto () with Some p -> Pool.map_list p f xs | None -> List.map f xs

let map_array_auto f xs =
  match auto () with Some p -> Pool.map_array p f xs | None -> Array.map f xs

let chunked_map_auto ?(chunk = 128) f xs =
  let n = Array.length xs in
  match auto () with
  | Some p when n > 2 * chunk -> Pool.init_chunked p ~chunk n (fun i -> f xs.(i))
  | _ -> Array.map f xs

(* ---- identity memo ---- *)

(* Four entries: the netlists, CPUs or power contexts a process keeps
   live at once (two power contexts in [Report.Context]) plus room for a
   transient one, without a scan worth measuring. Hits never write, so readers on
   other domains do not contend. *)
let identity_memo f =
  let entries = Atomic.make [] in
  fun v ->
    let seen = Atomic.get entries in
    match List.assq_opt v seen with
    | Some d -> d
    | None ->
      let d = f v in
      Atomic.set entries ((v, d) :: List.filteri (fun i _ -> i < 3) seen);
      d
