(* Bounded two-priority FIFO under one mutex. See scheduler.mli. *)

type job = { priority : Wire.priority; run : unit -> unit }

type t = {
  cap : int;
  interactive : job Queue.t;
  batch : job Queue.t;
  background : (string, unit) Hashtbl.t;  (* keys queued or running *)
  m : Mutex.t;
  cv : Condition.t;
  mutable stopped : bool;
}

(* Live queue depth for the observability surface. One process-wide
   gauge is enough: the daemon runs one scheduler. (The histogram
   [serve.queue_depth] samples depth at admission; the gauge is the
   instantaneous value a snapshot reports.) *)
let g_queue_len = Telemetry.Gauge.make "serve.queue_len"

let create ~capacity =
  {
    cap = max 1 capacity;
    interactive = Queue.create ();
    batch = Queue.create ();
    background = Hashtbl.create 8;
    m = Mutex.create ();
    cv = Condition.create ();
    stopped = false;
  }

let depth_unlocked t = Queue.length t.interactive + Queue.length t.batch

let depth t =
  Mutex.lock t.m;
  let d = depth_unlocked t in
  Mutex.unlock t.m;
  d

let capacity t = t.cap

(* Under [t.m]. *)
let admit t job =
  Queue.push job
    (match job.priority with
    | Wire.Interactive -> t.interactive
    | Wire.Batch -> t.batch);
  Telemetry.Gauge.set g_queue_len (depth_unlocked t);
  Condition.signal t.cv

let submit t job =
  Mutex.lock t.m;
  let d = depth_unlocked t in
  let r =
    if t.stopped || d >= t.cap then Error d
    else begin
      admit t job;
      Ok ()
    end
  in
  Mutex.unlock t.m;
  r

let submit_background t ~key run =
  Mutex.protect t.m @@ fun () ->
  if t.stopped || depth_unlocked t >= t.cap || Hashtbl.mem t.background key
  then false
  else begin
    Hashtbl.replace t.background key ();
    let run () =
      Fun.protect run ~finally:(fun () ->
          Mutex.protect t.m (fun () -> Hashtbl.remove t.background key))
    in
    admit t { priority = Wire.Batch; run };
    true
  end

let next t =
  Mutex.lock t.m;
  while (not t.stopped) && depth_unlocked t = 0 do
    Condition.wait t.cv t.m
  done;
  let job =
    if t.stopped then None
    else if not (Queue.is_empty t.interactive) then
      Some (Queue.pop t.interactive)
    else Some (Queue.pop t.batch)
  in
  Telemetry.Gauge.set g_queue_len (depth_unlocked t);
  Mutex.unlock t.m;
  job

let stop t =
  Mutex.lock t.m;
  t.stopped <- true;
  Queue.clear t.interactive;
  Queue.clear t.batch;
  Hashtbl.reset t.background;
  Telemetry.Gauge.set g_queue_len 0;
  Condition.broadcast t.cv;
  Mutex.unlock t.m
