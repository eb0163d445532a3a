(** Bounded two-class admission queue for the serve daemon.

    Requests are admitted into one of two FIFO queues — interactive or
    batch — sharing one capacity bound. Executors always drain
    interactive work first. When the bound is hit, {!submit} rejects
    immediately (the caller turns that into the 429-style
    [Xbound.Error.Overloaded] response) instead of letting latency grow
    without bound. *)

type job = { priority : Wire.priority; run : unit -> unit }
type t

val create : capacity:int -> t

(** Queue depth right now (both classes). *)
val depth : t -> int

val capacity : t -> int

(** [Error depth] when the queue is full (reporting the depth seen), or
    after {!stop}. *)
val submit : t -> job -> (unit, int) Stdlib.result

(** [submit_background t ~key run] queues [run] as batch work that no
    client waits for, unless a job with the same [key] is still queued
    or running, the queue is full, or [t] is stopped; [true] when it
    was queued. The key is released when [run] returns or raises. *)
val submit_background : t -> key:string -> (unit -> unit) -> bool

(** Blocks until a job is available (interactive before batch) or the
    scheduler is stopped; [None] means stop — the executor should
    exit. *)
val next : t -> job option

(** Wakes every blocked {!next} with [None] and makes further
    {!submit}s fail. Queued jobs are dropped. Idempotent. *)
val stop : t -> unit
