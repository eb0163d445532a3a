(** Fixed-size domain pool for deterministic fork/join parallelism.

    The analysis pipeline is a collection of independent subproblems —
    execution-tree branches, even/odd power passes, per-benchmark
    experiments, GA fitness evaluations — whose results must be merged
    in a fixed order so every table, trace and bound is bit-identical to
    the sequential run. This module provides exactly that: a pool of
    [jobs - 1] worker domains with per-slot work-stealing deques,
    futures whose [await] {e helps} by executing queued tasks instead of
    blocking, and ordered-merge combinators ([both], [map_array],
    [map_list], [init_chunked]) that collect results in submission
    order.

    {b Slots.} Every domain that uses a pool owns one slot (a deque)
    of its own: slot 0 is the creating domain, slots [1 .. size-1] the
    worker domains, and any other submitting domain (such as one of
    [xbound serve]'s executor domains) is appended on its first
    {!Pool.register}, [async] or [await]. Workers steal from every slot.
    No two domains ever share a slot, so per-slot scratch state needs no
    lock.

    With [jobs = 1] no domains are spawned and [async] runs its closure
    inline and eagerly, so the side-effect order of unparallelized code
    is preserved exactly — the sequential fallback is the sequential
    code. *)

module Pool : sig
  type t

  (** [create ~jobs] spawns [max 1 jobs - 1] worker domains. The pool is
      shut down automatically at process exit. *)
  val create : jobs:int -> t

  (** Total workers including the creating domain; [size t = 1] means
      fully sequential. *)
  val size : t -> int

  (** Number of slots right now: [size t] plus one per other domain that
      has registered. It only grows. *)
  val slots : t -> int

  (** [register t] gives the calling domain a slot of its own in [t] if
      it has none yet. Idempotent. [async] and [await] register
      implicitly; a domain that will submit later registers up front so
      its slot exists before other domains size per-slot state by
      {!slots}. *)
  val register : t -> unit

  (** Number of queued (submitted, not yet dequeued) tasks right now.
      Racy by nature — a cheap load of the pending counter, meant for
      spawn heuristics ("is the pool hungry?"), not synchronization. *)
  val queued : t -> int

  (** Number of dequeued tasks currently executing (on workers or inside
      a helping [await]). Same racy-gauge caveat as {!queued}; the serve
      layer samples it per request for utilization telemetry. *)
  val busy : t -> int

  (** Signals workers to stop (after draining their deques) and joins
      them. Idempotent. *)
  val shutdown : t -> unit

  (** The calling domain's slot: 0 for the creator, [1 .. size-1] for
      workers, [size ..] for registered submitters. Raises
      [Invalid_argument] on a domain that has no slot in the pool, rather
      than answering with another domain's slot. *)
  val worker_index : t -> int

  type 'a future

  (** [async p f] schedules [f] on the pool ([size p > 1]) or runs it
      inline immediately ([size p = 1]). Exceptions are captured and
      re-raised at [await]. *)
  val async : t -> (unit -> 'a) -> 'a future

  (** [await p fut] returns the future's value, executing other queued
      tasks while waiting (so nested fork/join never deadlocks). *)
  val await : t -> 'a future -> 'a

  (** [both p fa fb] runs the two thunks concurrently ([fa] on the pool,
      [fb] on the caller) and returns both results. Sequentially: [fa]
      first. *)
  val both : t -> (unit -> 'a) -> (unit -> 'b) -> 'a * 'b

  (** Ordered parallel map: results are in submission (= input) order
      regardless of execution order. *)
  val map_array : t -> ('a -> 'b) -> 'a array -> 'b array

  val map_list : t -> ('a -> 'b) -> 'a list -> 'b list

  (** [init_chunked p ~chunk n f] = [Array.init n f] evaluated in
      [chunk]-sized blocks across the pool ([f] must be pure or
      index-independent in its effects). *)
  val init_chunked : t -> chunk:int -> int -> (int -> 'a) -> 'a array
end

(** {1 Process-wide default pool}

    The [--jobs] flag sets the requested size once at startup; library
    code then picks the shared pool up ambiently via {!auto} without
    every call-site needing plumbing. *)

(** Requested job count: the last {!set_default_jobs} value, or
    [Domain.recommended_domain_count ()] if never set. *)
val default_jobs : unit -> int

(** [set_default_jobs j] fixes the default pool size to [max 1 j]. If a
    default pool of a different size already exists it is shut down and
    recreated lazily. Safe to call from any domain. *)
val set_default_jobs : int -> unit

(** The lazily-created process-wide pool of {!default_jobs} workers.
    Domains that race to create it get the same pool. *)
val default_pool : unit -> Pool.t

(** [auto ()] is [Some (default_pool ())] when parallelism is enabled
    ([default_jobs () > 1]), [None] for sequential runs. *)
val auto : unit -> Pool.t option

(** {1 Ambient convenience wrappers} — sequential when [auto () = None]. *)

val both_auto : (unit -> 'a) -> (unit -> 'b) -> 'a * 'b
val map_list_auto : ('a -> 'b) -> 'a list -> 'b list
val map_array_auto : ('a -> 'b) -> 'a array -> 'b array

(** Chunked ambient map for cheap per-element work (per-cycle power
    evaluation): falls back to [Array.map] below [2 * chunk] elements.
    [f] must be pure. *)
val chunked_map_auto : ?chunk:int -> ('a -> 'b) -> 'a array -> 'b array

(** {1 Identity memo} *)

(** [identity_memo f] — [f], memoized by the physical identity of its
    argument. It keeps the few most recently computed results (so the
    two power contexts of one CPU that [Report.Context] keeps live do
    not evict each other). Safe to call from any thread or domain; a
    concurrent recompute is harmless (the last write wins, and [f] must
    be deterministic). Entries keep their argument alive. *)
val identity_memo : ('a -> 'b) -> 'a -> 'b
