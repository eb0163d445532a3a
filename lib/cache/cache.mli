(** Content-addressed, two-layer analysis result cache.

    The analysis pipeline is deterministic in its inputs — an assembled
    binary image, a netlist/power context, and a handful of knobs — so
    every result can be memoized under a digest of exactly those inputs.
    This module provides the substrate:

    - an {e in-memory LRU layer} shared across the domain pool, with
      {e single-flight} semantics: concurrent requests for the same key
      block on the one in-flight computation instead of duplicating it;
    - an optional {e persistent disk layer}: entries are written
      atomically (write-to-temp then rename) in a versioned container
      format with an embedded payload digest, and any unreadable, stale
      or corrupted entry is treated as a miss — never a crash. Entries
      are {e sharded} by the first two hex digits of their key
      ([dir/ab/<ns>.abcd….v1]) so concurrent writers spread over 256
      subdirectories.

    Typing discipline: {!memo} stores values via [Marshal], so the
    [ns] (namespace) string given to [memo] must uniquely determine the
    stored type, and {!format_version} / the caller's own version
    component of the key must be bumped whenever a stored type or the
    semantics producing it change. All keys in this repository come
    from [Core.Key], which keys on
    (image, netlist, config, analysis version). *)

module Key : sig
  (** A stable content digest in lowercase hex. *)
  type t = string

  (** Digest of a string. *)
  val of_string : string -> t

  (** Digest of any marshalable value (its [Marshal] image). *)
  val of_value : 'a -> t

  (** Order-sensitive combination of components. *)
  val combine : string list -> t
end

(** Bumped when the on-disk container layout changes; stale containers
    load as misses. *)
val format_version : int

type counters = {
  mutable mem_hits : int;  (** served from the in-memory LRU *)
  mutable disk_hits : int;  (** deserialized from the disk layer *)
  mutable misses : int;  (** computed fresh *)
  mutable stores : int;  (** entries written to disk *)
  mutable evictions : int;  (** LRU entries dropped for capacity *)
  mutable corrupt : int;  (** unreadable disk entries discarded *)
  mutable store_errors : int;
      (** disk writes that failed (full disk, unwritable directory); the
          value is still returned *)
  mutable joined : int;  (** single-flight waits on another computation *)
}

type t

(** [create ?dir ?mem_entries ()] — a cache with an in-memory LRU of at
    most [mem_entries] values (default 64) and, when [dir] is given, a
    persistent layer in that directory (created on demand). Without
    [dir] the cache is memory-only. *)
val create : ?dir:string -> ?mem_entries:int -> unit -> t

(** The disk directory, if persistent. *)
val dir : t -> string option

(** The standard persistent location: [$XBOUND_CACHE_DIR], else
    [$XDG_CACHE_HOME/xbound], else [$HOME/.cache/xbound], else
    [_xbound_cache] in the working directory. *)
val default_dir : unit -> string

(** [memo t ~ns ~key f] — the cached value for [(ns, key)]: from the
    memory LRU, else from the disk layer, else computed by [f ()]; a
    loaded or computed value is then kept in memory and (when
    persistent) a computed one is written to disk. Safe to call
    concurrently from any domain; concurrent calls for the same
    [(ns, key)] run [f] once. Each call counts as exactly one of a
    memory hit, a single-flight join, a disk hit or a miss, except that
    when [f] raises, a waiter that then retries and computes also counts
    a miss: the exception propagates to the caller that ran [f], waiters
    retry (one of them becomes the new computer), and nothing is stored.
    A failed disk write is counted in [store_errors] and does not fail
    the call. *)
val memo : t -> ns:string -> key:Key.t -> (unit -> 'a) -> 'a

(** Live counters (aggregated across both layers). *)
val counters : t -> counters

val reset_counters : t -> unit

(** [(entries, bytes)] currently in the disk layer, summed across the
    shard subdirectories (0 when memory-only): the sum of
    {!disk_stats_by_ns}. *)
val disk_stats : t -> int * int

(** Per-namespace [(ns, (entries, bytes))] rows for the disk layer,
    sorted by namespace — the breakdown behind {!disk_stats}, so the
    [xbound cache stats] output can attribute entries to their kind
    ([analysis], [block]). Empty when memory-only. *)
val disk_stats_by_ns : t -> (string * (int * int)) list

(** [sum_rows rows] — the [(entries, bytes)] total of
    {!disk_stats_by_ns} rows. A caller that wants both the rows and the
    total walks the disk once and sums the rows it has. *)
val sum_rows : (string * (int * int)) list -> int * int

(** Drop every in-memory entry and delete every disk entry this cache
    format owns (files named [<ns>.<digest>.v<version>] in the shard
    subdirectories; emptied shard subdirectories are removed). *)
val clear : t -> unit
