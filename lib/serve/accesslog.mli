(** Append-only JSONL sink for the daemon's per-request access log.

    One JSON object per line, written and flushed atomically under a
    mutex (reader threads and executor domains share the file). The
    server writes one entry per completed or rejected request; see
    {!Server} for the entry schema. *)

type t

(** Open (create or append) the log file. [Error] is the [Sys_error]
    message. *)
val open_ : string -> (t, string) Stdlib.result

(** Write one entry as a single line and flush. Write failures are
    swallowed: logging must never take the daemon down. *)
val write : t -> Explain.Ejson.t -> unit

val close : t -> unit
