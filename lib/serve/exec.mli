(** The one executor behind every dispatch path: a {!Wire.Request.t} in,
    a {!Wire.Response.t} (or typed error) out, against an execution
    context. The CLI calls this directly for in-process runs; the daemon
    calls it from its executor threads with the shared context — which
    is exactly why CLI and daemon output are byte-identical. *)

val exec :
  ctx:Xbound.Ctx.t ->
  Wire.Request.t ->
  (Wire.Response.t, Xbound.Error.t) Stdlib.result

(** Short span/metric label for a request (["analyze"], ["explain"],
    ...). *)
val op_name : Wire.Request.t -> string

(** The bound tier a request asks for, when it has one ([Analyze] and
    [Explain] do; everything else is [None]). Used for the server's
    per-tier traffic counters and the access log. *)
val tier_of_request : Wire.Request.t -> Xbound.Tier.t option

(** [report_failure counter ~what e] — bumps [counter] and writes one
    [xbound serve: <what> failed: <e>] line to stderr. For failures no
    caller is waiting for. *)
val report_failure : Telemetry.Counter.c -> what:string -> exn -> unit

(** [detach ~what f] runs [f] on a new thread that nobody joins (the
    Auto tier's background exact warm-up). An exception from [f] is
    counted in [serve.background_errors] and reported on stderr via
    {!report_failure}. *)
val detach : what:string -> (unit -> unit) -> Thread.t
