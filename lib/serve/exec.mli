(** The one executor behind every dispatch path: a {!Wire.Request.t} in,
    a {!Wire.Response.t} (or typed error) out, against an execution
    context. The CLI calls this directly for in-process runs; the daemon
    calls it from its executor domains with the shared context — which
    is exactly why CLI and daemon output are byte-identical. *)

(** Where background work goes: [queue ~key run] runs [run] later or
    drops it. The daemon queues it as scheduler batch work, one per
    [key]. [run] counts and reports its own failures. *)
type background = key:string -> (unit -> unit) -> unit

(** [exec ?background ~ctx req]. An [Analyze] at the Auto tier that
    answers from the static tier, with a cache configured, hands an
    exact-tier warm-up of the same program to [background], keyed by
    the program. The warm-up is {!guarded}. Without [background] (the
    in-process CLI) no warm-up is made. *)
val exec :
  ?background:background ->
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

(** [guarded ~what f] runs [f]; an exception from it is counted in
    [serve.background_errors] and reported via {!report_failure}
    instead of raised. Background work is wrapped in it. *)
val guarded : what:string -> (unit -> unit) -> unit -> unit
