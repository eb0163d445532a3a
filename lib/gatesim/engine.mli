(** Levelized three-valued gate simulator (compiled kernel).

    [create] compiles the netlist into a flat struct-of-arrays gate
    program in level-partitioned topological order and packs net values
    into ternary bit-planes ({!Tri.Plane}), so the per-cycle hot path is
    a word-skipping scan over unboxed ints; change detection, activity
    marking and delta collection are word-wide passes. The same engine
    serves both concrete simulation
    (profiling baselines, validation) and symbolic simulation with X
    propagation (Algorithm 1) — the only difference is what the inputs
    and memory are driven with.

    A cycle is split in two phases so external memory can respond
    combinationally: {!begin_cycle} latches the flops, drives inputs,
    settles the fan-in of the memory address, read enable and fork net,
    performs the memory read and settles everything;
    {!finish_cycle} computes activity, samples probes, commits the
    memory write and advances time. Between the two, the driver may be
    told that the branch-decision net is X ([`Fork]) and must resolve it
    with {!force_fork} (possibly exploring both choices via
    {!snapshot}/{!restore}). *)

(** Net-id bindings of the processor's external interface and probes.
    Constructed by {!Cpu.build}. *)
type ports = {
  reset : int;
  port_in : int array;  (** peripheral input pins (X under symbolic sim) *)
  mem_addr : int array;
  mem_rdata : int array;  (** input nets driven from {!Mem} *)
  mem_wdata : int array;
  mem_ren : int;
  mem_wen : int;
  pc : int array;
  state : int array;
  ir : int array;
  fork_net : int option;  (** the jump-decision net; X here forks *)
}

type t

(** [create nl ~ports ~mem] — compile tables are memoized by netlist
    identity, so repeated creation over the same netlist (one engine per
    characterized block, one replica per worker domain) is cheap. *)
val create : Netlist.t -> ports:ports -> mem:Mem.t -> t

val netlist : t -> Netlist.t
val ports : t -> ports
val mem : t -> Mem.t
val cycle_index : t -> int

(** [set_reset t level] drives the reset input from the next cycle on. *)
val set_reset : t -> Tri.t -> unit

(** [set_port_in t trits] drives the peripheral input pins; default all
    X. *)
val set_port_in : t -> Tri.t array -> unit

val begin_cycle : t -> [ `Ok | `Fork ]

(** Only legal after [`Fork]; overrides the fork net and re-settles. *)
val force_fork : t -> Tri.t -> unit

val finish_cycle : t -> Trace.cycle

(** [step t] = [begin_cycle] + [finish_cycle]; raises [Failure] on
    [`Fork] (concrete runs must never fork). *)
val step : t -> Trace.cycle

(** [advance t] is {!step} without the cycle record: the cycle's deltas
    stay readable through {!last_deltas} until the next cycle starts,
    and nothing is allocated for them. For callers that only sum power
    over a run. *)
val advance : t -> unit

(** The packed deltas ({!Trace.pack}) of the last finished cycle, in
    the first {!last_delta_count} slots of an engine-owned scratch array
    that the next cycle overwrites — the [deltas] its record has. *)
val last_deltas : t -> int array

val last_delta_count : t -> int

(** [record t] — the record of the last finished cycle (what
    {!finish_cycle} returns): copies of its delta and X-active lists,
    and the probes sampled now. Valid until the next {!begin_cycle}. *)
val record : t -> Trace.cycle

(** Current value of an arbitrary net / bus. *)
val value : t -> int -> Tri.t

val sample : t -> int array -> Tri.Word.t

(** Digest of the architectural state (pending flop values, inputs,
    memory) — Algorithm 1's "(PC, processor state)" dedup key. Valid
    after {!finish_cycle}. O(1): a Zobrist hash maintained incrementally
    as flops, inputs and RAM words change. *)
val arch_digest : t -> string

(** Trit codes of all net values right now (used as a trace's initial
    vector). *)
val values_snapshot : t -> int array

type snapshot

(** Captures the simulator state (including the external drive levels);
    used at forks and to ship work to other domains. O(1): the state
    planes are frozen copy-on-write — the engine's next mutating call
    clones them, so the snapshot stays immutable for its lifetime. *)
val snapshot : t -> snapshot

(** O(1): adopts the snapshot's frozen planes (the engine's next
    mutating call clones). A snapshot may be restored any number of
    times, into any replica. *)
val restore : t -> snapshot -> unit

(** [create_like t] is a fresh engine sharing [t]'s immutable netlist,
    ports and ROM, with its own value/activity arrays and an all-X RAM —
    a worker-domain replica. Restoring any snapshot of [t] into it makes
    it behave identically to [t] at that point. *)
val create_like : t -> t

(** [of_snapshot t s] = [create_like t] + [restore] of [s]. *)
val of_snapshot : t -> snapshot -> t
