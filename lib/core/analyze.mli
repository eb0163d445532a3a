(** End-to-end driver: application binary + processor netlist ->
    guaranteed application-specific peak power and energy requirements
    (the tool of the paper's Figure 3.1). *)

type config = {
  revisit_limit : int;
      (** extra explorations allowed per already-seen state *)
  loop_bound : int;  (** Seen-edge unroll bound for energy analysis *)
  max_paths : int;
  max_cycles_per_path : int;
}

val default_config : config

type t = {
  image : Isa.Asm.image;
  tree : Gatesim.Trace.tree;
  sym_stats : Gatesim.Sym.stats;
  flattened : Gatesim.Trace.cycle array;
  power_trace : float array;  (** per-cycle peak power bound, W *)
  peak_power : float;  (** W — guaranteed for all inputs *)
  peak_index : int;
  peak_energy : Peak_energy.result;
}

(** Standard power-analysis context for a built CPU: 100 MHz, the
    default library, memory-bus capacitance on the external pins and
    the multiplier-array wire scale (see DESIGN.md calibration notes). *)
val poweran_for : ?lib:Stdcell.t -> ?period:float -> Cpu.t -> Poweran.t

(** {1 Constant nets}

    {!Netlist.Specialize} depends only on the netlist and the reset
    protocol, so one result serves every report over a CPU; it is
    memoized by CPU identity ({!Parallel.identity_memo}) and computed
    under a ["specialize"] telemetry span. *)

(** The memoized specialization of a CPU's netlist. *)
val specialization_for : Cpu.t -> Netlist.Specialize.t

(** [folded_pred cpu net] — true when [net] is proven constant (the
    [Explain] "constant" gate class). *)
val folded_pred : Cpu.t -> int -> bool

(** [run pa cpu image] — Algorithm 1 (symbolic execution) followed by
    the Section 3.2/3.3 computations. [pool] (default: the ambient
    {!Parallel.auto} pool) parallelizes the tree exploration; the result
    is bit-identical at any job count. With [cache], the whole result
    is memoized as one ["analysis"] entry under {!Key.analysis}; cached
    results are bit-identical to fresh ones. *)
val run :
  ?config:config ->
  ?pool:Parallel.Pool.t ->
  ?cache:Cache.t ->
  Poweran.t ->
  Cpu.t ->
  Isa.Asm.image ->
  t

(** [run_fragment ~is_end ~entry cpu image] — symbolic execution of a
    program fragment: the reset vector is re-pointed at [entry] and the
    machine boots straight into it, so the fragment is explored from the
    conservative all-X entry state (every register, SR and RAM word is
    X; only the PC resets). The static tier characterizes each basic
    block this way; [is_end] decides where the fragment stops (typically
    the first fetch outside the block). *)
val run_fragment :
  ?pool:Parallel.Pool.t ->
  is_end:(Gatesim.Trace.cycle -> bool) ->
  max_cycles_per_path:int ->
  max_paths:int ->
  Cpu.t ->
  Isa.Asm.image ->
  entry:int ->
  Gatesim.Trace.tree * Gatesim.Sym.stats

(** [run_concrete pa cpu image ~inputs] — a concrete (input-based)
    execution for profiling; [inputs] are [(address, words)] pokes into
    RAM over a zeroed RAM. Returns the observed per-cycle power trace
    (its length is the cycle count), summed from the engine's scratch
    deltas: no cycle record is built. Raises [Failure] if an X reaches
    the branch decision and {!Gatesim.Sym.Path_limit} past 200 000
    cycles. *)
val run_concrete :
  Poweran.t ->
  Cpu.t ->
  Isa.Asm.image ->
  inputs:(int * int list) list ->
  float array

(** [run_concrete_records cpu image ~inputs] — the same run keeping
    every cycle record, for validation against the symbolic tree;
    [Poweran.trace_power ~mode:`Observed] over them is {!run_concrete}'s
    trace, bit for bit. *)
val run_concrete_records :
  Cpu.t ->
  Isa.Asm.image ->
  inputs:(int * int list) list ->
  Gatesim.Trace.cycle array

(** Cycles of interest of an analysis (Section 3.5). *)
val cois : ?top:int -> ?min_gap:int -> Poweran.t -> t -> Coi.t list
