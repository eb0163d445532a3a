(** Per-basic-block peak-power / energy characterization.

    Each block is analyzed in isolation by booting the processor with the
    reset vector re-pointed at the block start
    ({!Core.Analyze.run_fragment}): every register, the status register
    and all of RAM are X, so the block's cost is an upper bound over
    every machine state the block can actually be entered in (ternary
    simulation is monotone in X). The symbolic run ends at the first
    fetch outside [[b_start, b_limit)] — or as soon as the FSM state or
    the fetch PC goes X, which only happens past a ret-style terminator.

    The boot prefix (RESET/VECTOR cycles before the first fetch) is
    reported separately: the IPET combiner charges it once at the
    program entry, not per block.

    Results are content-addressed in {!Cache} under the ["block"]
    namespace, keyed ({!Core.Key.block}) on the netlist, the power
    context, the image words and the block extent — so re-analyzing a program (or any program
    sharing the image) reuses block characterizations. *)

type cost = {
  peak_w : float;  (** highest per-cycle maximized power in the block *)
  energy_j : float;  (** worst-case energy of one execution *)
  cycles : int;  (** worst-case cycle count of one execution *)
  boot_peak_w : float;
  boot_energy_j : float;
  boot_cycles : int;
  from_cache : bool;
}

(** The ["block"] cache namespace. *)
val cache_ns : string

(** End-of-fragment predicate for a block (exposed for tests). *)
val is_end_of_block : Cfg.block -> Gatesim.Trace.cycle -> bool

(** [characterize pa cpu img b] — the cost of one execution of [b] from
    the conservative all-X entry state. May raise
    {!Gatesim.Sym.Path_limit} if the block's symbolic exploration does
    not converge within the (generous) fragment limits. *)
val characterize :
  ?cache:Cache.t ->
  ?pool:Parallel.Pool.t ->
  ?max_cycles_per_path:int ->
  ?max_paths:int ->
  Poweran.t ->
  Cpu.t ->
  Isa.Asm.image ->
  Cfg.block ->
  cost
