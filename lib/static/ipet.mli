(** The static-tier combiner: whole-program bounds from per-block costs.

    An ILP-free rendition of implicit path enumeration: the CFG is
    partitioned into functions (call-graph processed bottom-up, so a
    call block absorbs its callee's summary), natural loops are detected
    from dominators and collapsed innermost-first into supernodes whose
    cost is [loop_bound + 1] times the worst iteration, and the
    resulting DAG is solved by longest-path dynamic programming — once
    maximizing energy, once maximizing cycles. The peak-power bound is
    simply the maximum per-cycle bound over every reachable block.

    Soundness: every concrete execution maps to a path in the collapsed
    DAG whose energy/cycle totals dominate it, because (a) block costs
    are upper bounds from the all-X entry state, (b) the exact tier's
    per-state revisit budget never exceeds [loop_bound] iterations while
    the DP charges [loop_bound + 1], and (c) fork arms are maximized
    independently. The static bound therefore always dominates the exact
    bound for the same [loop_bound]. *)

type row = {
  r_start : int;
  r_limit : int;
  r_label : string;  (** terminator, for provenance display *)
  r_insns : int;
  r_iters : int;  (** execution-count multiplier from enclosing loops *)
  r_cycles : int;  (** worst-case cycles of one execution *)
  r_peak_w : float;
  r_energy_j : float;
  r_cached : bool;  (** characterization served from the block cache *)
}

type t = {
  s_name : string;
  s_peak_power_w : float;
  s_peak_energy_j : float;
  s_cycle_bound : int;
  s_blocks : int;
  s_loops : int;
  s_cached_blocks : int;
  s_rows : row list;  (** sorted by [r_start] *)
}

(** [analyze ~loop_bound pa cpu img] — extract the CFG, characterize
    every reachable block, and combine. [Error] carries the CFG or
    structure defect that makes the program statically unboundable. May
    raise {!Gatesim.Sym.Path_limit} if a single block fails to converge.

    [pool] defaults to the ambient {!Parallel.auto} pool; reachable
    blocks are characterized as independent pool tasks (results merged
    by block start, so the output is bit-identical at any job count). *)
val analyze :
  ?cache:Cache.t ->
  ?pool:Parallel.Pool.t ->
  ?name:string ->
  loop_bound:int ->
  Poweran.t ->
  Cpu.t ->
  Isa.Asm.image ->
  (t, Cfg.error) result

val to_table : t -> string

(** One-line JSON object. Bounds print in the shortest form that parses
    back to the same float, so a consumer reads the exact bound. *)
val to_json : t -> string

val to_csv : t -> string
