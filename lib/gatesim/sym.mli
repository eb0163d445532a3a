(** Input-independent gate activity analysis (paper, Algorithm 1).

    Drives an {!Engine} through reset and then depth-first through every
    execution path of the application: straight-line cycles are
    simulated once; when the branch-decision net goes to X (an
    input-dependent branch reached the PC logic), the state is
    snapshotted and both choices are explored. A branch target whose
    post-branch architectural state has already been explored is not
    re-simulated (dedup on state digest), which terminates
    input-dependent loops. *)

type config = {
  is_end : Trace.cycle -> bool;
      (** has the application reached its halt self-jump? *)
  max_cycles_per_path : int;
  max_paths : int;
  revisit_limit : int;
      (** how many times a previously-seen state may be re-explored
          (bounded unrolling for input-dependent loops); 0 = always cut *)
}

val default_config : is_end:(Trace.cycle -> bool) -> config

type stats = {
  paths : int;
  forks : int;
  dedup_hits : int;
  total_cycles : int;  (** across all explored segments *)
}

exception Path_limit of string

(** [run ?pool engine config] — symbolic execution from reset to the end
    of every path. The engine must be fresh (cycle 0).

    Exploration is task-parallel: every fork arm is a stealable task
    (O(1) snapshot + O(1) dedup-overlay fork), and a task simulates its
    local branches one at a time on a per-worker scratch engine. Dedup
    decisions taken during exploration are speculative; a
    sequential commit walk then replays the tree in DFS order against
    an authoritative table — demoting over-explored arms and sequentially
    patching up under-explored ones — so the returned tree, registry,
    stats and limit raises are bit-identical to the sequential run
    regardless of [pool] size or scheduling. *)
val run : ?pool:Parallel.Pool.t -> Engine.t -> config -> Trace.tree * stats

(** [concrete engine ~is_end ~max_cycles on_cycle] — single-path
    concrete simulation from reset (profiling baseline / validation
    runs), keeping no cycle records. RAM should have been concretized
    first (see {!Mem.poke}); any X reaching the branch-decision net
    raises [Failure]. After the reset protocol, cycles run until
    [is_end] holds on a cycle's sampled state and PC probes; more than
    [max_cycles] + 1 cycles raise {!Path_limit}. [on_cycle] runs after
    each cycle, while {!Engine.last_deltas} hold that cycle's deltas. *)
val concrete :
  Engine.t ->
  is_end:(state:Tri.Word.t -> pc:Tri.Word.t -> bool) ->
  max_cycles:int ->
  (unit -> unit) ->
  unit

(** [run_concrete] — {!concrete} that keeps every cycle record. *)
val run_concrete :
  Engine.t ->
  is_end:(state:Tri.Word.t -> pc:Tri.Word.t -> bool) ->
  max_cycles:int ->
  Trace.cycle array
