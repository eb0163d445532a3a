(** Observability over Algorithm 1's execution tree.

    The symbolic exploration already reports path/fork/dedup counters
    ({!Gatesim.Sym.stats}); this module derives the structural view the
    bound-provenance layer reports on top of them: how many straight-line
    segments the tree has, how often paths merge back into the seen-set
    (Algorithm 1, line 19), how many distinct architectural states were
    registered, and — per recorded cycle — the {e X-density}: the
    fraction of nets whose value is unknown. X-density is the paper's
    "how symbolic is the machine here" signal: 0 right after reset on a
    concretized image, rising as input-dependent values spread. *)

type t = {
  nets : int;  (** nets in the netlist (the density denominator) *)
  cycles : int;  (** recorded cycles, = [Array.length x_density] *)
  segments : int;  (** straight-line [Run] stretches *)
  fork_nodes : int;  (** input-dependent branch points *)
  seen_edges : int;  (** merges into an already-explored state *)
  end_paths : int;  (** paths that reached the halt self-jump *)
  distinct_states : int;  (** seen-set (registry) cardinality *)
  max_path_cycles : int;  (** longest root-to-leaf cycle count *)
  x_density : float array;
      (** per cycle, in {!Gatesim.Trace.flatten} order: fraction of
          nets that are X at the end of that cycle *)
}

(** Walks the tree once, replaying the X count through the deltas (with
    save/restore at forks) so the density series aligns index-for-index
    with the flattened trace Algorithm 2 scores. *)
val compute : Gatesim.Trace.tree -> t

(** [(mean, max)] of the density series; [(0., 0.)] when empty. *)
val density_stats : t -> float * float
