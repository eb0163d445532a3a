(** Input-independent peak power (paper, Section 3.2 / Algorithm 2).

    The execution tree is flattened into a trace; every cycle's
    remaining Xs are resolved in the direction that maximizes that
    cycle's switching power. This closed form equals evaluating each
    cycle in the even/odd VCD file that maximizes its parity (see
    {!Evenodd}; the equivalence is asserted by tests). *)

type result = {
  flattened : Gatesim.Trace.cycle array;
  trace : float array;  (** per-cycle peak power bound, W *)
  peak : float;  (** the application's peak power requirement, W *)
  peak_index : int;
}

val of_cycles : Poweran.t -> Gatesim.Trace.cycle array -> result

(** [of_tree ?cache pa tree] — with [cache = (c, key)], the power
    trace and its peak are memoized in [c] under [key], in the
    {!Cache.Disk} layer (the caller keeps the whole result); the caller
    must derive [key] from everything the result depends on (the tree's
    inputs and the power context — see {!Key.algorithm2}). [flattened]
    is rebuilt from [tree] on every call. *)
val of_tree : ?cache:Cache.t * Cache.Key.t -> Poweran.t -> Gatesim.Trace.tree -> result
