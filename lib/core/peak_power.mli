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

(** [of_tree pa tree] — {!of_cycles} over the tree flattened in
    {!Gatesim.Trace.flatten} order. *)
val of_tree : Poweran.t -> Gatesim.Trace.tree -> result
