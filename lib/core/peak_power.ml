(* Input-independent peak power (paper, Section 3.2 / Algorithm 2).

   The execution tree is flattened and every cycle's remaining Xs are
   resolved in the direction that maximizes that cycle's switching
   power; the bound is the highest per-cycle value. The per-cycle
   maximization here is the closed form of the even/odd double-VCD
   construction — [Evenodd] implements the explicit file-based pipeline
   and the test suite checks that both agree cycle by cycle. *)

type result = {
  flattened : Gatesim.Trace.cycle array;
  trace : float array;  (** per-cycle peak power bound, W *)
  peak : float;
  peak_index : int;
}

let of_cycles pa cycles =
  let trace = Poweran.trace_power pa ~mode:`Max cycles in
  let peak, peak_index = Poweran.peak_of trace in
  { flattened = cycles; trace; peak; peak_index }

let of_tree pa tree =
  let cycles = Telemetry.span "flatten" (fun () -> Gatesim.Trace.flatten tree) in
  Telemetry.span "power-trace" (fun () -> of_cycles pa cycles)
