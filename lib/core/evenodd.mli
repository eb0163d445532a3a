(** The explicit even/odd double-VCD construction of Algorithm 2.

    Two VCD files are produced from a path's activity trace: one
    assigns the Xs of every even cycle (and its preceding boundary) so
    switching power is maximized in even cycles, the other does the
    same for odd cycles; power analysis runs on both and the peak trace
    interleaves even samples from the even file with odd samples from
    the odd file.

    {!Peak_power} computes the same numbers in closed form; this module
    exists because the paper's pipeline is file-based, for the worked
    example of Figure 3.2, and as a validation/ablation target. *)

type assigned = {
  values : Bytes.t array;  (** per cycle boundary: trit code per net *)
  nets : int;
}

(** [replay ~initial cycles] — dense per-cycle value vectors; index 0
    is the pre-trace state, index [k+1] the values after cycle [k]. *)
val replay : initial:int array -> Gatesim.Trace.cycle array -> assigned

(** [maximize lib nl ~parity a cycles] — resolve the Xs of every cycle
    with index of the given [parity] (0 = even) toward maximum
    switching: forced toggles for half-known transitions,
    [Stdcell.max_transition] for X-to-X activity. *)
val maximize :
  Stdcell.t -> Netlist.t -> parity:int -> assigned -> Gatesim.Trace.cycle array -> assigned

(** Render an assigned trace as a VCD document. *)
val to_vcd : Netlist.t -> assigned -> string

(** [power_from_vcd pa ~n_cycles text] — per-cycle observed power of a
    VCD document (unassigned Xs are inactive gates). *)
val power_from_vcd : Poweran.t -> n_cycles:int -> string -> float array

val interleave : even:float array -> odd:float array -> float array

(** The full pipeline for one path: returns the interleaved peak power
    trace and the two VCD documents. *)
val peak_power_via_vcd :
  Poweran.t ->
  Stdcell.t ->
  initial:int array ->
  Gatesim.Trace.cycle array ->
  float array * string * string
