(** Synthetic standard-cell power library.

    Substitute for the TSMC 65GP liberty data + PrimeTime cell models used
    by the paper. Per cell kind it provides internal switching energies
    (rise/fall), input pin capacitance, and leakage; a linear wire-load
    model adds interconnect capacitance per fanout. Absolute values are
    calibrated so that whole-processor figures land in the paper's
    1.5–3.5 mW range at 1 V / 100 MHz (see DESIGN.md §2); all reproduced
    results depend only on the {e relative} energies. *)

type cell_power = {
  rise_energy : float;  (** J, internal energy of a 0->1 output transition *)
  fall_energy : float;  (** J, internal energy of a 1->0 output transition *)
  pin_cap : float;  (** F, capacitance presented by one input pin *)
  leakage : float;  (** W *)
}

type t = {
  lib_name : string;
  vdd : float;  (** V *)
  wire_cap_per_fanout : float;  (** F of routing per fanout pin *)
  clk_pin_energy : float;  (** J drawn by each flop's clock pin per cycle *)
  of_cell : Netlist.cell -> cell_power;
}

(** The default 65 nm-flavoured library at 1.0 V. *)
val default : t

(** A 130 nm / 3.0 V operating point standing in for the MSP430F1610 of
    the paper's Chapter 2 measurements (energies scale with the mature
    node's capacitances and V^2; used at 8 MHz). *)
val msp430f1610 : t

(** [scale lib k] multiplies every energy and leakage by [k]
    (calibration knob). *)
val scale : t -> float -> t

(** [load_cap lib nl net] is the total capacitance driven by [net]:
    fanout pin caps plus wire load. *)
val load_cap : t -> Netlist.t -> int -> float

(** [switch_energy lib nl net ~rising] is the energy of one output
    transition of the gate driving [net]: internal energy plus
    [1/2 C V^2] for the driven load. *)
val switch_energy : t -> Netlist.t -> int -> rising:bool -> float

(** [max_switch_energy lib nl net] is the energy of the costlier
    transition direction. *)
val max_switch_energy : t -> Netlist.t -> int -> float

(** [max_transition lib nl net] is the [(value at c-1, value at c)] pair
    that maximizes cycle-[c] power for this gate — Algorithm 2's
    [maxTransition(g,1/2)] lookup. *)
val max_transition : t -> Netlist.t -> int -> Tri.t * Tri.t

(** Static power of the whole netlist. *)
val leakage_power : t -> Netlist.t -> float

(** Render the library in Liberty (.lib) format, so the synthetic cell
    data can be inspected with standard EDA tooling. *)
val liberty_text : t -> string
