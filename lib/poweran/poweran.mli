(** Activity-based gate-level power analysis (the PrimeTime substitute).

    Per-cycle power is leakage + clock-tree power + the switching energy
    of that cycle's transitions divided by the clock period. Two modes:

    - {e observed} power counts only concrete transitions (used on
      concrete profiling runs and on even/odd VCD-assigned traces);
    - {e maximized} power resolves every X the way Algorithm 2 does:
      a gate with X on either side of the cycle boundary is assumed to
      take its most expensive consistent transition ([max_transition]
      when both sides are X, the forced toggle otherwise).

    The per-cycle maximized power of a cycle equals the power that
    cycle has in the even/odd VCD file that maximizes its parity —
    see {!Core.Evenodd} for the explicit file-based pipeline and the
    test that checks the equivalence. *)

type t

(** [create ?bus ?bus_cap ?module_scale nl lib ~period] — [bus] nets
    (memory address/data pins) carry an extra lumped capacitance
    [bus_cap] (default 450 fF) modelling the flash/SRAM access energy
    their transitions imply; [module_scale] multiplies the switching
    energies of whole modules (wire-dominated structures such as the
    multiplier array switch more capacitance than standard-cell
    internals suggest). *)
val create :
  ?bus:int array ->
  ?bus_cap:float ->
  ?module_scale:(string * float) list ->
  Netlist.t ->
  Stdcell.t ->
  period:float ->
  t

val netlist : t -> Netlist.t
val period : t -> float

(** Leakage + clock-tree power, burned every cycle. *)
val base_power : t -> float

(** [observed_power t deltas n] — observed power of a cycle whose packed
    deltas ({!Gatesim.Trace.pack}) are [deltas.(0) .. deltas.(n-1)]: the
    one summation behind {!cycle_power_observed}, also used on an
    engine's scratch deltas ({!Gatesim.Engine.last_deltas}) so concrete
    runs need no cycle records. *)
val observed_power : t -> int array -> int -> float

val cycle_power_observed : t -> Gatesim.Trace.cycle -> float
val cycle_power_max : t -> Gatesim.Trace.cycle -> float

(** [trace_power t ~mode cycles] — per-cycle power series. *)
val trace_power :
  t -> mode:[ `Observed | `Max ] -> Gatesim.Trace.cycle array -> float array

(** Highest per-cycle power in the series and its index. *)
val peak_of : float array -> float * int

(** Energy of a trace: sum of per-cycle power times the period. *)
val trace_energy : t -> mode:[ `Observed | `Max ] -> Gatesim.Trace.cycle array -> float

(** [module_breakdown t ~mode cycle] — per-module power for one cycle
    (dynamic switching plus that module's share of leakage and clock
    power), sorted by module name. *)
val module_breakdown :
  t -> mode:[ `Observed | `Max ] -> Gatesim.Trace.cycle -> (string * float) list

(** [class_breakdown t ~mode cycle] — per gate-class (cell kind) power
    for one cycle: each class's leakage + clock power plus the dynamic
    power of this cycle's transitions on nets that class drives, sorted
    by class name. Like {!module_breakdown}, the entries sum to the
    cycle's total power.

    With [folded] (a proven-constant predicate over net ids, see
    {!Netlist.Specialize}), those gates' base power and transitions are
    relabeled into a ["constant"] class — the same addends move between
    classes, so the sum-to-total property is preserved exactly. *)
val class_breakdown :
  ?folded:(int -> bool) ->
  t ->
  mode:[ `Observed | `Max ] ->
  Gatesim.Trace.cycle ->
  (string * float) list

(** [design_tool_power t ~activity] — the design-specification rating:
    every gate assumed to toggle with probability [activity] each cycle
    at its costliest transition (the default-toggle-rate power number a
    design tool reports, Section 4.2). *)
val design_tool_power : t -> activity:float -> float

(** The default toggle rate used for the design-tool baseline. *)
val default_design_activity : float
