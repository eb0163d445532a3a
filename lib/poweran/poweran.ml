type t = {
  nl : Netlist.t;
  period_ : float;
  rise : float array;  (* per net: energy of a 0->1 output transition *)
  fall : float array;
  emax : float array;
  base : float;
  base_by_module : float array;
  module_count : int;
  base_by_class : (string * float) list;  (* leakage+clock per cell kind *)
  gate_base : float array;  (* per gate: leakage + clock power *)
}

let create ?(bus = [||]) ?(bus_cap = 450e-15) ?(module_scale = []) nl lib ~period =
  let n = Netlist.gate_count nl in
  let rise = Array.make n 0. and fall = Array.make n 0. and emax = Array.make n 0. in
  for id = 0 to n - 1 do
    let k =
      match List.assoc_opt (Netlist.module_of nl id) module_scale with
      | Some k -> k
      | None -> 1.
    in
    rise.(id) <- k *. Stdcell.switch_energy lib nl id ~rising:true;
    fall.(id) <- k *. Stdcell.switch_energy lib nl id ~rising:false;
    emax.(id) <- Float.max rise.(id) fall.(id)
  done;
  (* Lumped memory-macro access energy on the bus pins. *)
  let bus_e = 0.5 *. bus_cap *. lib.Stdcell.vdd *. lib.Stdcell.vdd in
  Array.iter
    (fun id ->
      rise.(id) <- rise.(id) +. bus_e;
      fall.(id) <- fall.(id) +. bus_e;
      emax.(id) <- emax.(id) +. bus_e)
    bus;
  let module_count = Array.length nl.Netlist.module_names in
  let base_by_module = Array.make module_count 0. in
  let gate_base = Array.make n 0. in
  Array.iter
    (fun (g : Netlist.gate) ->
      let leak = (lib.Stdcell.of_cell g.Netlist.cell).Stdcell.leakage in
      let clk =
        if Netlist.is_sequential g.Netlist.cell then
          lib.Stdcell.clk_pin_energy /. period
        else 0.
      in
      gate_base.(g.Netlist.id) <- leak +. clk;
      base_by_module.(g.Netlist.module_id) <-
        base_by_module.(g.Netlist.module_id) +. leak +. clk)
    nl.Netlist.gates;
  let base = Array.fold_left ( +. ) 0. base_by_module in
  let class_tbl : (string, float) Hashtbl.t = Hashtbl.create 16 in
  Array.iter
    (fun (g : Netlist.gate) ->
      let k = Netlist.cell_name g.Netlist.cell in
      Hashtbl.replace class_tbl k
        (Option.value (Hashtbl.find_opt class_tbl k) ~default:0.
        +. gate_base.(g.Netlist.id)))
    nl.Netlist.gates;
  let base_by_class =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) class_tbl []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  {
    nl;
    period_ = period;
    rise;
    fall;
    emax;
    base;
    base_by_module;
    module_count;
    base_by_class;
    gate_base;
  }

let netlist t = t.nl
let period t = t.period_
let base_power t = t.base

(* Energy of one recorded delta under each mode. Inlined into the
   summing loops below, so neither the delta's fields nor the energy are
   boxed. *)
let[@inline] delta_energy t ~max_mode packed =
  let net = Gatesim.Trace.net packed in
  match Gatesim.Trace.old_v packed, Gatesim.Trace.new_v packed with
  | 0, 1 -> t.rise.(net)
  | 1, 0 -> t.fall.(net)
  | 0, 2 | 2, 1 ->
    (* was/becomes unknown: the transition that may have happened is a
       rise; count it when maximizing, and also when observing (an X
       delta in an observed trace is already a modeling escape — be
       conservative). *)
    if max_mode then t.rise.(net) else t.rise.(net)
  | 1, 2 | 2, 0 -> t.fall.(net)
  | _ -> if max_mode then t.emax.(net) else 0.

(* Energy of the first [n] packed deltas, summed in order. *)
let[@inline] deltas_energy t ~max_mode deltas n =
  let e = ref 0. in
  for k = 0 to n - 1 do
    e := !e +. delta_energy t ~max_mode (Array.unsafe_get deltas k)
  done;
  !e

let observed_power t deltas n =
  t.base +. (deltas_energy t ~max_mode:false deltas n /. t.period_)

let cycle_power_observed t (cy : Gatesim.Trace.cycle) =
  let deltas = cy.Gatesim.Trace.deltas in
  observed_power t deltas (Array.length deltas)

let cycle_power_max t (cy : Gatesim.Trace.cycle) =
  let deltas = cy.Gatesim.Trace.deltas in
  let e = ref (deltas_energy t ~max_mode:true deltas (Array.length deltas)) in
  let xa = cy.Gatesim.Trace.x_active in
  for k = 0 to Array.length xa - 1 do
    e := !e +. t.emax.(Array.unsafe_get xa k)
  done;
  t.base +. (!e /. t.period_)

let trace_power t ~mode cycles =
  let f =
    match mode with `Observed -> cycle_power_observed t | `Max -> cycle_power_max t
  in
  (* Per-cycle evaluation is pure over an immutable [t], so long traces
     are chunked across the domain pool; each index is computed
     independently, making the result identical at any job count. *)
  Parallel.chunked_map_auto f cycles

let peak_of series =
  let best = ref neg_infinity and at = ref 0 in
  Array.iteri
    (fun k p ->
      if p > !best then begin
        best := p;
        at := k
      end)
    series;
  (!best, !at)

let trace_energy t ~mode cycles =
  Array.fold_left ( +. ) 0. (trace_power t ~mode cycles) *. t.period_

let module_breakdown t ~mode (cy : Gatesim.Trace.cycle) =
  let max_mode = match mode with `Max -> true | `Observed -> false in
  let acc = Array.copy t.base_by_module in
  let add net e =
    let m = t.nl.Netlist.gates.(net).Netlist.module_id in
    acc.(m) <- acc.(m) +. (e /. t.period_)
  in
  Array.iter
    (fun d -> add (Gatesim.Trace.net d) (delta_energy t ~max_mode d))
    cy.Gatesim.Trace.deltas;
  if max_mode then
    Array.iter (fun net -> add net t.emax.(net)) cy.Gatesim.Trace.x_active;
  Array.to_list
    (Array.mapi (fun m p -> (t.nl.Netlist.module_names.(m), p)) acc)
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let class_breakdown ?folded t ~mode (cy : Gatesim.Trace.cycle) =
  let max_mode = match mode with `Max -> true | `Observed -> false in
  let acc : (string, float) Hashtbl.t = Hashtbl.create 16 in
  List.iter (fun (k, v) -> Hashtbl.replace acc k v) t.base_by_class;
  let is_folded =
    match folded with Some f -> f | None -> fun _ -> false
  in
  (* Relabel proven-constant gates into a "constant" class: the same
     addends (their leakage/clock base power and any boot-time
     transitions below) move between classes, so the entries still sum
     exactly to the cycle's total power. *)
  if folded <> None then begin
    let moved = ref 0. in
    Array.iter
      (fun (g : Netlist.gate) ->
        if is_folded g.Netlist.id then begin
          let b = t.gate_base.(g.Netlist.id) in
          if b <> 0. then begin
            let k = Netlist.cell_name g.Netlist.cell in
            Hashtbl.replace acc k (Hashtbl.find acc k -. b);
            moved := !moved +. b
          end
        end)
      t.nl.Netlist.gates;
    Hashtbl.replace acc "constant" !moved
  end;
  let add net e =
    let k =
      if is_folded net then "constant"
      else Netlist.cell_name t.nl.Netlist.gates.(net).Netlist.cell
    in
    Hashtbl.replace acc k
      (Option.value (Hashtbl.find_opt acc k) ~default:0. +. (e /. t.period_))
  in
  Array.iter
    (fun d -> add (Gatesim.Trace.net d) (delta_energy t ~max_mode d))
    cy.Gatesim.Trace.deltas;
  if max_mode then
    Array.iter (fun net -> add net t.emax.(net)) cy.Gatesim.Trace.x_active;
  Hashtbl.fold (fun k v l -> (k, v) :: l) acc []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let default_design_activity = 0.40

let design_tool_power t ~activity =
  let sw = Array.fold_left ( +. ) 0. t.emax in
  t.base +. (activity *. sw /. t.period_)
