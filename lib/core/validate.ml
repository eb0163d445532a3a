(* Validation of the X-based analysis (paper, Section 3.4).

   Two checks: (1) the set of gates marked potentially-toggled by
   symbolic simulation is a superset of the gates toggled by any
   input-based execution (Figure 3.4); (2) the X-based peak power trace
   upper-bounds every input-based power trace (Figure 3.5). *)

type toggle_sets = {
  sym_only : int list;  (** potentially-toggled, never seen concrete *)
  common : int list;
  concrete_only : int list;  (** must be empty for soundness *)
}

let net_set_of_tree tree =
  let set = Hashtbl.create 4096 in
  Gatesim.Trace.iter_segments tree (fun seg ->
      Array.iter
        (fun (cy : Gatesim.Trace.cycle) ->
          Array.iter
            (fun d -> Hashtbl.replace set (Gatesim.Trace.net d) ())
            cy.Gatesim.Trace.deltas;
          Array.iter (fun n -> Hashtbl.replace set n ()) cy.Gatesim.Trace.x_active)
        seg);
  set

let net_set_of_run cycles =
  let set = Hashtbl.create 4096 in
  Array.iter
    (fun (cy : Gatesim.Trace.cycle) ->
      Array.iter
        (fun d -> Hashtbl.replace set (Gatesim.Trace.net d) ())
        cy.Gatesim.Trace.deltas)
    cycles;
  set

let compare_toggles ~tree ~concrete =
  let sym = net_set_of_tree tree in
  let conc = net_set_of_run concrete in
  let sym_only = ref [] and common = ref [] and concrete_only = ref [] in
  Hashtbl.iter
    (fun n () ->
      if Hashtbl.mem conc n then common := n :: !common
      else sym_only := n :: !sym_only)
    sym;
  Hashtbl.iter
    (fun n () -> if not (Hashtbl.mem sym n) then concrete_only := n :: !concrete_only)
    conc;
  {
    sym_only = List.sort compare !sym_only;
    common = List.sort compare !common;
    concrete_only = List.sort compare !concrete_only;
  }

(* Per-module counts for the Figure 3.4 rendering. *)
let by_module nl nets =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun n ->
      let m = Netlist.module_of nl n in
      Hashtbl.replace tbl m (1 + Option.value ~default:0 (Hashtbl.find_opt tbl m)))
    nets;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

type bound_check = {
  cycles_checked : int;
  violations : (int * float * float) list;  (** cycle, bound, observed *)
  max_ratio : float;  (** max observed/bound — must be <= 1 *)
  sym_peak : float;
  concrete_peak : float;
}

(* Find the root-to-leaf path of the tree matching a concrete run (same
   length, PCs refine), and check the per-cycle bound pointwise. *)
let check_bound pa ~tree ~concrete =
  let conc_trace = Poweran.trace_power pa ~mode:`Observed concrete in
  let matching = ref None in
  Gatesim.Trace.iter_paths tree (fun segs terminal ->
      match terminal with
      | `Seen _ -> ()
      | `End ->
        if !matching = None then begin
          let path = Array.concat segs in
          if Array.length path = Array.length concrete then begin
            let ok = ref true in
            Array.iteri
              (fun k (cy : Gatesim.Trace.cycle) ->
                match
                  ( Tri.Word.to_int cy.Gatesim.Trace.pc,
                    Tri.Word.to_int concrete.(k).Gatesim.Trace.pc )
                with
                | Some a, Some b when a <> b -> ok := false
                | _ -> ())
              path;
            if !ok then matching := Some path
          end
        end);
  match !matching with
  | None -> None
  | Some path ->
    let bound_trace = Poweran.trace_power pa ~mode:`Max path in
    let violations = ref [] and ratio = ref 0. in
    Array.iteri
      (fun k b ->
        let o = conc_trace.(k) in
        if o > b +. 1e-15 then violations := (k, b, o) :: !violations;
        if o /. b > !ratio then ratio := o /. b)
      bound_trace;
    Some
      {
        cycles_checked = Array.length path;
        violations = List.rev !violations;
        max_ratio = !ratio;
        sym_peak = fst (Poweran.peak_of bound_trace);
        concrete_peak = fst (Poweran.peak_of conc_trace);
      }
