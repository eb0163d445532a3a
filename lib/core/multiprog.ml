(* Multi-program, self-modifying-code and interrupt handling (paper,
   Chapter 6).

   - In a multi-programmed setting the conservative peak is derived
     from the union of the applications' toggle activities.
   - For self-modifying code, the processor's requirement is the peak
     of the code version with the highest peak.
   - Interrupt service routines are regular routines analyzed with the
     rest of the code; the asynchronous detection cost is an additive
     offset, and the ISR's energy is charged once per permitted
     invocation. *)

(* Union-of-activity bound: every gate that can be active in any of the
   applications is assumed to take its costliest transition in the same
   cycle. At least as large as each application's own peak bound. *)
let union_peak_bound pa (trees : Gatesim.Trace.tree list) =
  let nl = Poweran.netlist pa in
  let active = Hashtbl.create 4096 in
  List.iter
    (fun tree ->
      Gatesim.Trace.iter_segments tree (fun seg ->
          Array.iter
            (fun (cy : Gatesim.Trace.cycle) ->
              Array.iter
                (fun d -> Hashtbl.replace active (Gatesim.Trace.net d) ())
                cy.Gatesim.Trace.deltas;
              Array.iter
                (fun net -> Hashtbl.replace active net ())
                cy.Gatesim.Trace.x_active)
            seg))
    trees;
  let synth_deltas = ref [] in
  Hashtbl.iter
    (fun net () ->
      synth_deltas := Gatesim.Trace.pack ~net ~old_v:2 ~new_v:2 :: !synth_deltas)
    active;
  ignore nl;
  let cy =
    {
      Gatesim.Trace.deltas = [||];
      x_active = Array.of_list (Hashtbl.fold (fun n () acc -> n :: acc) active []);
      pc = Tri.Word.all_x ~width:16;
      state = Tri.Word.all_x ~width:16;
      ir = Tri.Word.all_x ~width:16;
    }
  in
  Poweran.cycle_power_max pa cy

(* One application at a time (cooperative multi-programming, dynamic
   linking, or self-modifying code): the requirement is the worst of
   the individual bounds. *)
let max_peak (analyses : Analyze.t list) =
  List.fold_left (fun acc a -> Float.max acc a.Analyze.peak_power) 0. analyses

let max_npe (analyses : Analyze.t list) =
  List.fold_left
    (fun acc a -> Float.max acc a.Analyze.peak_energy.Peak_energy.npe)
    0. analyses

type with_isr = {
  peak_power : float;  (** max of main-flow and ISR peaks, plus detection *)
  peak_energy : float;  (** main flow plus bounded ISR invocations *)
}

(* [combine_isr ~main ~isr ~max_invocations ~detection_power]: the ISR
   is a regular routine analyzed like any application; interrupt
   detection logic contributes a constant power offset; the energy
   bound admits up to [max_invocations] executions of the ISR. *)
let combine_isr ~main ~isr ~max_invocations ~detection_power =
  {
    peak_power =
      Float.max main.Analyze.peak_power isr.Analyze.peak_power
      +. detection_power;
    peak_energy =
      main.Analyze.peak_energy.Peak_energy.energy
      +. (float_of_int max_invocations
         *. isr.Analyze.peak_energy.Peak_energy.energy);
  }
