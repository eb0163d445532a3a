(* Input-based profiling baseline (paper, Section 4.2).

   Power and energy are measured over several concrete input sets; the
   reported requirement is the observed maximum inflated by a 4/3
   guardband (same factor as the prior studies the paper cites),
   because profiling cannot cover all input sets. *)

let guardband = 4. /. 3.

type result = {
  peaks : float list;  (** observed per-input peak power, W *)
  npes : float list;  (** observed per-input energy/cycle, J/cycle *)
  max_peak : float;
  min_peak : float;
  max_npe : float;
  min_npe : float;
  gb_peak : float;  (** guardbanded requirement *)
  gb_npe : float;
}

let default_seeds = [ 1; 2; 3; 5; 8; 13; 21; 42 ]

let run ?(seeds = default_seeds) pa cpu (b : Benchprogs.Bench.t) =
  let img = Benchprogs.Bench.assemble b in
  (* One independent concrete gate-level run per seed; the ordered map
     keeps the result lists in seed order at any job count. *)
  let results =
    Parallel.map_list_auto
      (fun seed ->
        let inputs = b.Benchprogs.Bench.gen_inputs ~seed in
        let trace =
          Core.Analyze.run_concrete pa cpu img
            ~inputs:[ (Benchprogs.Bench.input_base, inputs) ]
        in
        let peak, _ = Poweran.peak_of trace in
        let energy = Array.fold_left ( +. ) 0. trace *. Poweran.period pa in
        (peak, energy /. float_of_int (Array.length trace)))
      seeds
  in
  let peaks = List.map fst results and npes = List.map snd results in
  let fmax = List.fold_left Float.max neg_infinity in
  let fmin = List.fold_left Float.min infinity in
  {
    peaks;
    npes;
    max_peak = fmax peaks;
    min_peak = fmin peaks;
    max_npe = fmax npes;
    min_npe = fmin npes;
    gb_peak = fmax peaks *. guardband;
    gb_npe = fmax npes *. guardband;
  }
