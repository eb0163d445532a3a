(* Per-block characterization from the conservative all-X entry state.
   See blockchar.mli. *)

type cost = {
  peak_w : float;
  energy_j : float;
  cycles : int;
  boot_peak_w : float;
  boot_energy_j : float;
  boot_cycles : int;
  from_cache : bool;
}

let cache_ns = "block"

let is_end_of_block (b : Cfg.block) (cy : Gatesim.Trace.cycle) =
  match b.Cfg.b_term with
  | Cfg.T_halt ->
    (* the self-jump is the block's last instruction; end on its fetch *)
    let halt_addr = fst (List.hd (List.rev b.Cfg.b_insns)) in
    Cpu.is_end_cycle ~halt_addr cy
  | _ ->
    if Tri.Word.has_x cy.Gatesim.Trace.state then true
    else if Tri.Word.to_int cy.Gatesim.Trace.state <> Some Cpu.st_fetch then false
    else (
      match Tri.Word.to_int cy.Gatesim.Trace.pc with
      | None -> true
      | Some p -> p < b.Cfg.b_start || p >= b.Cfg.b_limit)

(* (energy, cycles, peak) of a cycle segment. *)
let segment_cost pa cycles =
  let period = Poweran.period pa in
  let e = ref 0.0 and pk = ref 0.0 in
  Array.iter
    (fun cy ->
      let p = Poweran.cycle_power_max pa cy in
      e := !e +. (p *. period);
      if p > !pk then pk := p)
    cycles;
  (!e, Array.length cycles, !pk)

(* Worst-case (energy, cycles, peak) over the execution tree. Energy and
   cycle count are maximized independently across fork arms — each is an
   upper bound on its own. [Seen] edges contribute nothing: a revisited
   state means the block looped back on itself, and the loop-nest
   combiner (not the block cost) accounts for iteration counts. *)
let rec walk pa = function
  | Gatesim.Trace.Run { cycles; next } ->
    let e, c, pk = segment_cost pa cycles in
    let e2, c2, pk2 = walk pa next in
    (e +. e2, c + c2, Float.max pk pk2)
  | Gatesim.Trace.Fork { not_taken; taken } ->
    let e1, c1, pk1 = walk pa not_taken in
    let e2, c2, pk2 = walk pa taken in
    (Float.max e1 e2, max c1 c2, Float.max pk1 pk2)
  | Gatesim.Trace.End_path | Gatesim.Trace.Seen _ -> (0.0, 0, 0.0)

let compute ?pool ~max_cycles_per_path ~max_paths pa cpu img
    (b : Cfg.block) =
  let tree, _stats =
    Core.Analyze.run_fragment ?pool ~is_end:(is_end_of_block b)
      ~max_cycles_per_path ~max_paths cpu img ~entry:b.Cfg.b_start
  in
  match tree.Gatesim.Trace.root with
  | Gatesim.Trace.Run { cycles; next } ->
    (* Split off the boot prefix: everything before the first fetch at
       the block start (reset, vector and the watchdog-stop thunk). *)
    let n = Array.length cycles in
    let is_entry_fetch cy =
      Tri.Word.to_int cy.Gatesim.Trace.state = Some Cpu.st_fetch
      && Tri.Word.to_int cy.Gatesim.Trace.pc = Some b.Cfg.b_start
    in
    let i0 = ref 0 in
    while !i0 < n && not (is_entry_fetch cycles.(!i0)) do
      incr i0
    done;
    let boot_e, boot_c, boot_pk = segment_cost pa (Array.sub cycles 0 !i0) in
    let body_e, body_c, body_pk =
      segment_cost pa (Array.sub cycles !i0 (n - !i0))
    in
    let rest_e, rest_c, rest_pk = walk pa next in
    ( body_e +. rest_e,
      body_c + rest_c,
      Float.max body_pk rest_pk,
      boot_e,
      boot_c,
      boot_pk )
  | root ->
    let e, c, pk = walk pa root in
    (e, c, pk, 0.0, 0, 0.0)

let characterize ?cache ?pool ?(max_cycles_per_path = 4096)
    ?(max_paths = 64) pa cpu img b =
  Telemetry.span "blockchar" @@ fun () ->
  let computed = ref false in
  let run () =
    computed := true;
    compute ?pool ~max_cycles_per_path ~max_paths pa cpu img b
  in
  let energy_j, cycles, peak_w, boot_energy_j, boot_cycles, boot_peak_w =
    match cache with
    | None -> run ()
    | Some c ->
      let key =
        Core.Key.block ~max_cycles_per_path ~max_paths pa cpu img
          ~start:b.Cfg.b_start ~limit:b.Cfg.b_limit ~term:b.Cfg.b_term
      in
      Cache.memo c ~ns:cache_ns ~key run
  in
  {
    peak_w;
    energy_j;
    cycles;
    boot_peak_w;
    boot_energy_j;
    boot_cycles;
    from_cache = not !computed;
  }
