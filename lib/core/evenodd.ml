(* The explicit even/odd double-VCD construction of Algorithm 2.

   Two VCD files are produced from a path's activity trace: one assigns
   the Xs of every even cycle (and its preceding boundary) so switching
   power is maximized in even cycles, the other does the same for odd
   cycles. Power analysis runs on each file, and the peak power trace
   interleaves even samples from the even file with odd samples from
   the odd file.

   [Peak_power] computes the same numbers directly; this module exists
   because the paper's pipeline is file-based, for the worked example of
   Figure 3.2, and as an ablation/validation target (the equivalence is
   asserted in the test suite). *)

type assigned = {
  values : Bytes.t array;  (** per cycle: trit code per net *)
  nets : int;
}

(* Replay a path (initial values + per-cycle deltas) into dense
   per-cycle value vectors. Index 0 is the pre-trace state. *)
let replay ~initial (cycles : Gatesim.Trace.cycle array) =
  let nets = Array.length initial in
  let mk src = Bytes.init nets (fun i -> Char.chr src.(i)) in
  let first = mk initial in
  let out = Array.make (Array.length cycles + 1) first in
  let cur = ref (Bytes.copy first) in
  Array.iteri
    (fun k cy ->
      let b = Bytes.copy !cur in
      let deltas = cy.Gatesim.Trace.deltas in
      for j = 0 to Array.length deltas - 1 do
        let d = Array.unsafe_get deltas j in
        Bytes.set b (Gatesim.Trace.net d) (Char.chr (Gatesim.Trace.new_v d))
      done;
      out.(k + 1) <- b;
      cur := b)
    cycles;
  { values = out; nets }


(* Maximize the switching of cycles with parity [parity] (0 = even). The
   transition of cycle k lives between vectors k and k+1. *)
let maximize lib nl ~parity (a : assigned) (cycles : Gatesim.Trace.cycle array) =
  let v = Array.map Bytes.copy a.values in
  let flip c = if c = '\000' then '\001' else '\000' in
  Array.iteri
    (fun k cy ->
      if k mod 2 = parity then begin
        let prev = v.(k) and cur = v.(k + 1) in
        let assign_max net =
          let t1, t2 = Stdcell.max_transition lib nl net in
          Bytes.set prev net (Char.chr (Tri.to_int t1));
          Bytes.set cur net (Char.chr (Tri.to_int t2))
        in
        let deltas = cy.Gatesim.Trace.deltas in
        for j = 0 to Array.length deltas - 1 do
          let d = Array.unsafe_get deltas j in
          let net = Gatesim.Trace.net d in
          let old_v = Gatesim.Trace.old_v d and new_v = Gatesim.Trace.new_v d in
          if old_v = 2 && new_v = 2 then assign_max net
          else if new_v = 2 then Bytes.set cur net (flip (Bytes.get prev net))
          else if old_v = 2 then Bytes.set prev net (flip (Bytes.get cur net))
        done;
        Array.iter assign_max cy.Gatesim.Trace.x_active
      end)
    cycles;
  { a with values = v }

(* Render an assigned trace as a VCD document. *)
let to_vcd nl (a : assigned) =
  let names =
    Array.init a.nets (fun id ->
        Printf.sprintf "n%d_%s" id
          (Netlist.cell_name nl.Netlist.gates.(id).Netlist.cell))
  in
  let initial =
    Array.init a.nets (fun i -> Tri.of_int (Char.code (Bytes.get a.values.(0) i)))
  in
  let changes =
    Array.init
      (Array.length a.values - 1)
      (fun k ->
        let prev = a.values.(k) and cur = a.values.(k + 1) in
        let acc = ref [] in
        for i = a.nets - 1 downto 0 do
          if Bytes.get prev i <> Bytes.get cur i then
            acc := (i, Tri.of_int (Char.code (Bytes.get cur i))) :: !acc
        done;
        !acc)
  in
  Vcd.write_trace ~names ~initial ~changes

(* Per-cycle observed power of a VCD document: only concrete transitions
   burn energy (unassigned Xs are inactive gates). [n_cycles] is needed
   because change-free trailing cycles leave no trace in the file. *)
let power_from_vcd pa ~n_cycles text =
  let nl = Poweran.netlist pa in
  let nets = Netlist.gate_count nl in
  let doc = Vcd.parse text in
  let steps = Vcd.replay doc ~nets in
  let dense = Array.make (n_cycles + 1) [||] in
  let current = Array.make nets Tri.X in
  List.iter (fun (net, v) -> if net < nets then current.(net) <- v) doc.Vcd.initial;
  let remaining = ref steps in
  for t = 0 to n_cycles do
    (match !remaining with
    | (time, v) :: rest when time = t ->
      Array.blit v 0 current 0 nets;
      remaining := rest
    | _ -> ());
    dense.(t) <- Array.copy current
  done;
  Array.init n_cycles (fun k ->
      (* fabricate a cycle record containing just the concrete deltas *)
      let deltas = ref [] in
      for i = nets - 1 downto 0 do
        let o = dense.(k).(i) and n = dense.(k + 1).(i) in
        if not (Tri.equal o n) then
          deltas :=
            Gatesim.Trace.pack ~net:i ~old_v:(Tri.to_int o) ~new_v:(Tri.to_int n)
            :: !deltas
      done;
      let cy =
        {
          Gatesim.Trace.deltas = Array.of_list !deltas;
          x_active = [||];
          pc = Tri.Word.all_x ~width:16;
          state = Tri.Word.all_x ~width:16;
          ir = Tri.Word.all_x ~width:16;
        }
      in
      Poweran.cycle_power_observed pa cy)

let interleave ~even ~odd =
  Array.init (Array.length even) (fun k -> if k mod 2 = 0 then even.(k) else odd.(k))

(* The full pipeline for one path. The two maximizations read the shared
   [replayed] vectors but mutate only their own copies, so the even and
   odd legs run as concurrent futures; interleaving picks fixed indices
   from each, keeping the result independent of the schedule. *)
let peak_power_via_vcd pa lib ~initial cycles =
  Telemetry.span "evenodd-vcd" @@ fun () ->
  let nl = Poweran.netlist pa in
  let replayed = replay ~initial cycles in
  let n_cycles = Array.length cycles in
  let leg parity =
    let doc = to_vcd nl (maximize lib nl ~parity replayed cycles) in
    (power_from_vcd pa ~n_cycles doc, doc)
  in
  let (even, even_doc), (odd, odd_doc) =
    Parallel.both_auto (fun () -> leg 0) (fun () -> leg 1)
  in
  (interleave ~even ~odd, even_doc, odd_doc)
