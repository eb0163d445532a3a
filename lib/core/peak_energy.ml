(* Input-independent peak energy (paper, Section 3.3).

   Peak energy is the worst root-to-leaf sum of per-cycle peak power
   times the clock period. Input-dependent branches take the costlier
   side (Fork = max). A [Seen] edge returns to an already-explored
   architectural state; its continuation is the registered subtree, and
   a cyclic reference (an input-dependent loop whose state repeats
   exactly) is unrolled up to [loop_bound] times — the "static analysis
   or user input" iteration bound the paper requires for such loops. *)

module SMap = Map.Make (String)

type result = {
  energy : float;  (** J, over the worst path *)
  cycles : int;  (** length of the worst path in cycles *)
  npe : float;  (** normalized peak energy, J/cycle *)
  bounded_loops : int;  (** how many Seen edges needed the loop bound *)
}

exception Unbounded of string
(** raised when [loop_bound = 0] would be exceeded *)

(* The walk below visits the tree's segments in {!Gatesim.Trace.flatten}
   order, so it knows each segment's offset in the power trace without a
   lookup. A [Seen] unroll enters a registry continuation — a segment of
   the tree minus its first cycle — whose offset is found once per
   digest, by physical identity of its first cycle record: every record
   sits at one place in the tree. Records of different paths are often
   equal in content, so only [==] tells them apart. *)
module Records = Hashtbl.Make (struct
  type t = Gatesim.Trace.cycle

  let equal = ( == )
  let hash (c : t) = Hashtbl.hash c.Gatesim.Trace.deltas
end)

(* Offsets of the first two records of every tree segment: where a
   segment and a continuation cut from it start. *)
let record_offsets (tree : Gatesim.Trace.tree) =
  let idx = Records.create 256 in
  let off = ref 0 in
  Gatesim.Trace.iter_segments tree (fun cycles ->
      let n = Array.length cycles in
      if n >= 1 then Records.replace idx cycles.(0) !off;
      if n >= 2 then Records.replace idx cycles.(1) (!off + 1);
      off := !off + n);
  (idx, !off)

(* The first cycle record a walk of [node] meets, if any. *)
let rec first_record = function
  | Gatesim.Trace.Run { cycles; next } ->
    if Array.length cycles > 0 then Some cycles.(0) else first_record next
  | Gatesim.Trace.Fork { not_taken; _ } -> first_record not_taken
  | Gatesim.Trace.End_path | Gatesim.Trace.Seen _ -> None

let of_tree pa (tree : Gatesim.Trace.tree) ~trace ~loop_bound =
  let period = Poweran.period pa in
  let bounded = ref 0 in
  let idx, total = record_offsets tree in
  if Array.length trace <> total then
    invalid_arg "Peak_energy.of_tree: trace does not match the tree";
  (* Per start offset, the energy of the segment there (nan: not yet
     summed), summed in cycle order once; a [Seen] unroll re-adds it. An
     offset starts one segment only: a continuation starts inside the
     segment it was cut from, after that segment's first cycle. *)
  let memo = Array.make total Float.nan in
  let seg_energy o n =
    if n = 0 then 0.
    else if not (Float.is_nan memo.(o)) then memo.(o)
    else begin
      let e = ref 0. in
      for k = o to o + n - 1 do
        e := !e +. (trace.(k) *. period)
      done;
      memo.(o) <- !e;
      !e
    end
  in
  let starts : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let start_of d cont =
    match Hashtbl.find_opt starts d with
    | Some o -> o
    | None ->
      let o =
        match first_record cont with
        | None -> 0
        | Some c -> (
          match Records.find_opt idx c with
          | Some o -> o
          | None -> invalid_arg "Peak_energy.of_tree: registry entry not in the tree")
      in
      Hashtbl.replace starts d o;
      o
  in
  (* [go node off budgets] = (energy, cycles) of the worst path from
     [node], whose first cycle is at trace offset [off], and the number
     of trace cycles under [node]. budgets: per-digest remaining unrolls
     along the current path. *)
  let rec go node off budgets =
    match node with
    | Gatesim.Trace.Run { cycles; next } ->
      let n = Array.length cycles in
      let e = seg_energy off n in
      let e', n', size = go next (off + n) budgets in
      (e +. e', n + n', n + size)
    | Gatesim.Trace.Fork { not_taken; taken } ->
      let e0, n0, s0 = go not_taken off budgets in
      let e1, n1, s1 = go taken (off + s0) budgets in
      if e1 > e0 then (e1, n1, s0 + s1) else (e0, n0, s0 + s1)
    | Gatesim.Trace.End_path -> (0., 0, 0)
    | Gatesim.Trace.Seen d -> (
      let remaining =
        match SMap.find_opt d budgets with Some r -> r | None -> loop_bound
      in
      if remaining <= 0 then begin
        (* the paper: without a static or user-supplied iteration bound
           the peak energy of an input-dependent loop is not computable *)
        if loop_bound <= 0 then raise (Unbounded d);
        incr bounded;
        (0., 0, 0)
      end
      else
        match Hashtbl.find_opt tree.Gatesim.Trace.registry d with
        | None -> (0., 0, 0)
        | Some r ->
          let e, n, _ = go !r (start_of d !r) (SMap.add d (remaining - 1) budgets) in
          (e, n, 0))
  in
  let energy, cycles, _ = go tree.Gatesim.Trace.root 0 SMap.empty in
  {
    energy;
    cycles;
    npe = (if cycles = 0 then 0. else energy /. float_of_int cycles);
    bounded_loops = !bounded;
  }
