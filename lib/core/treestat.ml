(* Structural statistics of the execution tree, plus the per-cycle
   X-density series. See treestat.mli. *)

type t = {
  nets : int;
  cycles : int;
  segments : int;
  fork_nodes : int;
  seen_edges : int;
  end_paths : int;
  distinct_states : int;
  max_path_cycles : int;
  x_density : float array;
}

let compute (tree : Gatesim.Trace.tree) =
  let nets = Array.length tree.Gatesim.Trace.initial in
  let fnets = float_of_int (max nets 1) in
  let x = Tri.I.x in
  (* Replay state: a running X count, moved only by the recorded deltas
     (x_active nets are X on both sides of the boundary, so they never
     move it). A delta carries its old and new value, so no net values
     need replaying. *)
  let xs =
    ref
      (Array.fold_left
         (fun acc v -> if v = x then acc + 1 else acc)
         0 tree.Gatesim.Trace.initial)
  in
  let x_density = Array.make (Gatesim.Trace.count_cycles tree) 0. in
  let segments = ref 0
  and fork_nodes = ref 0
  and seen_edges = ref 0
  and end_paths = ref 0
  and cycles = ref 0
  and max_depth = ref 0 in
  let apply (cy : Gatesim.Trace.cycle) =
    let deltas = cy.Gatesim.Trace.deltas in
    for k = 0 to Array.length deltas - 1 do
      let d = Array.unsafe_get deltas k in
      let old_x = Gatesim.Trace.old_v d = x
      and new_x = Gatesim.Trace.new_v d = x in
      if old_x && not new_x then decr xs
      else if new_x && not old_x then incr xs
    done;
    x_density.(!cycles) <- float_of_int !xs /. fnets;
    incr cycles
  in
  (* Same traversal order as [Trace.flatten]: Run cycles, then the
     continuation; at a fork, not-taken before taken, restoring the
     fork-point X count for the second child. *)
  let rec go depth = function
    | Gatesim.Trace.Run { cycles = cs; next } ->
      incr segments;
      Array.iter apply cs;
      go (depth + Array.length cs) next
    | Gatesim.Trace.Fork { not_taken; taken } ->
      incr fork_nodes;
      let snap_xs = !xs in
      go depth not_taken;
      xs := snap_xs;
      go depth taken
    | Gatesim.Trace.End_path ->
      incr end_paths;
      if depth > !max_depth then max_depth := depth
    | Gatesim.Trace.Seen _ ->
      incr seen_edges;
      if depth > !max_depth then max_depth := depth
  in
  go 0 tree.Gatesim.Trace.root;
  {
    nets;
    cycles = !cycles;
    segments = !segments;
    fork_nodes = !fork_nodes;
    seen_edges = !seen_edges;
    end_paths = !end_paths;
    distinct_states = Hashtbl.length tree.Gatesim.Trace.registry;
    max_path_cycles = !max_depth;
    x_density;
  }

let density_stats t =
  let n = Array.length t.x_density in
  if n = 0 then (0., 0.)
  else
    let sum = Array.fold_left ( +. ) 0. t.x_density in
    let mx = Array.fold_left Float.max neg_infinity t.x_density in
    (sum /. float_of_int n, mx)
