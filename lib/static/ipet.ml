(* Loop-nest longest-path combiner over per-block costs. See ipet.mli. *)

module ISet = Set.Make (Int)

type row = {
  r_start : int;
  r_limit : int;
  r_label : string;
  r_insns : int;
  r_iters : int;
  r_cycles : int;
  r_peak_w : float;
  r_energy_j : float;
  r_cached : bool;
}

type t = {
  s_name : string;
  s_peak_power_w : float;
  s_peak_energy_j : float;
  s_cycle_bound : int;
  s_blocks : int;
  s_loops : int;
  s_cached_blocks : int;
  s_rows : row list;
}

exception E of Cfg.error

(* Memoized longest-path DP over a DAG; a gray node on the DFS stack
   means a cycle survived loop collapsing, i.e. the region has no
   natural-loop header to hang the bound on. *)
let dag_dp ~in_set ~succ ~cost ~on_cycle entry =
  let memo = Hashtbl.create 16 in
  let gray = Hashtbl.create 16 in
  let rec dp n =
    match Hashtbl.find_opt memo n with
    | Some v -> v
    | None ->
      if Hashtbl.mem gray n then on_cycle n;
      Hashtbl.replace gray n ();
      let e0, c0 = cost n in
      let be = ref 0.0 and bc = ref 0 in
      List.iter
        (fun s ->
          if in_set s then begin
            let e, c = dp s in
            if e > !be then be := e;
            if c > !bc then bc := c
          end)
        (succ n);
      Hashtbl.remove gray n;
      let v = (e0 +. !be, c0 + !bc) in
      Hashtbl.replace memo n v;
      v
  in
  dp entry

(* Iterative dominator sets over one function's blocks. *)
let dominators nodes entry ~preds =
  let all = ISet.of_list nodes in
  let dom = Hashtbl.create 16 in
  List.iter
    (fun n ->
      Hashtbl.replace dom n (if n = entry then ISet.singleton entry else all))
    nodes;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun n ->
        if n <> entry then begin
          let inter =
            List.fold_left
              (fun acc p ->
                let dp = Hashtbl.find dom p in
                match acc with
                | None -> Some dp
                | Some a -> Some (ISet.inter a dp))
              None (preds n)
          in
          let nd =
            ISet.add n (Option.value ~default:(ISet.singleton n) inter)
          in
          if not (ISet.equal nd (Hashtbl.find dom n)) then begin
            Hashtbl.replace dom n nd;
            changed := true
          end
        end)
      nodes
  done;
  dom

let analyze ?cache ?pool ?(name = "program") ~loop_bound pa cpu
    (img : Isa.Asm.image) =
  Telemetry.span "static" @@ fun () ->
  let pool = match pool with Some _ as p -> p | None -> Parallel.auto () in
  match Cfg.extract img with
  | Error e -> Error e
  | Ok cfg -> (
    try
      let block_of start =
        match Cfg.block_at cfg start with
        | Some b -> b
        | None -> raise (E (Cfg.Bad_decode { addr = start; word = 0 }))
      in
      (* Block characterizations, shared across functions. *)
      let costs : (int, Blockchar.cost) Hashtbl.t = Hashtbl.create 32 in
      let cost_of start =
        match Hashtbl.find_opt costs start with
        | Some c -> c
        | None ->
          let c =
            Blockchar.characterize ?cache ?pool pa cpu img (block_of start)
          in
          Hashtbl.replace costs start c;
          c
      in
      (* The combiner below consumes block costs strictly sequentially
         (call-graph DFS -> per-function walks), so on its own the pool
         only helps inside one block's exploration. Pre-characterize
         every reachable block as an independent pool task instead —
         block characterization dominates a cold static analysis, and
         the results are order-independent (content-addressed, merged by
         block start). Reachability mirrors the walk exactly
         (intra-procedural successors plus call targets), so the cost
         table, rows and block counts match the lazy path. *)
      (match pool with
      | None -> ()
      | Some p ->
        let seen = Hashtbl.create 32 in
        let q = Queue.create () in
        Hashtbl.replace seen cfg.Cfg.c_entry ();
        Queue.add cfg.Cfg.c_entry q;
        let order = ref [] in
        while not (Queue.is_empty q) do
          let s = Queue.pop q in
          order := s :: !order;
          let b = block_of s in
          let succs =
            match b.Cfg.b_term with
            | Cfg.T_call { callee; _ } -> callee :: Cfg.successors b
            | _ -> Cfg.successors b
          in
          List.iter
            (fun s' ->
              if not (Hashtbl.mem seen s') then begin
                Hashtbl.replace seen s' ();
                Queue.add s' q
              end)
            succs
        done;
        let futs =
          List.rev_map
            (fun s ->
              ( s,
                Parallel.Pool.async p (fun () ->
                    Blockchar.characterize ?cache ~pool:p pa cpu img
                      (block_of s)) ))
            !order
        in
        List.iter
          (fun (s, fut) -> Hashtbl.replace costs s (Parallel.Pool.await p fut))
          futs);
      let iters : (int, int) Hashtbl.t = Hashtbl.create 32 in
      let bump_iters start n =
        let cur = Option.value ~default:1 (Hashtbl.find_opt iters start) in
        Hashtbl.replace iters start (cur * n)
      in
      let n_loops = ref 0 in
      (* One function: blocks reachable intra-procedurally from [fentry],
         with callee summaries folded into their call blocks. Returns the
         worst-case (energy, cycles, peak) of one invocation. *)
      let summarize fentry ~callee_summary =
        let body = Hashtbl.create 16 in
        let q = Queue.create () in
        Queue.add fentry q;
        Hashtbl.replace body fentry ();
        while not (Queue.is_empty q) do
          let s = Queue.pop q in
          List.iter
            (fun s' ->
              if not (Hashtbl.mem body s') then begin
                Hashtbl.replace body s' ();
                Queue.add s' q
              end)
            (Cfg.successors (block_of s))
        done;
        let nodes = Hashtbl.fold (fun s () acc -> s :: acc) body [] in
        let orig_succ s =
          List.filter (Hashtbl.mem body) (Cfg.successors (block_of s))
        in
        let preds_tbl = Hashtbl.create 16 in
        List.iter
          (fun s ->
            List.iter
              (fun s' ->
                Hashtbl.replace preds_tbl s'
                  (s :: Option.value ~default:[] (Hashtbl.find_opt preds_tbl s')))
              (orig_succ s))
          nodes;
        let preds s = Option.value ~default:[] (Hashtbl.find_opt preds_tbl s) in
        let dom = dominators nodes fentry ~preds in
        (* Natural loops, grouped by header. *)
        let loops = Hashtbl.create 4 in
        List.iter
          (fun u ->
            List.iter
              (fun h ->
                if ISet.mem h (Hashtbl.find dom u) then begin
                  (* back edge u -> h: walk predecessors to the header *)
                  let bodyset =
                    ref
                      (Option.value ~default:(ISet.singleton h)
                         (Hashtbl.find_opt loops h))
                  in
                  let stack = ref [ u ] in
                  while !stack <> [] do
                    let x = List.hd !stack in
                    stack := List.tl !stack;
                    if not (ISet.mem x !bodyset) then begin
                      bodyset := ISet.add x !bodyset;
                      stack := preds x @ !stack
                    end
                  done;
                  Hashtbl.replace loops h !bodyset
                end)
              (orig_succ u))
          nodes;
        (* Current (collapsed) node state. *)
        let repr = Hashtbl.create 16 in
        let find_repr s = Option.value ~default:s (Hashtbl.find_opt repr s) in
        let members = Hashtbl.create 16 in
        let members_of n = Option.value ~default:[ n ] (Hashtbl.find_opt members n) in
        let node_cost = Hashtbl.create 16 in
        List.iter
          (fun s ->
            let c = cost_of s in
            let e, cyc, pk =
              match (block_of s).Cfg.b_term with
              | Cfg.T_call { callee; _ } ->
                let ce, cc, cp = callee_summary callee in
                (c.Blockchar.energy_j +. ce, c.Blockchar.cycles + cc,
                 Float.max c.Blockchar.peak_w cp)
              | _ -> (c.Blockchar.energy_j, c.Blockchar.cycles, c.Blockchar.peak_w)
            in
            Hashtbl.replace node_cost s (e, cyc, pk))
          nodes;
        let alive = ref (ISet.of_list nodes) in
        let cur_succ n =
          List.concat_map
            (fun x -> List.map find_repr (orig_succ x))
            (members_of n)
          |> List.filter (fun s -> s <> n)
          |> List.sort_uniq compare
        in
        let cost2 n =
          let e, c, _ = Hashtbl.find node_cost n in
          (e, c)
        in
        let n = loop_bound + 1 in
        let loop_list =
          Hashtbl.fold (fun h b acc -> (h, b) :: acc) loops []
          |> List.sort (fun (_, a) (_, b) ->
                 compare (ISet.cardinal a) (ISet.cardinal b))
        in
        List.iter
          (fun (h, body_orig) ->
            incr n_loops;
            let body_cur =
              ISet.fold (fun x acc -> ISet.add (find_repr x) acc) body_orig
                ISet.empty
            in
            let in_body s = ISet.mem s body_cur && s <> h in
            let iter_e, iter_c =
              dag_dp ~in_set:in_body ~succ:cur_succ ~cost:cost2
                ~on_cycle:(fun x -> raise (E (Cfg.Irreducible { addr = x })))
                h
            in
            let peak =
              ISet.fold
                (fun x acc ->
                  let _, _, pk = Hashtbl.find node_cost x in
                  Float.max acc pk)
                body_cur 0.0
            in
            let merged =
              ISet.fold (fun x acc -> members_of x @ acc) body_cur []
            in
            Hashtbl.replace node_cost h
              (float_of_int n *. iter_e, n * iter_c, peak);
            Hashtbl.replace members h merged;
            List.iter
              (fun x ->
                bump_iters x n;
                Hashtbl.replace repr x h)
              merged;
            ISet.iter
              (fun x -> if x <> h then alive := ISet.remove x !alive)
              body_cur)
          loop_list;
        let entry_cur = find_repr fentry in
        let e, c =
          dag_dp
            ~in_set:(fun s -> ISet.mem s !alive)
            ~succ:cur_succ ~cost:cost2
            ~on_cycle:(fun x -> raise (E (Cfg.Irreducible { addr = x })))
            entry_cur
        in
        let pk =
          ISet.fold
            (fun x acc ->
              let _, _, pk = Hashtbl.find node_cost x in
              Float.max acc pk)
            !alive 0.0
        in
        (e, c, pk)
      in
      (* Call-graph DFS from the program entry, callees summarized first;
         a gray function means recursion. *)
      let summaries = Hashtbl.create 4 in
      let on_stack = Hashtbl.create 4 in
      let rec summary_of f =
        match Hashtbl.find_opt summaries f with
        | Some s -> s
        | None ->
          if Hashtbl.mem on_stack f then raise (E (Cfg.Recursive_call { addr = f }));
          Hashtbl.replace on_stack f ();
          let s = summarize f ~callee_summary:summary_of in
          Hashtbl.remove on_stack f;
          Hashtbl.replace summaries f s;
          s
      in
      let prog_e, prog_c, prog_pk = summary_of cfg.Cfg.c_entry in
      let boot =
        match Hashtbl.find_opt costs cfg.Cfg.c_entry with
        | Some c -> c
        | None -> cost_of cfg.Cfg.c_entry
      in
      let rows =
        Hashtbl.fold
          (fun start (c : Blockchar.cost) acc ->
            let b = block_of start in
            {
              r_start = start;
              r_limit = b.Cfg.b_limit;
              r_label = Cfg.terminator_to_string b.Cfg.b_term;
              r_insns = List.length b.Cfg.b_insns;
              r_iters = Option.value ~default:1 (Hashtbl.find_opt iters start);
              r_cycles = c.Blockchar.cycles;
              r_peak_w = c.Blockchar.peak_w;
              r_energy_j = c.Blockchar.energy_j;
              r_cached = c.Blockchar.from_cache;
            }
            :: acc)
          costs []
        |> List.sort (fun a b -> compare a.r_start b.r_start)
      in
      Ok
        {
          s_name = name;
          s_peak_power_w = Float.max prog_pk boot.Blockchar.boot_peak_w;
          s_peak_energy_j = prog_e +. boot.Blockchar.boot_energy_j;
          s_cycle_bound = prog_c + boot.Blockchar.boot_cycles;
          s_blocks = Hashtbl.length costs;
          s_loops = !n_loops;
          s_cached_blocks =
            Hashtbl.fold
              (fun _ (c : Blockchar.cost) acc ->
                if c.Blockchar.from_cache then acc + 1 else acc)
              costs 0;
          s_rows = rows;
        }
    with E e -> Error e)

(* {1 Rendering} *)

let to_table t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "static bound (%s): peak power %.3f mW, peak energy %.3f nJ over %d \
        cycles\n"
       t.s_name
       (t.s_peak_power_w *. 1e3)
       (t.s_peak_energy_j *. 1e9)
       t.s_cycle_bound);
  Buffer.add_string buf
    (Printf.sprintf "blocks %d (%d cached), loops %d\n" t.s_blocks
       t.s_cached_blocks t.s_loops);
  Buffer.add_string buf
    " start   limit  insns  iters  cycles  peak mW  energy nJ  terminator\n";
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "0x%04x  0x%04x  %5d  %5d  %6d  %7.3f  %9.3f  %s\n"
           r.r_start r.r_limit r.r_insns r.r_iters r.r_cycles
           (r.r_peak_w *. 1e3)
           (r.r_energy_j *. 1e9)
           r.r_label))
    t.s_rows;
  Buffer.contents buf

let to_json t =
  let open Explain.Ejson in
  let int n = Num (float_of_int n) in
  to_string
    (Obj
       [
         ("name", Str t.s_name);
         ("tier", Str "static");
         ("peak_power_w", Num t.s_peak_power_w);
         ("peak_energy_j", Num t.s_peak_energy_j);
         ("cycle_bound", int t.s_cycle_bound);
         ("blocks", int t.s_blocks);
         ("loops", int t.s_loops);
         ("cached_blocks", int t.s_cached_blocks);
         ( "rows",
           Arr
             (List.map
                (fun r ->
                  Obj
                    [
                      ("start", int r.r_start);
                      ("limit", int r.r_limit);
                      ("insns", int r.r_insns);
                      ("iters", int r.r_iters);
                      ("cycles", int r.r_cycles);
                      ("peak_w", Num r.r_peak_w);
                      ("energy_j", Num r.r_energy_j);
                      ("cached", Bool r.r_cached);
                      ("terminator", Str r.r_label);
                    ])
                t.s_rows) );
       ])

let to_csv t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "start,limit,insns,iters,cycles,peak_w,energy_j,cached,terminator\n";
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "0x%04x,0x%04x,%d,%d,%d,%.9g,%.9g,%b,%s\n" r.r_start
           r.r_limit r.r_insns r.r_iters r.r_cycles r.r_peak_w r.r_energy_j
           r.r_cached r.r_label))
    t.s_rows;
  Buffer.contents buf
