type cell =
  | Input
  | Const of Tri.t
  | Buf
  | Inv
  | And2
  | Or2
  | Nand2
  | Nor2
  | Xor2
  | Xnor2
  | Mux2
  | Dff
  | Dffe

let cell_name = function
  | Input -> "input"
  | Const Tri.Zero -> "const0"
  | Const Tri.One -> "const1"
  | Const Tri.X -> "constx"
  | Buf -> "buf"
  | Inv -> "inv"
  | And2 -> "and2"
  | Or2 -> "or2"
  | Nand2 -> "nand2"
  | Nor2 -> "nor2"
  | Xor2 -> "xor2"
  | Xnor2 -> "xnor2"
  | Mux2 -> "mux2"
  | Dff -> "dff"
  | Dffe -> "dffe"

let cell_arity = function
  | Input | Const _ -> 0
  | Buf | Inv | Dff -> 1
  | And2 | Or2 | Nand2 | Nor2 | Xor2 | Xnor2 | Dffe -> 2
  | Mux2 -> 3

let is_sequential = function
  | Dff | Dffe -> true
  | Input | Const _ | Buf | Inv | And2 | Or2 | Nand2 | Nor2 | Xor2 | Xnor2
  | Mux2 ->
    false

type gate = { id : int; cell : cell; fanins : int array; module_id : int }

type t = {
  gates : gate array;
  module_names : string array;
  net_names : (string * int) list;
  topo : int array;
  dffs : int array;
  inputs : int array;
  fanouts : int array array;
  levels : int array;
  level_starts : int array;
}

let level_count nl = Array.length nl.level_starts - 1

let gate_count nl = Array.length nl.gates
let dff_count nl = Array.length nl.dffs

let find_net nl name =
  match List.assoc_opt name nl.net_names with
  | Some id -> id
  | None -> invalid_arg (Printf.sprintf "Netlist.find_net: no net %S" name)

let module_of nl id = nl.module_names.(nl.gates.(id).module_id)

let fanin_cone nl roots =
  let seen = Array.make (gate_count nl) false in
  let rec visit id =
    if not seen.(id) then begin
      seen.(id) <- true;
      let g = nl.gates.(id) in
      if not (is_sequential g.cell) then Array.iter visit g.fanins
    end
  in
  Array.iter visit roots;
  seen

exception Combinational_loop of int list

module Builder = struct
  type netlist = t

  type pending = {
    mutable p_cell : cell;
    mutable p_fanins : int array;
    p_module : int;
  }

  type t = {
    mutable by_id : pending array;  (* grown by doubling; [count] used *)
    mutable count : int;
    mutable modules : string list;  (* reversed *)
    mutable module_count : int;
    mutable current_module : int;
    mutable names : (string * int) list;
  }

  let create () =
    {
      by_id = [||];
      count = 0;
      modules = [ "top" ];
      module_count = 1;
      current_module = 0;
      names = [];
    }

  let set_module b name =
    let rec find i = function
      | [] -> None
      | m :: _ when String.equal m name -> Some (b.module_count - 1 - i)
      | _ :: rest -> find (i + 1) rest
    in
    match find 0 b.modules with
    | Some id -> b.current_module <- id
    | None ->
      b.modules <- name :: b.modules;
      b.current_module <- b.module_count;
      b.module_count <- b.module_count + 1

  let push b p =
    let id = b.count in
    if id = Array.length b.by_id then begin
      let grown = Array.make (max 256 (2 * id)) p in
      Array.blit b.by_id 0 grown 0 id;
      b.by_id <- grown
    end;
    b.by_id.(id) <- p;
    b.count <- id + 1;
    id

  let add_raw b cell fanins =
    push b { p_cell = cell; p_fanins = fanins; p_module = b.current_module }

  let add_input b = add_raw b Input [||]
  let add_const b v = add_raw b (Const v) [||]

  let add_gate b cell fanins =
    let arity = cell_arity cell in
    if Array.length fanins <> arity then
      invalid_arg
        (Printf.sprintf "Netlist.Builder.add_gate: %s expects %d fanins, got %d"
           (cell_name cell) arity (Array.length fanins));
    if not (is_sequential cell) then
      Array.iter
        (fun f ->
          if f < 0 || f >= b.count then
            invalid_arg
              (Printf.sprintf
                 "Netlist.Builder.add_gate: forward combinational fanin %d" f))
        fanins;
    add_raw b cell fanins

  let add_dff b = add_raw b Dff [| -1 |]
  let add_dffe b = add_raw b Dffe [| -1; -1 |]

  let set_dff_input b dff d =
    if dff < 0 || dff >= b.count then invalid_arg "set_dff_input: bad dff id";
    let p = b.by_id.(dff) in
    (match p.p_cell with
    | Dff -> ()
    | _ -> invalid_arg "set_dff_input: target is not a dff");
    p.p_fanins <- [| d |]

  let set_dffe_inputs b dff ~en ~d =
    if dff < 0 || dff >= b.count then invalid_arg "set_dffe_inputs: bad dff id";
    let p = b.by_id.(dff) in
    (match p.p_cell with
    | Dffe -> ()
    | _ -> invalid_arg "set_dffe_inputs: target is not a dffe");
    p.p_fanins <- [| en; d |]

  let name_net b name id =
    if id < 0 || id >= b.count then invalid_arg "name_net: bad net id";
    b.names <- (name, id) :: b.names

  let freeze b =
    let n = b.count in
    let gates =
      Array.mapi
        (fun id p ->
          Array.iter
            (fun f ->
              if f < 0 || f >= n then
                invalid_arg
                  (Printf.sprintf "Netlist.freeze: gate %d has dangling fanin"
                     id))
            p.p_fanins;
          { id; cell = p.p_cell; fanins = p.p_fanins; module_id = p.p_module })
        (Array.sub b.by_id 0 n)
    in
    let module_names =
      let arr = Array.of_list (List.rev b.modules) in
      arr
    in
    (* Topological sort of combinational gates; Dff/Input/Const are
       sources whose values exist before combinational evaluation. *)
    let state = Array.make n 0 (* 0 unvisited, 1 in progress, 2 done *) in
    let order = ref [] in
    let rec visit id stack =
      match state.(id) with
      | 2 -> ()
      | 1 -> raise (Combinational_loop (id :: stack))
      | _ ->
        let g = gates.(id) in
        if is_sequential g.cell || g.cell = Input then state.(id) <- 2
        else begin
          state.(id) <- 1;
          Array.iter (fun f -> visit f (id :: stack)) g.fanins;
          state.(id) <- 2;
          match g.cell with
          | Const _ | Input | Dff | Dffe -> ()
          | Buf | Inv | And2 | Or2 | Nand2 | Nor2 | Xor2 | Xnor2 | Mux2 ->
            order := id :: !order
        end
    in
    for id = 0 to n - 1 do
      visit id []
    done;
    let ncomb = List.length !order in
    (* Logic levels: sources (inputs, constants, flops) are level 0; a
       combinational gate sits one level past its deepest fanin. Ids are
       dependency-ordered for combinational gates (the builder rejects
       forward combinational fanins), so one ascending pass suffices. *)
    let levels = Array.make n 0 in
    let max_level = ref 0 in
    for id = 0 to n - 1 do
      let g = gates.(id) in
      match g.cell with
      | Input | Const _ | Dff | Dffe -> ()
      | Buf | Inv | And2 | Or2 | Nand2 | Nor2 | Xor2 | Xnor2 | Mux2 ->
        let lv =
          Array.fold_left (fun m f -> max m (levels.(f) + 1)) 1 g.fanins
        in
        levels.(id) <- lv;
        if lv > !max_level then max_level := lv
    done;
    (* The evaluation order is partitioned by level (counting sort, ids
       ascending within a level) — still a valid topological order, and
       the compiled simulation kernel relies on the partitioning to keep
       its dirty bits clustered. [level_starts] has [max_level + 2]
       entries: level [l]'s combinational gates are
       [topo.(level_starts.(l)) .. topo.(level_starts.(l+1) - 1)]
       (levels 0 holds no combinational gate, so its range is empty). *)
    let level_starts = Array.make (!max_level + 2) 0 in
    for id = 0 to n - 1 do
      if levels.(id) > 0 then
        level_starts.(levels.(id) + 1) <- level_starts.(levels.(id) + 1) + 1
    done;
    for l = 1 to !max_level + 1 do
      level_starts.(l) <- level_starts.(l) + level_starts.(l - 1)
    done;
    let topo = Array.make ncomb 0 in
    let fill_pos = Array.copy level_starts in
    for id = 0 to n - 1 do
      if levels.(id) > 0 then begin
        topo.(fill_pos.(levels.(id))) <- id;
        fill_pos.(levels.(id)) <- fill_pos.(levels.(id)) + 1
      end
    done;
    let dffs =
      Array.of_seq
        (Seq.filter
           (fun id -> match gates.(id).cell with Dff | Dffe -> true | _ -> false)
           (Seq.init n (fun i -> i)))
    in
    let inputs =
      Array.of_seq
        (Seq.filter (fun id -> gates.(id).cell = Input)
           (Seq.init n (fun i -> i)))
    in
    let fanout_counts = Array.make n 0 in
    Array.iter
      (fun g ->
        Array.iter (fun f -> fanout_counts.(f) <- fanout_counts.(f) + 1) g.fanins)
      gates;
    let fanouts = Array.map (fun c -> Array.make c 0) fanout_counts in
    let fill = Array.make n 0 in
    Array.iter
      (fun g ->
        Array.iter
          (fun f ->
            fanouts.(f).(fill.(f)) <- g.id;
            fill.(f) <- fill.(f) + 1)
          g.fanins)
      gates;
    {
      gates;
      module_names;
      net_names = b.names;
      topo;
      dffs;
      inputs;
      fanouts;
      levels;
      level_starts;
    }
end

module Stats = struct
  type counts = {
    total : int;
    sequential : int;
    combinational : int;
    by_cell : (string * int) list;
    by_module : (string * int) list;
  }

  let bump tbl key =
    Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))

  let compute nl =
    let cells = Hashtbl.create 16 and mods = Hashtbl.create 16 in
    let seq = ref 0 in
    Array.iter
      (fun g ->
        bump cells (cell_name g.cell);
        bump mods nl.module_names.(g.module_id);
        if is_sequential g.cell then incr seq)
      nl.gates;
    let sorted tbl =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    in
    {
      total = Array.length nl.gates;
      sequential = !seq;
      combinational = Array.length nl.gates - !seq;
      by_cell = sorted cells;
      by_module = sorted mods;
    }

  let pp fmt c =
    Format.fprintf fmt "gates: %d (%d seq, %d comb)@." c.total c.sequential
      c.combinational;
    Format.fprintf fmt "by cell:@.";
    List.iter (fun (k, v) -> Format.fprintf fmt "  %-8s %6d@." k v) c.by_cell;
    Format.fprintf fmt "by module:@.";
    List.iter (fun (k, v) -> Format.fprintf fmt "  %-14s %6d@." k v) c.by_module
end

(* Application-specific constant analysis over the reset protocol.

   A ternary model of the netlist is simulated through the driver's
   reset sequence — every input X except reset, memory read data X (a
   sound over-approximation of the bus keeper), [pre] cycles with reset
   asserted, [settle] cycles deasserted — and every flop whose settled
   value equals its own pending next-state value becomes a fold
   *candidate*. A greatest-fixpoint demotion loop then re-evaluates the
   model from "candidates at their settled codes, everything else X,
   reset deasserted" and demotes any candidate whose next-state no
   longer reproduces its code, until the candidate set is inductively
   invariant: once the real simulation reaches a state agreeing with the
   final vector on every folded net (with reset held low), Kleene
   monotonicity guarantees it agrees forever, for *any* values on the
   remaining inputs. Every net definite in the final vector — constants,
   the reset input, surviving candidate flops and the combinational cone
   they pin — is "folded": provably invariant, hence contributing zero
   switching activity from that point on. *)
module Specialize = struct
  type netlist = t

  type t = {
    codes : int array;  (* per net: Tri.I code of the invariant value *)
    folded_plane : int array;  (* bit-plane over net ids *)
    folded_count : int;
    folded_comb : int;
    swept : int;
  }

  let folded_count t = t.folded_count
  let folded_comb t = t.folded_comb
  let swept t = t.swept
  let code t id = t.codes.(id)

  let is_folded t id =
    (t.folded_plane.(id lsr 5) lsr (id land 31)) land 1 = 1

  let eval_cell cell (codes : int array) (f : int array) =
    let open Tri.I in
    match cell with
    | Buf -> codes.(f.(0))
    | Inv -> lnot codes.(f.(0))
    | And2 -> land_ codes.(f.(0)) codes.(f.(1))
    | Or2 -> lor_ codes.(f.(0)) codes.(f.(1))
    | Nand2 -> lnand codes.(f.(0)) codes.(f.(1))
    | Nor2 -> lnor codes.(f.(0)) codes.(f.(1))
    | Xor2 -> lxor_ codes.(f.(0)) codes.(f.(1))
    | Xnor2 -> lxnor codes.(f.(0)) codes.(f.(1))
    | Mux2 -> mux codes.(f.(0)) codes.(f.(1)) codes.(f.(2))
    | Input | Const _ | Dff | Dffe -> assert false

  let compute ?(pre = 2) ?(settle = 3) nl ~reset =
    (match nl.gates.(reset).cell with
    | Input -> ()
    | _ -> invalid_arg "Netlist.Specialize.compute: reset is not an input");
    let n = Array.length nl.gates in
    let ndffs = Array.length nl.dffs in
    let x = Tri.I.x in
    let codes = Array.make n x in
    let dnext = Array.make ndffs x in
    let seed_consts () =
      Array.iter
        (fun g ->
          match g.cell with
          | Const c -> codes.(g.id) <- Tri.to_int c
          | _ -> ())
        nl.gates
    in
    seed_consts ();
    let eval_comb () =
      Array.iter
        (fun id ->
          let g = nl.gates.(id) in
          codes.(id) <- eval_cell g.cell codes g.fanins)
        nl.topo
    in
    let compute_dnext () =
      Array.iteri
        (fun i id ->
          let g = nl.gates.(id) in
          dnext.(i) <-
            (match g.cell with
            | Dff -> codes.(g.fanins.(0))
            | Dffe ->
              Tri.I.mux codes.(g.fanins.(0)) codes.(id) codes.(g.fanins.(1))
            | _ -> assert false))
        nl.dffs
    in
    (* One protocol cycle, mirroring the engine: clock edge, external
       drives (reset at [rst], everything else X), settle, pending
       next-state. *)
    let cycle rst =
      Array.iteri (fun i id -> codes.(id) <- dnext.(i)) nl.dffs;
      Array.iter (fun id -> codes.(id) <- x) nl.inputs;
      codes.(reset) <- rst;
      eval_comb ();
      compute_dnext ()
    in
    for _ = 1 to pre do
      cycle 1
    done;
    for _ = 1 to settle do
      cycle 0
    done;
    let settled = Array.copy codes in
    let cand = Array.make ndffs false in
    Array.iteri
      (fun i id -> cand.(i) <- settled.(id) <> x && dnext.(i) = settled.(id))
      nl.dffs;
    (* Greatest-fixpoint demotion: candidates must reproduce their codes
       from the trial state alone. *)
    let changed = ref true in
    while !changed do
      changed := false;
      Array.fill codes 0 n x;
      seed_consts ();
      Array.iteri
        (fun i id -> if cand.(i) then codes.(id) <- settled.(id))
        nl.dffs;
      codes.(reset) <- Tri.I.zero;
      eval_comb ();
      compute_dnext ();
      Array.iteri
        (fun i id ->
          if cand.(i) && dnext.(i) <> settled.(id) then begin
            cand.(i) <- false;
            changed := true
          end)
        nl.dffs
    done;
    (* [codes] now holds the final (inductively invariant) vector. *)
    let folded_plane = Array.make ((n + 31) lsr 5) 0 in
    let folded_count = ref 0 in
    for id = 0 to n - 1 do
      if codes.(id) <> x then begin
        folded_plane.(id lsr 5) <-
          folded_plane.(id lsr 5) lor (1 lsl (id land 31));
        incr folded_count
      end
    done;
    let is_f id = (folded_plane.(id lsr 5) lsr (id land 31)) land 1 = 1 in
    let folded_comb = ref 0 in
    let swept = ref 0 in
    Array.iter
      (fun id ->
        if is_f id then begin
          incr folded_comb;
          if Array.for_all is_f nl.fanouts.(id) then incr swept
        end)
      nl.topo;
    {
      codes;
      folded_plane;
      folded_count = !folded_count;
      folded_comb = !folded_comb;
      swept = !swept;
    }
end
