type cycle = {
  deltas : int array;
  x_active : int array;
  pc : Tri.Word.t;
  state : Tri.Word.t;
  ir : Tri.Word.t;
}

(* Packed delta: bits [4..] net id, bits [2..3] old trit, bits [0..1]
   new trit. *)
let pack ~net ~old_v ~new_v = (net lsl 4) lor (old_v lsl 2) lor new_v
let[@inline] net p = p lsr 4
let[@inline] old_v p = (p lsr 2) land 3
let[@inline] new_v p = p land 3

let activity c = Array.length c.deltas + Array.length c.x_active

type node =
  | Run of { cycles : cycle array; next : node }
  | Fork of { not_taken : node; taken : node }
  | End_path
  | Seen of string

type tree = {
  root : node;
  registry : (string, node ref) Hashtbl.t;
  initial : int array;
}

let iter_segments tree f =
  let rec go = function
    | Run { cycles; next } ->
      f cycles;
      go next
    | Fork { not_taken; taken } ->
      go not_taken;
      go taken
    | End_path | Seen _ -> ()
  in
  go tree.root

let flatten tree =
  let acc = ref [] in
  iter_segments tree (fun seg -> acc := seg :: !acc);
  Array.concat (List.rev !acc)

let iter_paths tree f =
  let rec go prefix = function
    | Run { cycles; next } -> go (cycles :: prefix) next
    | Fork { not_taken; taken } ->
      go prefix not_taken;
      go prefix taken
    | End_path -> f (List.rev prefix) `End
    | Seen d -> f (List.rev prefix) (`Seen d)
  in
  go [] tree.root

let count_cycles tree =
  let n = ref 0 in
  iter_segments tree (fun seg -> n := !n + Array.length seg);
  !n

let count_paths tree =
  let n = ref 0 in
  iter_paths tree (fun _ _ -> incr n);
  !n
