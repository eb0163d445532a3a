type signal = int
type bus = signal array

type ctx = {
  b : Netlist.Builder.t;
  mutable gnd_ : signal option;
  mutable vdd_ : signal option;
}

let create () = { b = Netlist.Builder.create (); gnd_ = None; vdd_ = None }
let builder ctx = ctx.b
let set_module ctx name = Netlist.Builder.set_module ctx.b name
let freeze ctx = Netlist.Builder.freeze ctx.b
let name_signal ctx name s = Netlist.Builder.name_net ctx.b name s

let name_bus ctx name b =
  Array.iteri
    (fun i s -> Netlist.Builder.name_net ctx.b (Printf.sprintf "%s[%d]" name i) s)
    b

let gnd ctx =
  match ctx.gnd_ with
  | Some s -> s
  | None ->
    let s = Netlist.Builder.add_const ctx.b Tri.Zero in
    ctx.gnd_ <- Some s;
    s

let vdd ctx =
  match ctx.vdd_ with
  | Some s -> s
  | None ->
    let s = Netlist.Builder.add_const ctx.b Tri.One in
    ctx.vdd_ <- Some s;
    s

let input ctx = Netlist.Builder.add_input ctx.b
let input_bus ctx w = Array.init w (fun _ -> input ctx)

let const ctx ~width n =
  Array.init width (fun i -> if (n lsr i) land 1 = 1 then vdd ctx else gnd ctx)

let g1 ctx cell a = Netlist.Builder.add_gate ctx.b cell [| a |]
let g2 ctx cell a b = Netlist.Builder.add_gate ctx.b cell [| a; b |]

(* Constant folding keeps the netlist lean without changing semantics. *)
let is_const ctx s = Some s = ctx.gnd_ || Some s = ctx.vdd_
let const_val ctx s = if Some s = ctx.vdd_ then true else false

let not_ ctx a =
  if is_const ctx a then (if const_val ctx a then gnd ctx else vdd ctx)
  else g1 ctx Netlist.Inv a

let and_ ctx a b =
  if is_const ctx a then (if const_val ctx a then b else gnd ctx)
  else if is_const ctx b then (if const_val ctx b then a else gnd ctx)
  else if a = b then a
  else g2 ctx Netlist.And2 a b

let or_ ctx a b =
  if is_const ctx a then (if const_val ctx a then vdd ctx else b)
  else if is_const ctx b then (if const_val ctx b then vdd ctx else a)
  else if a = b then a
  else g2 ctx Netlist.Or2 a b

let nor_ ctx a b =
  if is_const ctx a || is_const ctx b || a = b then not_ ctx (or_ ctx a b)
  else g2 ctx Netlist.Nor2 a b

let xor_ ctx a b =
  if is_const ctx a then (if const_val ctx a then not_ ctx b else b)
  else if is_const ctx b then (if const_val ctx b then not_ ctx a else a)
  else if a = b then gnd ctx
  else g2 ctx Netlist.Xor2 a b

let xnor_ ctx a b =
  if is_const ctx a || is_const ctx b || a = b then not_ ctx (xor_ ctx a b)
  else g2 ctx Netlist.Xnor2 a b

let mux ctx ~sel a b =
  if is_const ctx sel then (if const_val ctx sel then b else a)
  else if a = b then a
  else if is_const ctx a && is_const ctx b then
    (* a=0,b=1 -> sel; a=1,b=0 -> not sel *)
    if const_val ctx b then sel else not_ ctx sel
  else Netlist.Builder.add_gate ctx.b Netlist.Mux2 [| sel; a; b |]

let rec reduce ctx op = function
  | [] -> invalid_arg "Rtl.reduce: empty"
  | [ s ] -> s
  | l ->
    (* Balanced tree keeps logic depth (and glitch potential) low. *)
    let rec pair = function
      | [] -> []
      | [ s ] -> [ s ]
      | a :: b :: rest -> op ctx a b :: pair rest
    in
    reduce ctx op (pair l)

let and_many ctx l = reduce ctx and_ l
let or_many ctx l = reduce ctx or_ l

let width b = Array.length b
let slice b lo len = Array.sub b lo len
let concat parts = Array.concat parts
let repeat s n = Array.make n s
let zext ctx b w =
  if w < width b then invalid_arg "Rtl.zext";
  Array.append b (repeat (gnd ctx) (w - width b))

let sext _ctx b w =
  if w < width b then invalid_arg "Rtl.sext";
  Array.append b (repeat b.(width b - 1) (w - width b))

let check_same a b name = if width a <> width b then invalid_arg name

let bnot ctx a = Array.map (not_ ctx) a
let band ctx a b = check_same a b "Rtl.band"; Array.map2 (and_ ctx) a b
let bor ctx a b = check_same a b "Rtl.bor"; Array.map2 (or_ ctx) a b
let bxor ctx a b = check_same a b "Rtl.bxor"; Array.map2 (xor_ ctx) a b

let bmux ctx ~sel a b =
  check_same a b "Rtl.bmux";
  Array.map2 (fun x y -> mux ctx ~sel x y) a b

let mux_tree ctx sel cases =
  if Array.length cases = 0 then invalid_arg "Rtl.mux_tree: no cases";
  let n = 1 lsl width sel in
  let get i = if i < Array.length cases then cases.(i) else cases.(Array.length cases - 1) in
  let rec go bit lo count =
    if count = 1 then get lo
    else
      let half = count / 2 in
      let a = go (bit - 1) lo half and b = go (bit - 1) (lo + half) half in
      bmux ctx ~sel:sel.(bit) a b
  in
  go (width sel - 1) 0 n

let pmux ctx cases default =
  List.fold_right (fun (cond, b) acc -> bmux ctx ~sel:cond acc b) cases default

let decode ctx sel =
  let w = width sel in
  let n = 1 lsl w in
  Array.init n (fun i ->
      let terms =
        List.init w (fun bit ->
            if (i lsr bit) land 1 = 1 then sel.(bit) else not_ ctx sel.(bit))
      in
      and_many ctx terms)

let full_add ctx a b c =
  let axb = xor_ ctx a b in
  let s = xor_ ctx axb c in
  let co = or_ ctx (and_ ctx a b) (and_ ctx axb c) in
  (s, co)

let adder ctx a b ~cin =
  check_same a b "Rtl.adder";
  let w = width a in
  let sum = Array.make w (gnd ctx) in
  let c = ref cin in
  for i = 0 to w - 1 do
    let s, co = full_add ctx a.(i) b.(i) !c in
    sum.(i) <- s;
    c := co
  done;
  (sum, !c)

let add ctx a b = fst (adder ctx a b ~cin:(gnd ctx))
let sub ctx a b = fst (adder ctx a (bnot ctx b) ~cin:(vdd ctx))
let inc ctx a = fst (adder ctx a (const ctx ~width:(width a) 0) ~cin:(vdd ctx))
let neg ctx a = fst (adder ctx (const ctx ~width:(width a) 0) (bnot ctx a) ~cin:(vdd ctx))

let eq ctx a b =
  check_same a b "Rtl.eq";
  and_many ctx (Array.to_list (Array.map2 (xnor_ ctx) a b))

let eq_const ctx a n = eq ctx a (const ctx ~width:(width a) n)

let is_zero ctx a =
  not_ ctx (or_many ctx (Array.to_list a))

let lt_unsigned ctx a b =
  (* a < b iff subtraction a - b borrows, i.e. carry-out of a + ~b + 1 = 0 *)
  let _, cout = adder ctx a (bnot ctx b) ~cin:(vdd ctx) in
  not_ ctx cout

(* Two's-complement array multiplier: partial products are
   sign-extended to the full output width and the final one (the sign
   row, weight -2^(n-1)) is subtracted. *)
let mul_array_signed ctx a b =
  let n = width a in
  if width b <> n then invalid_arg "Rtl.mul_array_signed";
  let wout = 2 * n in
  let pp i =
    Array.init wout (fun j ->
        if j < i then gnd ctx
        else
          let k = j - i in
          let abit = if k < n then a.(k) else a.(n - 1) in
          and_ ctx abit b.(i))
  in
  let acc = ref (pp 0) in
  for i = 1 to n - 2 do
    acc := add ctx !acc (pp i)
  done;
  acc := sub ctx !acc (pp (n - 1));
  !acc

let mul_array ctx a b =
  let wa = width a and wb = width b in
  let wout = wa + wb in
  let acc = ref (const ctx ~width:wout 0) in
  for i = 0 to wb - 1 do
    let partial =
      Array.init wout (fun j ->
          if j < i || j - i >= wa then gnd ctx else and_ ctx a.(j - i) b.(i))
    in
    acc := add ctx !acc partial
  done;
  !acc

type reg = { bits : bus; mutable connected : bool; ctx_tag : ctx }

let reg ctx ~width:w =
  let bits = Array.init w (fun _ -> Netlist.Builder.add_dffe ctx.b) in
  { bits; connected = false; ctx_tag = ctx }

let q r = r.bits

(* Registers elaborate to enable-flops: the hold condition is carried on
   the enable pin rather than a mux back to the output, so the symbolic
   activity analysis can tell a held (stable) unknown from one that may
   be rewritten. Reset overrides enable. *)
let connect ctx r ?reset ?(reset_to = 0) ?enable d =
  if r.connected then invalid_arg "Rtl.connect: register already connected";
  if ctx != r.ctx_tag then invalid_arg "Rtl.connect: register from another ctx";
  if width d <> width r.bits then invalid_arg "Rtl.connect: width mismatch";
  r.connected <- true;
  let en = match enable with None -> vdd ctx | Some en -> en in
  let en, d =
    match reset with
    | None -> (en, d)
    | Some rst ->
      (or_ ctx rst en, bmux ctx ~sel:rst d (const ctx ~width:(width d) reset_to))
  in
  Array.iteri
    (fun i dff -> Netlist.Builder.set_dffe_inputs ctx.b dff ~en ~d:d.(i))
    r.bits
