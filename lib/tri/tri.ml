type t = Zero | One | X

let equal a b =
  match a, b with
  | Zero, Zero | One, One | X, X -> true
  | (Zero | One | X), _ -> false

let to_int = function Zero -> 0 | One -> 1 | X -> 2

let of_int = function
  | 0 -> Zero
  | 1 -> One
  | 2 -> X
  | n -> invalid_arg (Printf.sprintf "Tri.of_int: %d" n)

let compare a b = Int.compare (to_int a) (to_int b)
let to_char = function Zero -> '0' | One -> '1' | X -> 'x'

let of_char = function
  | '0' -> Zero
  | '1' -> One
  | 'x' | 'X' -> X
  | c -> invalid_arg (Printf.sprintf "Tri.of_char: %c" c)

let pp fmt t = Format.pp_print_char fmt (to_char t)
let of_bool b = if b then One else Zero
let is_x = function X -> true | Zero | One -> false

let lnot = function Zero -> One | One -> Zero | X -> X

let ( &&& ) a b =
  match a, b with
  | Zero, _ | _, Zero -> Zero
  | One, One -> One
  | (One | X), (One | X) -> X

let ( ||| ) a b =
  match a, b with
  | One, _ | _, One -> One
  | Zero, Zero -> Zero
  | (Zero | X), (Zero | X) -> X

let xor a b =
  match a, b with
  | X, _ | _, X -> X
  | Zero, Zero | One, One -> Zero
  | (Zero | One), (Zero | One) -> One

let lnand a b = lnot (a &&& b)
let lnor a b = lnot (a ||| b)
let lxnor a b = lnot (xor a b)

let mux sel a b =
  match sel with
  | Zero -> a
  | One -> b
  | X -> if equal a b then a else X

module I = struct
  let zero = 0
  let one = 1
  let x = 2

  (* Lookup tables: index [a * 3 + b]. Branch-free inner loops matter in
     the levelized simulator. *)
  let and_tbl = [| 0; 0; 0; 0; 1; 2; 0; 2; 2 |]
  let or_tbl = [| 0; 1; 2; 1; 1; 1; 2; 1; 2 |]
  let xor_tbl = [| 0; 1; 2; 1; 0; 2; 2; 2; 2 |]
  let not_tbl = [| 1; 0; 2 |]

  let lnot a = Array.unsafe_get not_tbl a
  let land_ a b = Array.unsafe_get and_tbl ((a * 3) + b)
  let lor_ a b = Array.unsafe_get or_tbl ((a * 3) + b)
  let lxor_ a b = Array.unsafe_get xor_tbl ((a * 3) + b)
  let lnand a b = lnot (land_ a b)
  let lnor a b = lnot (lor_ a b)
  let lxnor a b = lnot (lxor_ a b)

  let mux sel a b =
    if sel = 0 then a
    else if sel = 1 then b
    else if a = b then a
    else x
end

(* Packed ternary bit-planes: a vector of trits stored as two parallel
   bit arrays (a "value" plane and an "unknown" plane), 32 trits per
   `int` word. Trit [i] lives in bit [i land 31] of word [i lsr 5];
   the code of a trit is [v_bit lor (x_bit lsl 1)] with the invariant
   that an unknown trit carries [v_bit = 0] (the same normalization as
   {!Word}), so codes are exactly {!I.zero}/{!I.one}/{!I.x} and two
   planes are element-wise equal iff the words of both planes are
   equal. Word-wide operations (diffs, blits) replace
   per-trit loops in the simulator's compiled kernel. *)
module Plane = struct
  let words n = (n + 31) lsr 5

  let make n = (Array.make (words n) 0, Array.make (words n) 0)

  (* Index of the lowest set bit of a nonzero 32-bit word (de Bruijn
     multiplication; branch-free). *)
  let ctz_table =
    [| 0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8;
       31; 27; 13; 23; 21; 19; 16; 7; 26; 12; 18; 6; 11; 5; 10; 9 |]

  let ctz w =
    Array.unsafe_get ctz_table (((w land -w) * 0x077CB531) lsr 27 land 31)
end

module Word = struct
  type tri = t

  type t = { v : int; x : int; width : int }

  let mask width = (1 lsl width) - 1

  let make ~width ~v ~x =
    if width <= 0 || width > 62 then
      invalid_arg (Printf.sprintf "Tri.Word.make: width %d" width);
    let m = mask width in
    let x = x land m in
    (* Normalize: unknown positions carry v = 0 so equal words compare
       structurally equal. *)
    { v = v land m land Stdlib.lnot x; x; width }

  let of_int ~width n = make ~width ~v:n ~x:0
  let all_x ~width = make ~width ~v:0 ~x:(mask width)
  let to_int w = if w.x = 0 then Some w.v else None
  let is_known w = w.x = 0
  let has_x w = w.x <> 0
  let equal a b = a.width = b.width && a.v = b.v && a.x = b.x
  let width w = w.width

  let bit w i =
    if i < 0 || i >= w.width then invalid_arg "Tri.Word.bit";
    if (w.x lsr i) land 1 = 1 then X
    else if (w.v lsr i) land 1 = 1 then One
    else Zero

  let set_bit w i t =
    if i < 0 || i >= w.width then invalid_arg "Tri.Word.set_bit";
    let b = 1 lsl i in
    match t with
    | Zero -> make ~width:w.width ~v:(w.v land Stdlib.lnot b) ~x:(w.x land Stdlib.lnot b)
    | One -> make ~width:w.width ~v:(w.v lor b) ~x:(w.x land Stdlib.lnot b)
    | X -> make ~width:w.width ~v:w.v ~x:(w.x lor b)

  let of_trits trits =
    let width = Array.length trits in
    let v = ref 0 and x = ref 0 in
    Array.iteri
      (fun i t ->
        match t with
        | One -> v := !v lor (1 lsl i)
        | X -> x := !x lor (1 lsl i)
        | Zero -> ())
      trits;
    make ~width ~v:!v ~x:!x

  let to_trits w = Array.init w.width (fun i -> bit w i)

  let pp fmt w =
    for i = w.width - 1 downto 0 do
      Format.pp_print_char fmt (to_char (bit w i))
    done

  let lnot w = make ~width:w.width ~v:(Stdlib.lnot w.v) ~x:w.x

  (* Bitwise AND: result bit known-0 if either side is known-0; known-1 if
     both known-1; X otherwise. *)
  let logand a b =
    if a.width <> b.width then invalid_arg "Tri.Word.logand";
    let zero_a = Stdlib.lnot a.v land Stdlib.lnot a.x
    and zero_b = Stdlib.lnot b.v land Stdlib.lnot b.x in
    let known_zero = zero_a lor zero_b in
    let known_one = a.v land b.v in
    let x = Stdlib.lnot (known_zero lor known_one) in
    make ~width:a.width ~v:known_one ~x

  let logor a b =
    if a.width <> b.width then invalid_arg "Tri.Word.logor";
    let zero_a = Stdlib.lnot a.v land Stdlib.lnot a.x
    and zero_b = Stdlib.lnot b.v land Stdlib.lnot b.x in
    let known_one = a.v lor b.v in
    let known_zero = zero_a land zero_b in
    let x = Stdlib.lnot (known_zero lor known_one) in
    make ~width:a.width ~v:known_one ~x

  let logxor a b =
    if a.width <> b.width then invalid_arg "Tri.Word.logxor";
    let x = a.x lor b.x in
    make ~width:a.width ~v:(a.v lxor b.v) ~x

  let tri_full_add a b c =
    let s = xor (xor a b) c in
    let co = (a &&& b) ||| (c &&& xor a b) in
    (s, co)

  let add_carry a b cin =
    if a.width <> b.width then invalid_arg "Tri.Word.add_carry";
    let s = ref (of_int ~width:a.width 0) in
    let c = ref cin in
    for i = 0 to a.width - 1 do
      let si, co = tri_full_add (bit a i) (bit b i) !c in
      s := set_bit !s i si;
      c := co
    done;
    (!s, !c)

  let add a b = fst (add_carry a b Zero)
  let sub a b = fst (add_carry a (lnot b) One)

  let mul_full a b =
    if a.width <> b.width then invalid_arg "Tri.Word.mul_full";
    let w2 = 2 * a.width in
    if is_known a && is_known b then of_int ~width:w2 (a.v * b.v)
    else begin
      (* Shift-add with X propagation; a known-zero multiplier bit
         contributes nothing even when the other operand is unknown. *)
      let acc = ref (of_int ~width:w2 0) in
      let a2 = make ~width:w2 ~v:a.v ~x:a.x in
      for i = 0 to b.width - 1 do
        let partial =
          match bit b i with
          | Zero -> of_int ~width:w2 0
          | One -> make ~width:w2 ~v:(a2.v lsl i) ~x:(a2.x lsl i)
          | X ->
            (* Each possibly-one position of [a] becomes unknown. *)
            make ~width:w2 ~v:0 ~x:((a2.v lor a2.x) lsl i)
        in
        acc := add !acc partial
      done;
      !acc
    end

  let mul a b =
    let full = mul_full a b in
    make ~width:a.width ~v:full.v ~x:full.x

  let shift_left w n =
    if n < 0 then invalid_arg "Tri.Word.shift_left";
    make ~width:w.width ~v:(w.v lsl n) ~x:(w.x lsl n)

  let shift_right_logical w n =
    if n < 0 then invalid_arg "Tri.Word.shift_right_logical";
    make ~width:w.width ~v:(w.v lsr n) ~x:(w.x lsr n)

  let shift_right_arith w n =
    if n < 0 then invalid_arg "Tri.Word.shift_right_arith";
    let sign = bit w (w.width - 1) in
    let shifted = shift_right_logical w n in
    let filled = ref shifted in
    for i = max 0 (w.width - n) to w.width - 1 do
      filled := set_bit !filled i sign
    done;
    !filled

  let eq a b =
    if a.width <> b.width then invalid_arg "Tri.Word.eq";
    (* Definitely unequal if some bit is known on both sides and differs. *)
    let known = Stdlib.lnot a.x land Stdlib.lnot b.x land mask a.width in
    if (a.v lxor b.v) land known <> 0 then Zero
    else if a.x lor b.x <> 0 then X
    else One

  let lt_unsigned a b =
    if a.width <> b.width then invalid_arg "Tri.Word.lt_unsigned";
    if is_known a && is_known b then of_bool (a.v < b.v)
    else begin
      (* Interval comparison: min/max of each side. *)
      let amin = a.v and amax = a.v lor a.x in
      let bmin = b.v and bmax = b.v lor b.x in
      if amax < bmin then One else if amin >= bmax then Zero else X
    end

  let signed_of w v =
    let s = 1 lsl (w.width - 1) in
    if v land s <> 0 then v - (2 * s) else v

  let lt_signed a b =
    if a.width <> b.width then invalid_arg "Tri.Word.lt_signed";
    if is_known a && is_known b then of_bool (signed_of a a.v < signed_of b b.v)
    else begin
      let bounds w =
        let s = 1 lsl (w.width - 1) in
        if w.x land s <> 0 then
          (* Sign bit unknown: minimum forces sign = 1 and all other
             unknown bits to 0; maximum forces sign = 0 and the rest
             to 1. *)
          (signed_of w (w.v lor s), signed_of w ((w.v lor w.x) land Stdlib.lnot s))
        else (signed_of w w.v, signed_of w (w.v lor w.x))
      in
      let amin, amax = bounds a and bmin, bmax = bounds b in
      if amax < bmin then One else if amin >= bmax then Zero else X
    end

  let merge a b =
    if a.width <> b.width then invalid_arg "Tri.Word.merge";
    let disagree = (a.v lxor b.v) lor a.x lor b.x in
    make ~width:a.width ~v:a.v ~x:disagree
end
