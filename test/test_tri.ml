(* Unit and property tests for three-valued logic.

   The property that underpins the whole technique: every three-valued
   operation is a sound abstraction of the two-valued one. For any
   concretization of the X bits of the inputs, the concrete result is a
   concretization of the three-valued result. *)

let trit = Alcotest.testable Tri.pp Tri.equal

let word =
  Alcotest.testable Tri.Word.pp Tri.Word.equal

(* --- scalar connective truth tables --- *)

let test_not () =
  Alcotest.check trit "not 0" Tri.One (Tri.lnot Tri.Zero);
  Alcotest.check trit "not 1" Tri.Zero (Tri.lnot Tri.One);
  Alcotest.check trit "not x" Tri.X (Tri.lnot Tri.X)

let test_and () =
  let open Tri in
  Alcotest.check trit "0&x" Zero (Zero &&& X);
  Alcotest.check trit "x&0" Zero (X &&& Zero);
  Alcotest.check trit "1&x" X (One &&& X);
  Alcotest.check trit "x&x" X (X &&& X);
  Alcotest.check trit "1&1" One (One &&& One)

let test_or () =
  let open Tri in
  Alcotest.check trit "1|x" One (One ||| X);
  Alcotest.check trit "x|1" One (X ||| One);
  Alcotest.check trit "0|x" X (Zero ||| X);
  Alcotest.check trit "0|0" Zero (Zero ||| Zero)

let test_xor () =
  let open Tri in
  Alcotest.check trit "x^0" X (xor X Zero);
  Alcotest.check trit "x^1" X (xor X One);
  Alcotest.check trit "1^1" Zero (xor One One);
  Alcotest.check trit "1^0" One (xor One Zero)

let test_mux () =
  let open Tri in
  Alcotest.check trit "sel=0" Zero (mux Zero Zero One);
  Alcotest.check trit "sel=1" One (mux One Zero One);
  Alcotest.check trit "sel=x same" One (mux X One One);
  Alcotest.check trit "sel=x diff" X (mux X Zero One);
  Alcotest.check trit "sel=x x-branch" X (mux X X X)

let test_char_roundtrip () =
  List.iter
    (fun t -> Alcotest.check trit "roundtrip" t (Tri.of_char (Tri.to_char t)))
    [ Tri.Zero; Tri.One; Tri.X ]

let test_int_encoding_matches_variant () =
  let all = [ Tri.Zero; Tri.One; Tri.X ] in
  List.iter
    (fun a ->
      Alcotest.check trit "not"
        (Tri.lnot a)
        (Tri.of_int (Tri.I.lnot (Tri.to_int a)));
      List.iter
        (fun b ->
          let open Tri in
          Alcotest.check trit "and" (a &&& b)
            (of_int (I.land_ (to_int a) (to_int b)));
          Alcotest.check trit "or" (a ||| b)
            (of_int (I.lor_ (to_int a) (to_int b)));
          Alcotest.check trit "xor" (xor a b)
            (of_int (I.lxor_ (to_int a) (to_int b)));
          Alcotest.check trit "nand" (lnand a b)
            (of_int (I.lnand (to_int a) (to_int b)));
          Alcotest.check trit "nor" (lnor a b)
            (of_int (I.lnor (to_int a) (to_int b)));
          Alcotest.check trit "xnor" (lxnor a b)
            (of_int (I.lxnor (to_int a) (to_int b)));
          List.iter
            (fun s ->
              Alcotest.check trit "mux" (mux s a b)
                (of_int (I.mux (to_int s) (to_int a) (to_int b))))
            all)
        all)
    all

(* --- word unit tests --- *)

let w16 n = Tri.Word.of_int ~width:16 n

let m_lo v = v land 0xFFFF

let test_word_basic () =
  Alcotest.check word "add" (w16 5) (Tri.Word.add (w16 2) (w16 3));
  Alcotest.check word "sub wrap" (w16 0xFFFF) (Tri.Word.sub (w16 0) (w16 1));
  Alcotest.check word "mul" (w16 (m_lo (1234 * 567)))
    (Tri.Word.mul (w16 1234) (w16 567))

let test_word_x_bits () =
  let x = Tri.Word.all_x ~width:16 in
  Alcotest.(check bool) "all x has x" true (Tri.Word.has_x x);
  Alcotest.(check (option int)) "to_int of x" None (Tri.Word.to_int x);
  (* adding a known zero keeps X *)
  Alcotest.check word "x + 0" x (Tri.Word.add x (w16 0));
  (* X * 0 is known 0: no partial products (paper Section 5 discussion) *)
  Alcotest.check word "x * 0"
    (Tri.Word.of_int ~width:32 0)
    (Tri.Word.mul_full x (w16 0))

let test_word_merge () =
  let a = w16 0b1010 and b = w16 0b1001 in
  let m = Tri.Word.merge a b in
  Alcotest.check trit "bit0 differs" Tri.X (Tri.Word.bit m 0);
  Alcotest.check trit "bit1 differs" Tri.X (Tri.Word.bit m 1);
  Alcotest.check trit "bit3 same" Tri.One (Tri.Word.bit m 3);
  Alcotest.check trit "bit4 same" Tri.Zero (Tri.Word.bit m 4)

let test_word_shifts () =
  Alcotest.check word "sll" (w16 0xFF00)
    (Tri.Word.shift_left (w16 0x0FF0) 4);
  Alcotest.check word "srl" (w16 0x00FF)
    (Tri.Word.shift_right_logical (w16 0xFF00) 8);
  Alcotest.check word "sra neg" (w16 0xFF80)
    (Tri.Word.shift_right_arith (w16 0xF000) 5);
  Alcotest.check word "sra pos" (w16 0x0380)
    (Tri.Word.shift_right_arith (w16 0x7000) 5)

let test_word_compare () =
  Alcotest.check trit "eq yes" Tri.One (Tri.Word.eq (w16 42) (w16 42));
  Alcotest.check trit "eq no" Tri.Zero (Tri.Word.eq (w16 42) (w16 43));
  Alcotest.check trit "ltu" Tri.One (Tri.Word.lt_unsigned (w16 1) (w16 2));
  Alcotest.check trit "lts neg" Tri.One
    (Tri.Word.lt_signed (w16 0xFFFF) (w16 0));
  Alcotest.check trit "lts pos" Tri.Zero (Tri.Word.lt_signed (w16 5) (w16 0))

(* --- soundness properties --- *)

(* Generator of a 16-bit word with some X bits plus one concretization. *)
let gen_word_and_concrete =
  QCheck2.Gen.(
    let* v = int_range 0 0xFFFF in
    let* xmask = int_range 0 0xFFFF in
    let* fill = int_range 0 0xFFFF in
    let w = Tri.Word.make ~width:16 ~v ~x:xmask in
    (* concretization: known bits from v, unknown bits from fill *)
    let c = (v land lnot xmask land 0xFFFF) lor (fill land xmask) in
    return (w, c))

let refines ~concrete w =
  (* concrete value is one of the word's concretizations *)
  let ok = ref true in
  for i = 0 to 15 do
    match Tri.Word.bit w i with
    | Tri.X -> ()
    | Tri.One -> if (concrete lsr i) land 1 <> 1 then ok := false
    | Tri.Zero -> if (concrete lsr i) land 1 <> 0 then ok := false
  done;
  !ok

let trit_refines ~concrete t =
  match t with
  | Tri.X -> true
  | Tri.One -> concrete
  | Tri.Zero -> not concrete

let binop_sound name abstract concrete_op =
  QCheck2.Test.make ~count:500 ~name
    QCheck2.Gen.(pair gen_word_and_concrete gen_word_and_concrete)
    (fun ((wa, ca), (wb, cb)) ->
      refines ~concrete:(concrete_op ca cb land 0xFFFF) (abstract wa wb))

let cmp_sound name abstract concrete_op =
  QCheck2.Test.make ~count:500 ~name
    QCheck2.Gen.(pair gen_word_and_concrete gen_word_and_concrete)
    (fun ((wa, ca), (wb, cb)) ->
      trit_refines ~concrete:(concrete_op ca cb) (abstract wa wb))

let s16 v = if v land 0x8000 <> 0 then v - 0x10000 else v

let properties =
  [
    binop_sound "add sound" Tri.Word.add (fun a b -> a + b);
    binop_sound "sub sound" Tri.Word.sub (fun a b -> a - b);
    binop_sound "mul sound" Tri.Word.mul (fun a b -> a * b);
    binop_sound "and sound" Tri.Word.logand (fun a b -> a land b);
    binop_sound "or sound" Tri.Word.logor (fun a b -> a lor b);
    binop_sound "xor sound" Tri.Word.logxor (fun a b -> a lxor b);
    cmp_sound "eq sound" Tri.Word.eq (fun a b -> a = b);
    cmp_sound "ltu sound" Tri.Word.lt_unsigned (fun a b -> a < b);
    cmp_sound "lts sound" Tri.Word.lt_signed (fun a b -> s16 a < s16 b);
    QCheck2.Test.make ~count:500 ~name:"lnot sound" gen_word_and_concrete
      (fun (w, c) ->
        refines ~concrete:(lnot c land 0xFFFF) (Tri.Word.lnot w));
    QCheck2.Test.make ~count:500 ~name:"mul_full sound" gen_word_and_concrete
      (fun (w, c) ->
        let b = Tri.Word.of_int ~width:16 0xBEEF in
        let full = Tri.Word.mul_full w b in
        let conc = c * 0xBEEF in
        let ok = ref true in
        for i = 0 to 31 do
          match Tri.Word.bit full i with
          | Tri.X -> ()
          | Tri.One -> if (conc lsr i) land 1 <> 1 then ok := false
          | Tri.Zero -> if (conc lsr i) land 1 <> 0 then ok := false
        done;
        !ok);
    QCheck2.Test.make ~count:500 ~name:"merge is upper bound"
      QCheck2.Gen.(pair gen_word_and_concrete gen_word_and_concrete)
      (fun ((wa, ca), (wb, _)) ->
        let m = Tri.Word.merge wa wb in
        (* anything refining wa also refines the merge *)
        refines ~concrete:ca m);
    QCheck2.Test.make ~count:500 ~name:"trits roundtrip" gen_word_and_concrete
      (fun (w, _) -> Tri.Word.equal w (Tri.Word.of_trits (Tri.Word.to_trits w)));
    QCheck2.Test.make ~count:500 ~name:"shift sound"
      QCheck2.Gen.(pair gen_word_and_concrete (int_range 0 15))
      (fun ((w, c), n) ->
        refines ~concrete:((c lsl n) land 0xFFFF) (Tri.Word.shift_left w n)
        && refines ~concrete:(c lsr n) (Tri.Word.shift_right_logical w n)
        && refines
             ~concrete:(s16 c asr n land 0xFFFF)
             (Tri.Word.shift_right_arith w n));
  ]

let () =
  Alcotest.run "tri"
    [
      ( "scalar",
        [
          Alcotest.test_case "not" `Quick test_not;
          Alcotest.test_case "and" `Quick test_and;
          Alcotest.test_case "or" `Quick test_or;
          Alcotest.test_case "xor" `Quick test_xor;
          Alcotest.test_case "mux" `Quick test_mux;
          Alcotest.test_case "char roundtrip" `Quick test_char_roundtrip;
          Alcotest.test_case "int encoding" `Quick
            test_int_encoding_matches_variant;
        ] );
      ( "word",
        [
          Alcotest.test_case "basic" `Quick test_word_basic;
          Alcotest.test_case "x bits" `Quick test_word_x_bits;
          Alcotest.test_case "merge" `Quick test_word_merge;
          Alcotest.test_case "shifts" `Quick test_word_shifts;
          Alcotest.test_case "compare" `Quick test_word_compare;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest properties);
    ]
