(* Symbolic simulation (Algorithm 1) tests on the real CPU netlist:
   fork exploration, input-dependent loop termination via state dedup,
   and the central validation property — gates toggled by any concrete
   execution are a subset of the gates marked active by X-based
   analysis. Also functional checks of RTL combinators via simulation. *)

open Isa

let i x = Asm.I x
let mov_imm n r = i (Insn.I1 (Insn.MOV, Insn.S_imm (Insn.Lit n), Insn.D_reg r))
let input_addr = Memmap.ram_base + 0x80

(* a program whose control flow depends on an uninitialized (X) RAM word *)
let branch_program =
  Tsupport.prologue
  @ [
      i (Insn.I1 (Insn.MOV, Insn.S_abs (Insn.Lit input_addr), Insn.D_reg 4));
      i (Insn.I1 (Insn.CMP, Insn.S_imm (Insn.Lit 5), Insn.D_reg 4));
      i (Insn.J (Insn.JEQ, Insn.Sym "equal"));
      mov_imm 1 5;
      i (Insn.J (Insn.JMP, Insn.Sym "_halt"));
      Asm.Label "equal";
      mov_imm 2 5;
    ]

let sym_run ?(revisit = 0) body =
  let img = Tsupport.assemble_body body in
  let e = Tsupport.fresh_engine ~concrete:false img in
  let cfg =
    {
      (Gatesim.Sym.default_config
         ~is_end:(Cpu.is_end_cycle ~halt_addr:img.Asm.halt_addr))
      with
      Gatesim.Sym.revisit_limit = revisit;
    }
  in
  Gatesim.Sym.run e cfg

let concrete_run body ~input =
  let img = Tsupport.assemble_body body in
  let e = Tsupport.fresh_engine ~concrete:true img in
  (match input with
  | Some v -> Gatesim.Mem.poke (Gatesim.Engine.mem e) input_addr v
  | None -> ());
  Gatesim.Sym.run_concrete e
    ~is_end:(Cpu.is_end ~halt_addr:img.Asm.halt_addr)
    ~max_cycles:20_000

let test_fork_two_paths () =
  let tree, stats = sym_run branch_program in
  Alcotest.(check int) "two paths" 2 stats.Gatesim.Sym.paths;
  Alcotest.(check int) "one fork" 1 stats.Gatesim.Sym.forks;
  Alcotest.(check int) "tree path count" 2 (Gatesim.Trace.count_paths tree)

let test_straightline_no_fork () =
  let tree, stats = sym_run (Tsupport.prologue @ [ mov_imm 42 4 ]) in
  Alcotest.(check int) "one path" 1 stats.Gatesim.Sym.paths;
  Alcotest.(check int) "no forks" 0 stats.Gatesim.Sym.forks;
  Alcotest.(check bool) "has cycles" true (Gatesim.Trace.count_cycles tree > 5)

let test_input_dependent_loop_terminates () =
  (* poll an X flag: without state dedup this would never terminate *)
  let body =
    Tsupport.prologue
    @ [
        Asm.Label "poll";
        i (Insn.I1 (Insn.MOV, Insn.S_abs (Insn.Lit input_addr), Insn.D_reg 4));
        i (Insn.I1 (Insn.AND, Insn.S_imm (Insn.Lit 1), Insn.D_reg 4));
        i (Insn.J (Insn.JNE, Insn.Sym "poll"));
      ]
  in
  let _tree, stats = sym_run body in
  Alcotest.(check bool) "dedup happened" true (stats.Gatesim.Sym.dedup_hits >= 1);
  Alcotest.(check bool) "bounded paths" true (stats.Gatesim.Sym.paths <= 4)

let test_data_dependent_no_fork () =
  (* X data flowing through arithmetic, but control flow concrete *)
  let body =
    Tsupport.prologue
    @ [
        i (Insn.I1 (Insn.MOV, Insn.S_abs (Insn.Lit input_addr), Insn.D_reg 4));
        i (Insn.I1 (Insn.ADD, Insn.S_reg 4, Insn.D_reg 4));
        i (Insn.I1 (Insn.XOR, Insn.S_imm (Insn.Lit 0xFFFF), Insn.D_reg 4));
        i (Insn.I1 (Insn.MOV, Insn.S_reg 4, Insn.D_abs (Insn.Lit (input_addr + 2))));
      ]
  in
  let _tree, stats = sym_run body in
  Alcotest.(check int) "single path" 1 stats.Gatesim.Sym.paths

let active_nets_of_tree tree =
  let set = Hashtbl.create 4096 in
  Gatesim.Trace.iter_segments tree (fun seg ->
      Array.iter
        (fun cy ->
          Array.iter
            (fun d -> Hashtbl.replace set (Gatesim.Trace.net d) ())
            cy.Gatesim.Trace.deltas;
          Array.iter (fun n -> Hashtbl.replace set n ()) cy.Gatesim.Trace.x_active)
        seg);
  set

let toggled_nets_of_run cycles =
  let set = Hashtbl.create 4096 in
  Array.iter
    (fun cy ->
      Array.iter
        (fun d -> Hashtbl.replace set (Gatesim.Trace.net d) ())
        cy.Gatesim.Trace.deltas)
    cycles;
  set

(* Paper Section 3.4 / Figure 3.4: input-based toggles are a subset of
   X-based potentially-toggled gates. *)
let test_superset_validation () =
  let tree, _ = sym_run branch_program in
  let sym_active = active_nets_of_tree tree in
  List.iter
    (fun input ->
      let cycles = concrete_run branch_program ~input:(Some input) in
      let conc = toggled_nets_of_run cycles in
      let missing = ref [] in
      Hashtbl.iter
        (fun net () ->
          if not (Hashtbl.mem sym_active net) then missing := net :: !missing)
        conc;
      Alcotest.(check (list int))
        (Printf.sprintf "no concrete-only toggles (input=%d)" input)
        [] !missing)
    [ 5; 7; 0; 0xFFFF ]

let test_concrete_matches_iss_flow () =
  (* end-to-end: the flattened concrete trace ends at the halt fetch *)
  let cycles = concrete_run branch_program ~input:(Some 5) in
  let last = cycles.(Array.length cycles - 1) in
  Alcotest.(check bool) "last cycle is halt fetch" true
    (Cpu.is_end_cycle
       ~halt_addr:
         (Tsupport.assemble_body branch_program).Asm.halt_addr
       last)

let test_determinism () =
  let t1, s1 = sym_run branch_program in
  let t2, s2 = sym_run branch_program in
  Alcotest.(check int) "same cycles" (Gatesim.Trace.count_cycles t1)
    (Gatesim.Trace.count_cycles t2);
  Alcotest.(check int) "same paths" s1.Gatesim.Sym.paths s2.Gatesim.Sym.paths;
  let f1 = Gatesim.Trace.flatten t1 and f2 = Gatesim.Trace.flatten t2 in
  Alcotest.(check int) "same flattened length" (Array.length f1) (Array.length f2);
  Array.iteri
    (fun k c1 ->
      let c2 = f2.(k) in
      Alcotest.(check int)
        (Printf.sprintf "same deltas at %d" k)
        (Array.length c1.Gatesim.Trace.deltas)
        (Array.length c2.Gatesim.Trace.deltas))
    f1

(* ---- RTL combinator functional tests (simulated) ---- *)

let eval_comb build n_inputs f_expected =
  (* build: ctx -> input bus -> output bus; checked against f_expected by
     direct topological evaluation *)
  let ctx = Rtl.create () in
  let ins = Rtl.input_bus ctx n_inputs in
  let out = build ctx ins in
  Rtl.name_bus ctx "out" out;
  let nl = Rtl.freeze ctx in
  let eval inputs_value =
    let values = Array.make (Netlist.gate_count nl) Tri.I.x in
    Array.iter
      (fun (g : Netlist.gate) ->
        match g.Netlist.cell with
        | Netlist.Const t -> values.(g.Netlist.id) <- Tri.to_int t
        | _ -> ())
      nl.Netlist.gates;
    Array.iteri
      (fun k id -> values.(id) <- (inputs_value lsr k) land 1)
      nl.Netlist.inputs;
    Array.iter
      (fun id ->
        let g = nl.Netlist.gates.(id) in
        let v j = values.(g.Netlist.fanins.(j)) in
        values.(id) <-
          (match g.Netlist.cell with
          | Netlist.Buf -> v 0
          | Netlist.Inv -> Tri.I.lnot (v 0)
          | Netlist.And2 -> Tri.I.land_ (v 0) (v 1)
          | Netlist.Or2 -> Tri.I.lor_ (v 0) (v 1)
          | Netlist.Nand2 -> Tri.I.lnand (v 0) (v 1)
          | Netlist.Nor2 -> Tri.I.lnor (v 0) (v 1)
          | Netlist.Xor2 -> Tri.I.lxor_ (v 0) (v 1)
          | Netlist.Xnor2 -> Tri.I.lxnor (v 0) (v 1)
          | Netlist.Mux2 -> Tri.I.mux (v 0) (v 1) (v 2)
          | Netlist.Input | Netlist.Const _ | Netlist.Dff | Netlist.Dffe ->
            values.(id)))
      nl.Netlist.topo;
    let result = ref 0 in
    Array.iteri
      (fun k net ->
        if values.(net) = 1 then result := !result lor (1 lsl k))
      (Array.init (Array.length out) (fun k ->
           Netlist.find_net nl (Printf.sprintf "out[%d]" k)));
    !result
  in
  for trial = 0 to 199 do
    let inputs_value = (trial * 2654435761) land ((1 lsl n_inputs) - 1) in
    let got = eval inputs_value in
    let want = f_expected inputs_value in
    if got <> want then
      Alcotest.failf "combinator mismatch: inputs=%x got=%x want=%x"
        inputs_value got want
  done

let test_rtl_adder () =
  eval_comb
    (fun ctx ins ->
      let a = Array.sub ins 0 8 and b = Array.sub ins 8 8 in
      Rtl.add ctx a b)
    16
    (fun v ->
      let a = v land 0xFF and b = (v lsr 8) land 0xFF in
      (a + b) land 0xFF)

let test_rtl_sub () =
  eval_comb
    (fun ctx ins ->
      let a = Array.sub ins 0 8 and b = Array.sub ins 8 8 in
      Rtl.sub ctx a b)
    16
    (fun v ->
      let a = v land 0xFF and b = (v lsr 8) land 0xFF in
      (a - b) land 0xFF)

let test_rtl_mul_unsigned () =
  eval_comb
    (fun ctx ins ->
      let a = Array.sub ins 0 6 and b = Array.sub ins 6 6 in
      Rtl.mul_array ctx a b)
    12
    (fun v ->
      let a = v land 0x3F and b = (v lsr 6) land 0x3F in
      a * b)

let test_rtl_mul_signed () =
  eval_comb
    (fun ctx ins ->
      let a = Array.sub ins 0 6 and b = Array.sub ins 6 6 in
      Rtl.mul_array_signed ctx a b)
    12
    (fun v ->
      let s6 x = if x land 0x20 <> 0 then x - 64 else x in
      let a = s6 (v land 0x3F) and b = s6 ((v lsr 6) land 0x3F) in
      a * b land 0xFFF)

let test_rtl_comparators () =
  eval_comb
    (fun ctx ins ->
      let a = Array.sub ins 0 6 and b = Array.sub ins 6 6 in
      [| Rtl.lt_unsigned ctx a b; Rtl.eq ctx a b; Rtl.is_zero ctx a |])
    12
    (fun v ->
      let a = v land 0x3F and b = (v lsr 6) land 0x3F in
      (if a < b then 1 else 0)
      lor (if a = b then 2 else 0)
      lor if a = 0 then 4 else 0)

let test_rtl_mux_tree () =
  eval_comb
    (fun ctx ins ->
      let sel = Array.sub ins 0 2 and x = Array.sub ins 2 4 in
      let cases = Array.init 4 (fun k -> [| x.(k) |]) in
      Rtl.mux_tree ctx sel cases)
    6
    (fun v ->
      let sel = v land 3 and x = (v lsr 2) land 0xF in
      (x lsr sel) land 1)

let test_rtl_decode () =
  eval_comb
    (fun ctx ins ->
      let sel = Array.sub ins 0 3 in
      Rtl.decode ctx sel)
    3
    (fun v -> 1 lsl (v land 7))

let () =
  Alcotest.run "gatesim"
    [
      ( "symbolic",
        [
          Alcotest.test_case "fork two paths" `Quick test_fork_two_paths;
          Alcotest.test_case "straight line" `Quick test_straightline_no_fork;
          Alcotest.test_case "loop terminates" `Quick
            test_input_dependent_loop_terminates;
          Alcotest.test_case "data X no fork" `Quick test_data_dependent_no_fork;
          Alcotest.test_case "superset validation" `Quick
            test_superset_validation;
          Alcotest.test_case "halt detection" `Quick
            test_concrete_matches_iss_flow;
          Alcotest.test_case "determinism" `Quick test_determinism;
        ] );
      ( "rtl-sim",
        [
          Alcotest.test_case "adder" `Quick test_rtl_adder;
          Alcotest.test_case "sub" `Quick test_rtl_sub;
          Alcotest.test_case "mul unsigned" `Quick test_rtl_mul_unsigned;
          Alcotest.test_case "mul signed" `Quick test_rtl_mul_signed;
          Alcotest.test_case "comparators" `Quick test_rtl_comparators;
          Alcotest.test_case "mux tree" `Quick test_rtl_mux_tree;
          Alcotest.test_case "decode" `Quick test_rtl_decode;
        ] );
    ]
