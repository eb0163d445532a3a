(* Gate-level CPU validation against the reference ISS.

   The headline test is randomized lockstep equivalence: arbitrary
   programs drawn from the full instruction/addressing-mode space run on
   both models, with registers compared at every instruction boundary
   and RAM at halt. *)

open Isa

let mov_imm n r = Asm.I (Insn.I1 (Insn.MOV, Insn.S_imm (Insn.Lit n), Insn.D_reg r))
let i x = Asm.I x

let fail_test msg = Alcotest.fail msg

let lockstep_body ?name body =
  Tsupport.lockstep ~fail:fail_test
    (Tsupport.assemble_body ?name (Tsupport.prologue @ body))

let test_netlist_shape () =
  let c = Tsupport.the_cpu () in
  let s = Netlist.Stats.compute c.Cpu.netlist in
  Alcotest.(check bool) "has a few thousand gates" true (s.Netlist.Stats.total > 3000);
  Alcotest.(check bool) "has flops" true (s.Netlist.Stats.sequential > 300);
  let modules = List.map fst s.Netlist.Stats.by_module in
  List.iter
    (fun m ->
      Alcotest.(check bool) (m ^ " present") true (List.mem m modules))
    [
      "clk_module"; "dbg"; "exec_unit"; "frontend"; "mem_backbone";
      "multiplier"; "sfr"; "watchdog";
    ]

(* The single memory read per cycle needs read data not to reach the
   address or read enable. The CPU's fetch bypass is such a path in the
   bare fan-in cone, never sensitized, so the check passes; a port
   record that routes read data into the address or the enable trips
   it. *)
let test_memory_ports () =
  let c = Tsupport.the_cpu () in
  let nl = c.Cpu.netlist and p = c.Cpu.ports in
  let rdata = p.Gatesim.Engine.mem_rdata in
  let cone = Netlist.fanin_cone nl p.Gatesim.Engine.mem_addr in
  Alcotest.(check bool) "fetch bypass in the address cone" true
    (Array.exists (fun id -> cone.(id)) rdata);
  Cpu.check_memory_ports nl p;
  let trips label ports =
    match Cpu.check_memory_ports nl ports with
    | () -> Alcotest.failf "%s: check passed" label
    | exception Failure _ -> ()
  in
  let addr = Array.copy p.Gatesim.Engine.mem_addr in
  addr.(3) <- rdata.(5);
  trips "read data on the address" { p with Gatesim.Engine.mem_addr = addr };
  trips "read data as the enable" { p with Gatesim.Engine.mem_ren = rdata.(0) }

let test_basic_alu () =
  let r =
    lockstep_body
      [
        mov_imm 40 4;
        mov_imm 2 5;
        i (Insn.I1 (Insn.ADD, Insn.S_reg 5, Insn.D_reg 4));
        i (Insn.I1 (Insn.SUB, Insn.S_imm (Insn.Lit 12), Insn.D_reg 4));
        i (Insn.I1 (Insn.XOR, Insn.S_imm (Insn.Lit 0xFFFF), Insn.D_reg 4));
        i (Insn.I1 (Insn.AND, Insn.S_imm (Insn.Lit 0x0F0F), Insn.D_reg 4));
        i (Insn.I1 (Insn.BIS, Insn.S_imm (Insn.Lit 0x8000), Insn.D_reg 4));
        i (Insn.I1 (Insn.BIC, Insn.S_imm (Insn.Lit 0x0001), Insn.D_reg 4));
      ]
  in
  Alcotest.(check bool) "compared registers" true (r.Tsupport.reg_compares > 0);
  Alcotest.(check int) "cycles cpu = iss + 1" (r.Tsupport.iss_cycles + 1)
    r.Tsupport.cpu_cycles

let test_memory_modes () =
  let base = Memmap.ram_base + 0x40 in
  ignore
    (lockstep_body
       [
         mov_imm base 12;
         mov_imm 0x1234 4;
         i (Insn.I1 (Insn.MOV, Insn.S_reg 4, Insn.D_abs (Insn.Lit base)));
         i (Insn.I1 (Insn.MOV, Insn.S_abs (Insn.Lit base), Insn.D_reg 5));
         i (Insn.I1 (Insn.MOV, Insn.S_reg 5, Insn.D_idx (Insn.Lit 8, 12)));
         i (Insn.I1 (Insn.ADD, Insn.S_idx (Insn.Lit 8, 12), Insn.D_reg 5));
         i (Insn.I1 (Insn.MOV, Insn.S_ind 12, Insn.D_reg 6));
         i (Insn.I1 (Insn.MOV, Insn.S_ind_inc 12, Insn.D_reg 7));
         i (Insn.I1 (Insn.ADD, Insn.S_reg 7, Insn.D_idx (Insn.Lit 0, 12)));
         i (Insn.I1 (Insn.CMP, Insn.S_imm (Insn.Lit 99), Insn.D_idx (Insn.Lit 0, 12)));
       ])

let test_stack_and_call () =
  ignore
    (lockstep_body
       [
         mov_imm 0xAAAA 4;
         i (Insn.I2 (Insn.PUSH, Insn.S_reg 4));
         i (Insn.I2 (Insn.PUSH, Insn.S_imm (Insn.Lit 0x5555)));
         i (Insn.pop 5);
         i (Insn.pop 6);
         i (Insn.I2 (Insn.CALL, Insn.S_imm (Insn.Sym "sub")));
         mov_imm 1 8;
         i (Insn.J (Insn.JMP, Insn.Sym "_halt"));
         Asm.Label "sub";
         mov_imm 77 7;
         i Insn.ret;
       ])

let test_jumps_loop () =
  ignore
    (lockstep_body
       [
         mov_imm 5 4;
         mov_imm 0 5;
         Asm.Label "loop";
         i (Insn.I1 (Insn.ADD, Insn.S_reg 4, Insn.D_reg 5));
         i (Insn.dec_r 4);
         i (Insn.J (Insn.JNE, Insn.Sym "loop"));
         (* signed comparisons *)
         mov_imm 0xFFF0 6;
         i (Insn.I1 (Insn.CMP, Insn.S_imm (Insn.Lit 3), Insn.D_reg 6));
         i (Insn.J (Insn.JL, Insn.Sym "was_less"));
         mov_imm 0 7;
         i (Insn.J (Insn.JMP, Insn.Sym "_halt"));
         Asm.Label "was_less";
         mov_imm 1 7;
       ])

let test_fmt2_ops () =
  ignore
    (lockstep_body
       [
         mov_imm 0x8005 4;
         i (Insn.I2 (Insn.RRA, Insn.S_reg 4));
         i (Insn.I2 (Insn.RRC, Insn.S_reg 4));
         mov_imm 0x1234 5;
         i (Insn.I2 (Insn.SWPB, Insn.S_reg 5));
         mov_imm 0x0080 6;
         i (Insn.I2 (Insn.SXT, Insn.S_reg 6));
         (* memory-operand RMW *)
         mov_imm (Memmap.ram_base + 0x10) 12;
         mov_imm 0x00F1 7;
         i (Insn.I1 (Insn.MOV, Insn.S_reg 7, Insn.D_idx (Insn.Lit 0, 12)));
         i (Insn.I2 (Insn.RRA, Insn.S_ind 12));
         i (Insn.I1 (Insn.MOV, Insn.S_ind 12, Insn.D_reg 8));
       ])

let test_multiplier () =
  ignore
    (lockstep_body
       [
         mov_imm 1234 4;
         i (Insn.I1 (Insn.MOV, Insn.S_reg 4, Insn.D_abs (Insn.Lit Memmap.mpy)));
         mov_imm 5678 5;
         i (Insn.I1 (Insn.MOV, Insn.S_reg 5, Insn.D_abs (Insn.Lit Memmap.op2)));
         i (Insn.I1 (Insn.MOV, Insn.S_abs (Insn.Lit Memmap.reslo), Insn.D_reg 6));
         i (Insn.I1 (Insn.MOV, Insn.S_abs (Insn.Lit Memmap.reshi), Insn.D_reg 7));
         (* signed multiply: -2 * 3 *)
         mov_imm 0xFFFE 4;
         i (Insn.I1 (Insn.MOV, Insn.S_reg 4, Insn.D_abs (Insn.Lit Memmap.mpys)));
         mov_imm 3 5;
         i (Insn.I1 (Insn.MOV, Insn.S_reg 5, Insn.D_abs (Insn.Lit Memmap.op2)));
         i (Insn.I1 (Insn.MOV, Insn.S_abs (Insn.Lit Memmap.reslo), Insn.D_reg 8));
         i (Insn.I1 (Insn.MOV, Insn.S_abs (Insn.Lit Memmap.reshi), Insn.D_reg 9));
         i (Insn.I1 (Insn.MOV, Insn.S_abs (Insn.Lit Memmap.sumext), Insn.D_reg 10));
       ])

let test_sr_as_dst () =
  ignore
    (lockstep_body
       [
         (* set and clear carry via SR writes *)
         i (Insn.I1 (Insn.BIS, Insn.S_imm (Insn.Lit 1), Insn.D_reg 2));
         i (Insn.J (Insn.JC, Insn.Sym "carry_set"));
         mov_imm 0 4;
         i (Insn.J (Insn.JMP, Insn.Sym "_halt"));
         Asm.Label "carry_set";
         i (Insn.I1 (Insn.BIC, Insn.S_imm (Insn.Lit 1), Insn.D_reg 2));
         i (Insn.J (Insn.JNC, Insn.Sym "carry_clear"));
         mov_imm 0 4;
         i (Insn.J (Insn.JMP, Insn.Sym "_halt"));
         Asm.Label "carry_clear";
         mov_imm 3 4;
       ])

let test_watchdog_and_ports () =
  ignore
    (lockstep_body
       [
         (* read WDTCTL back (0x69xx), write P1OUT, read it back *)
         i (Insn.I1 (Insn.MOV, Insn.S_abs (Insn.Lit Memmap.wdtctl), Insn.D_reg 4));
         mov_imm 0x00FF 5;
         i (Insn.I1 (Insn.MOV, Insn.S_reg 5, Insn.D_abs (Insn.Lit Memmap.p1out)));
         i (Insn.I1 (Insn.MOV, Insn.S_abs (Insn.Lit Memmap.p1out), Insn.D_reg 6));
         i (Insn.I1 (Insn.MOV, Insn.S_abs (Insn.Lit Memmap.p1in), Insn.D_reg 7));
       ])

(* ---- randomized lockstep equivalence ---- *)

let scratch = Memmap.ram_base + 0x100

let gen_program =
  let open QCheck2.Gen in
  let reg = int_range 4 11 in
  let off = map (fun k -> 2 * k) (int_range 0 7) in
  let scratch_addr = map (fun k -> scratch + (2 * k)) (int_range 0 7) in
  let src =
    oneof
      [
        map (fun r -> Insn.S_reg r) reg;
        map (fun v -> Insn.S_imm (Insn.Lit v)) (int_range 0 0xFFFF);
        map (fun v -> Insn.S_imm (Insn.Lit v)) (oneofl [ 0; 1; 2; 4; 8; 0xFFFF ]);
        map (fun a -> Insn.S_abs (Insn.Lit a)) scratch_addr;
        map (fun o -> Insn.S_idx (Insn.Lit o, 12)) off;
        return (Insn.S_ind 12);
      ]
  in
  let dst =
    oneof
      [
        map (fun r -> Insn.D_reg r) reg;
        map (fun a -> Insn.D_abs (Insn.Lit a)) scratch_addr;
        map (fun o -> Insn.D_idx (Insn.Lit o, 12)) off;
      ]
  in
  let op1 =
    oneofl Insn.[ MOV; ADD; ADDC; SUBC; SUB; CMP; BIT; BIC; BIS; XOR; AND ]
  in
  let insn =
    frequency
      [
        (8, map3 (fun op s d -> Insn.I1 (op, s, d)) op1 src dst);
        ( 2,
          map2
            (fun op r -> Insn.I2 (op, Insn.S_reg r))
            (oneofl Insn.[ RRC; SWPB; RRA; SXT ])
            reg );
        (1, map (fun r -> Insn.I2 (Insn.PUSH, Insn.S_reg r)) reg);
        (1, map (fun r -> Insn.pop r) reg);
        ( 1,
          map2
            (fun r v ->
              Insn.I1 (Insn.MOV, Insn.S_imm (Insn.Lit v), Insn.D_reg r))
            reg (int_range 0 0xFFFF) );
      ]
  in
  let* setup =
    let* vals = list_repeat 9 (int_range 0 0xFFFF) in
    return
      (List.mapi (fun k v -> mov_imm v (4 + k)) (List.filteri (fun k _ -> k < 8) vals)
      @ [ mov_imm scratch 12 ])
  in
  let* body = list_size (int_range 5 40) (map i insn) in
  return (setup @ body)

let random_lockstep =
  QCheck2.Test.make ~count:60 ~name:"random programs: cpu == iss" gen_program
    (fun body ->
      let img = Tsupport.assemble_body ~name:"rand" (Tsupport.prologue @ body) in
      let ok = ref true in
      let fail _msg = ok := false in
      let r = Tsupport.lockstep ~fail img in
      if r.Tsupport.cpu_cycles <> r.Tsupport.iss_cycles + 1 then ok := false;
      !ok)

let () =
  Alcotest.run "cpu"
    [
      ( "structure",
        [
          Alcotest.test_case "netlist shape" `Quick test_netlist_shape;
          Alcotest.test_case "memory ports" `Quick test_memory_ports;
        ] );
      ( "lockstep",
        [
          Alcotest.test_case "alu" `Quick test_basic_alu;
          Alcotest.test_case "memory modes" `Quick test_memory_modes;
          Alcotest.test_case "stack and call" `Quick test_stack_and_call;
          Alcotest.test_case "jumps and loops" `Quick test_jumps_loop;
          Alcotest.test_case "format II" `Quick test_fmt2_ops;
          Alcotest.test_case "multiplier" `Quick test_multiplier;
          Alcotest.test_case "sr as destination" `Quick test_sr_as_dst;
          Alcotest.test_case "watchdog and ports" `Quick test_watchdog_and_ports;
        ] );
      ("random", [ QCheck_alcotest.to_alcotest random_lockstep ]);
    ]
