type cell_power = {
  rise_energy : float;
  fall_energy : float;
  pin_cap : float;
  leakage : float;
}

type t = {
  lib_name : string;
  vdd : float;
  wire_cap_per_fanout : float;
  clk_pin_energy : float;
  of_cell : Netlist.cell -> cell_power;
}

let fj x = x *. 1e-15
let ff x = x *. 1e-15
let nw x = x *. 1e-9

(* Relative shape matters: XOR-class and MUX cells cost more than simple
   NAND/NOR; flops dominate; rise is slightly costlier than fall (PMOS
   stack), except for NOR-style cells where fall wins. *)
let default_of_cell : Netlist.cell -> cell_power = function
  | Netlist.Input | Netlist.Const _ ->
    { rise_energy = 0.; fall_energy = 0.; pin_cap = 0.; leakage = 0. }
  | Netlist.Buf ->
    { rise_energy = fj 1.89; fall_energy = fj 1.71; pin_cap = ff 1.1; leakage = nw 18. }
  | Netlist.Inv ->
    { rise_energy = fj 1.53; fall_energy = fj 1.35; pin_cap = ff 1.0; leakage = nw 15. }
  | Netlist.And2 ->
    { rise_energy = fj 2.88; fall_energy = fj 2.52; pin_cap = ff 1.3; leakage = nw 26. }
  | Netlist.Or2 ->
    { rise_energy = fj 2.79; fall_energy = fj 2.66; pin_cap = ff 1.3; leakage = nw 26. }
  | Netlist.Nand2 ->
    { rise_energy = fj 2.29; fall_energy = fj 2.02; pin_cap = ff 1.2; leakage = nw 22. }
  | Netlist.Nor2 ->
    { rise_energy = fj 2.07; fall_energy = fj 2.38; pin_cap = ff 1.2; leakage = nw 22. }
  | Netlist.Xor2 ->
    { rise_energy = fj 4.41; fall_energy = fj 4.09; pin_cap = ff 1.8; leakage = nw 41. }
  | Netlist.Xnor2 ->
    { rise_energy = fj 4.32; fall_energy = fj 4.19; pin_cap = ff 1.8; leakage = nw 41. }
  | Netlist.Mux2 ->
    { rise_energy = fj 5.17; fall_energy = fj 4.77; pin_cap = ff 1.6; leakage = nw 48. }
  | Netlist.Dff ->
    { rise_energy = fj 7.20; fall_energy = fj 6.66; pin_cap = ff 1.4; leakage = nw 95. }
  | Netlist.Dffe ->
    { rise_energy = fj 7.42; fall_energy = fj 6.84; pin_cap = ff 1.4; leakage = nw 102. }

let default =
  {
    lib_name = "xbound65gp_1v0";
    vdd = 1.0;
    wire_cap_per_fanout = ff 0.9;
    clk_pin_energy = fj 20.0;
    of_cell = default_of_cell;
  }

let msp430f1610 =
  (* 130 nm at 3 V: roughly 9x the 1 V switching energy (V^2) on larger
     devices; leakage is far lower on the mature node. *)
  {
    lib_name = "xbound130_3v0";
    vdd = 3.0;
    wire_cap_per_fanout = ff 1.8;
    clk_pin_energy = fj 180.0;
    of_cell =
      (fun c ->
        let p = default_of_cell c in
        {
          rise_energy = p.rise_energy *. 11.;
          fall_energy = p.fall_energy *. 11.;
          pin_cap = p.pin_cap *. 1.8;
          leakage = p.leakage *. 0.05;
        });
  }

let scale lib k =
  {
    lib with
    lib_name = Printf.sprintf "%s_x%g" lib.lib_name k;
    clk_pin_energy = lib.clk_pin_energy *. k;
    of_cell =
      (fun c ->
        let p = lib.of_cell c in
        {
          rise_energy = p.rise_energy *. k;
          fall_energy = p.fall_energy *. k;
          pin_cap = p.pin_cap;
          leakage = p.leakage *. k;
        });
  }

let load_cap lib (nl : Netlist.t) net =
  let fanout = nl.Netlist.fanouts.(net) in
  let pins =
    Array.fold_left
      (fun acc reader -> acc +. (lib.of_cell nl.Netlist.gates.(reader).Netlist.cell).pin_cap)
      0. fanout
  in
  pins +. (float_of_int (Array.length fanout) *. lib.wire_cap_per_fanout)

let switch_energy lib nl net ~rising =
  let cell = nl.Netlist.gates.(net).Netlist.cell in
  let p = lib.of_cell cell in
  let internal = if rising then p.rise_energy else p.fall_energy in
  (* The load is charged on a rising edge and discharged (through the
     cell) on a falling one; both dissipate 1/2 C V^2. *)
  internal +. (0.5 *. load_cap lib nl net *. lib.vdd *. lib.vdd)

let max_switch_energy lib nl net =
  Float.max
    (switch_energy lib nl net ~rising:true)
    (switch_energy lib nl net ~rising:false)

let max_transition lib nl net =
  let er = switch_energy lib nl net ~rising:true in
  let ef = switch_energy lib nl net ~rising:false in
  if er >= ef then (Tri.Zero, Tri.One) else (Tri.One, Tri.Zero)

let leakage_power lib nl =
  Array.fold_left
    (fun acc g -> acc +. (lib.of_cell g.Netlist.cell).leakage)
    0. nl.Netlist.gates

let liberty_text lib =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf
       "library (%s) {\n  voltage_unit : \"1V\";\n  time_unit : \"1ns\";\n\
       \  leakage_power_unit : \"1nW\";\n  capacitive_load_unit (1, ff);\n\
       \  nom_voltage : %.2f;\n" lib.lib_name lib.vdd);
  let cells =
    [
      Netlist.Buf; Netlist.Inv; Netlist.And2; Netlist.Or2; Netlist.Nand2;
      Netlist.Nor2; Netlist.Xor2; Netlist.Xnor2; Netlist.Mux2; Netlist.Dff;
      Netlist.Dffe;
    ]
  in
  List.iter
    (fun cell ->
      let p = lib.of_cell cell in
      Buffer.add_string buf
        (Printf.sprintf
           "  cell (X_%s) {\n    area : %d;\n    cell_leakage_power : %.3f;\n\
           \    pin (Y) { direction : output;\n      internal_power () {\n\
           \        rise_power : %.4f; /* fJ */\n        fall_power : %.4f; /* fJ */\n\
           \      }\n    }\n    pin (A) { direction : input; capacitance : %.3f; }\n  }\n"
           (String.uppercase_ascii (Netlist.cell_name cell))
           (Netlist.cell_arity cell + 1)
           (p.leakage /. 1e-9)
           (p.rise_energy /. 1e-15)
           (p.fall_energy /. 1e-15)
           (p.pin_cap /. 1e-15)))
    cells;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
